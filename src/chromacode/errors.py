"""Exception types shared across the package.

Every structural or contract violation raises one of these instead of a bare
ValueError so callers (and the CLI) can tell user error from solver failure.
"""


class ChromaError(Exception):
    """Base class for all package-specific errors."""


# graph construction / validation

class NonRegular(ChromaError):
    """Vertex degrees are not all equal."""


class DuplicateEdge(ChromaError):
    """The same unordered pair appears twice in an edge list."""


class SelfLoop(ChromaError):
    """An edge joins a vertex to itself."""


class SizeCap(ChromaError):
    """Requested construction exceeds the configured vertex cap."""


class NotCubic(ChromaError):
    """Operation requires a 3-regular input graph."""


class NotBipartite(ChromaError):
    """Operation requires part labels with every edge crossing parts."""


class GenerationTimeout(ChromaError):
    """Random graph generation exhausted its rejection/repair budget."""


class SigningMismatch(ChromaError):
    """A signing is not one +1 or -1 per edge of the graph."""


class MalformedFile(ChromaError):
    """A graph or signing file line does not parse (wrong field count, or a
    token that is not an integer); the message names the line."""


class TooLarge(ChromaError):
    """Input exceeds the cap of an exhaustive or dense computation."""


class Overlap(ChromaError):
    """Vertex subsets required to be disjoint overlap."""


# spectral

class ZeroDegree(ChromaError):
    """Spectral operation on a 0-regular graph (lambda2 = 1 by convention)."""


class NoConvergence(ChromaError):
    """Iterative eigensolver hit its iteration cap."""


class ZeroVector(ChromaError):
    """Rayleigh quotient of the zero vector is undefined."""


# colorings

class BindingMismatch(ChromaError):
    """Coloring is not bound to the expected graph (or q values differ)."""


class NoGadgetMeta(ChromaError):
    """Graph lacks the gadget construction metadata the sampler needs."""


class BadTau(ChromaError):
    """Bias parameter tau outside [0, 1]."""


class BadPartSize(ChromaError):
    """Bipartition sizes incompatible with the requested coloring layout."""


class QTooLarge(ChromaError):
    """Operation enumerates all q! permutations and q exceeds its cap."""


# codes / regimes

class MixedBinding(ChromaError):
    """Code set members are bound to different graphs or use different q."""


class OutOfRange(ChromaError):
    """A parameter or vertex id outside its valid range: certificate (delta,
    lambda), graph sizes, construction parameters, edge endpoints."""


class PreconditionFail(ChromaError):
    """A measured hypothesis of a structural inequality check does not hold."""
