"""The package's error contract: seven kinds of exception a caller can act on.

Every refusal of bad input, by the library or the CLI, raises one of these;
the message names the offending value, edge, vertex, line or field. The CLI
maps them (and an OSError) to exit 2. Any other exception is a bug and
surfaces as a traceback.

- ``ChromaError``: the base of the other six; raised itself for usage and
  config errors (a missing or misplaced flag, an unknown key or kind, a
  value of the wrong type).
- ``OutOfRange``: a number outside its valid range: a size, degree, q, color,
  part label, vertex id, tau, or a (delta, lambda) point.
- ``PreconditionFail``: an input lacks a structure the operation needs:
  regular, simple (no self-loop or repeated edge), cubic, bipartite,
  connected, nonzero degree, gadget layout, part sizes, a square matrix, a
  non-empty code set.
- ``TooLarge``: an input above the cap of an exhaustive or dense computation.
- ``MalformedFile``: a graph, signing, coloring, sidecar or config file that
  does not parse; the message names the path, line or field.
- ``BindingMismatch``: objects that must belong together do not: a coloring,
  signing or sidecar and its graph (also a graph on which the coordinate
  colorings of K_q^N are not proper), or two colorings' q.
- ``NoConvergence``: the Lanczos iteration of ``spectral.lambda2`` ran out
  of its step budget.
"""


class ChromaError(Exception):
    """Base of every package error; also usage and config errors."""


class OutOfRange(ChromaError):
    """A parameter, color, label or vertex id outside its valid range."""


class PreconditionFail(ChromaError):
    """An input lacks a structural property the operation needs."""


class TooLarge(ChromaError):
    """Input exceeds the cap of an exhaustive or dense computation."""


class MalformedFile(ChromaError):
    """An input file does not parse (code sets are only written, never read);
    the message names the path, line or field."""


class BindingMismatch(ChromaError):
    """Objects bound to different graphs, q values or edge counts."""


class NoConvergence(ChromaError):
    """The Lanczos iteration exhausted its step budget."""
