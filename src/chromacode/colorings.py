"""Proper q-colorings, the permutation-invariant distance, and every sampler.

A coloring is a read-only int64 array of per-vertex colors in [0, q), bound
to the ``RegularGraph`` object it colors; its ``graph_key`` is the graph's
file identity, read only when a file or a caller asks. Colors are 0-indexed
everywhere; the modular gadget rule "i+1, i+2 mod q" is applied in 0-indexed
arithmetic. Properness is not a type invariant (``is_proper`` checks it); the
samplers here guarantee it by construction, each with one array pass over the
vertices or the gadget blocks. ``distance`` picks its method from q alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import permutations
from typing import Sequence

import numpy as np

from . import graphs
from .assignment import min_cost_assignment
from .errors import BindingMismatch, ChromaError, OutOfRange, PreconditionFail, TooLarge
from .graphs import RegularGraph

ENUM_CAP = 16         # enumeration limit on n
BRUTE_Q_CAP = 8       # brute-force over q! permutations up to this q
# Above BRUTE_Q_CAP a pair's best relabeling is a Hungarian assignment in pure
# Python on weights of about n q^q, whose cost grows faster than q^3: one pair
# at n = 200 took about 0.01 s at q = 64, 0.2 s at 128 and 2.6 s at 256 (one
# core of a 2-vCPU x86 machine). This cap keeps a pair under a fifth of a
# second, and every array sized by q small.
DISTANCE_Q_CAP = 128
# the largest product block or one-hot factor block ``_distance_matrix`` holds:
# 32 MiB, a (2048, 2048) float64 product, so every exact-oracle table (q r <=
# CLIQUE_CAP = 2,000 rows of at most ENUM_CAP vertices) is one product
DISTANCE_BLOCK_BYTES = 1 << 25
# the largest table ``_proper_rows`` or ``_relabelings`` may make: 256 MiB of
# int64 colors, about two million colorings of 16 vertices
ENUM_BYTES_CAP = 1 << 28


@dataclass(frozen=True, eq=False)
class Coloring:
    """A vertex -> color map over [0, q), bound to the graph ``graph``.

    ``colors`` is a read-only int64 copy of the values given, integers, one
    per vertex; equality is by value (q, graph content and colors).
    """

    q: int
    colors: np.ndarray
    graph: RegularGraph

    def __post_init__(self):
        if self.q < 2:
            raise OutOfRange("need q >= 2")
        given = np.asarray(self.colors)
        if given.ndim != 1:
            raise PreconditionFail("colors must be a flat sequence")
        if len(given) != self.graph.n:
            raise BindingMismatch(f"{len(given)} colors for a graph on {self.graph.n} vertices")
        # Python ints beyond int64 come out as a float or object array; only
        # those go on to the cast, whose OverflowError reports them
        if given.dtype.kind not in "biu" and not all(
            isinstance(c, (int, np.integer)) for c in self.colors
        ):
            raise PreconditionFail("colors must be integers")
        try:
            colors = np.array(self.colors, dtype=np.int64)
        except OverflowError:
            raise OutOfRange("color out of range") from None
        # one pass: a negative color reads as uint64 above every q
        if colors.size and np.maximum.reduce(colors.view(np.uint64)) >= self.q:
            raise OutOfRange("color out of range")
        colors.setflags(write=False)
        object.__setattr__(self, "colors", colors)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Coloring):
            return NotImplemented
        return (
            self.q == other.q and self.graph == other.graph
            and np.array_equal(self.colors, other.colors)
        )

    def __hash__(self) -> int:
        return hash((self.q, self.graph, self.colors.tobytes()))

    @property
    def n(self) -> int:
        return len(self.colors)

    @property
    def graph_key(self) -> str:
        """The bound graph's file identity (see ``RegularGraph.graph_key``)."""
        return self.graph.graph_key

    def relabeled(self, sigma: Sequence[int]) -> "Coloring":
        """Apply a color permutation: vertex color c becomes sigma[c]. A sigma
        that is not a permutation of range(q) raises PreconditionFail."""
        if sorted(sigma) != list(range(self.q)):
            raise PreconditionFail(f"sigma is not a permutation of range({self.q})")
        return Coloring(self.q, np.asarray(sigma)[self.colors], self.graph)


def make_coloring(G: RegularGraph, q: int, colors: Sequence[int]) -> Coloring:
    return Coloring(q, colors, G)


def _check_pair(X: Coloring, Y: Coloring) -> None:
    if X.graph != Y.graph:
        raise BindingMismatch("colorings are bound to different graphs")
    if X.q != Y.q:
        raise BindingMismatch(f"colorings use different q: {X.q} vs {Y.q}")


def is_proper(G: RegularGraph, X: Coloring) -> tuple[bool, tuple[int, int] | None]:
    """True iff no edge is monochromatic; otherwise also the first violating edge."""
    if X.graph != G:
        raise BindingMismatch("coloring is bound to a different graph")
    u, v = G.edge_arrays()
    bad = np.flatnonzero(X.colors[u] == X.colors[v])
    if bad.size:
        return False, (int(u[bad[0]]), int(v[bad[0]]))
    return True, None


def _check_distance_q(q: int) -> None:
    if q > DISTANCE_Q_CAP:
        raise TooLarge(f"q={q} exceeds the distance cap {DISTANCE_Q_CAP}")


def agreement_matrix(X: Coloring, Y: Coloring) -> np.ndarray:
    """q x q counts: M[a, b] = #{v : X(v) = a, Y(v) = b}. Entries sum to n."""
    _check_pair(X, Y)
    q = X.q
    _check_distance_q(q)
    flat = np.bincount(X.colors * q + Y.colors, minlength=q * q)
    return flat.reshape(q, q)


@cache
def _all_perms(q: int) -> np.ndarray:
    """All permutations of range(q) in lexicographic order, as an array."""
    return np.array(list(permutations(range(q))), dtype=np.int64)


def _brute_max(M: np.ndarray) -> tuple[int, tuple[int, ...]]:
    """Max over all q! sigmas of sum_b M[sigma(b), b], lexicographically first."""
    q = len(M)
    P = _all_perms(q)
    agreements = M[P, np.arange(q)].sum(axis=1)
    best = int(np.argmax(agreements))
    return int(agreements[best]), tuple(P[best].tolist())


def _assignment_max(M: np.ndarray) -> tuple[int, tuple[int, ...]]:
    """The same maximum and sigma as ``_brute_max``, by a Hungarian assignment."""
    q = len(M)
    # sigma costs its value as a base-q numeral minus agreement * base; the
    # value is below q^q < base, so the least cost is the most agreement with
    # the lexicographically first sigma, and -(cost // base) is that agreement
    base = q**q + 1
    counts = M.tolist()
    cost = [[a * q ** (q - 1 - b) - counts[a][b] * base for a in range(q)] for b in range(q)]
    total, sigma = min_cost_assignment(cost)
    return -(total // base), tuple(sigma)


def _max_agreement(M: np.ndarray) -> tuple[int, tuple[int, ...]]:
    """The best agreement of a q x q agreement matrix and its sigma: brute
    force over all q! permutations for q <= BRUTE_Q_CAP, else Hungarian."""
    return (_brute_max if len(M) <= BRUTE_Q_CAP else _assignment_max)(M)


def distance(X: Coloring, Y: Coloring) -> tuple[int, tuple[int, ...]]:
    """Permutation-invariant distance min_sigma |{v : X(v) != sigma(Y(v))}|.

    Returns (distance, sigma) where sigma is the lexicographically smallest
    color permutation (applied to Y) achieving it. The maximum agreement is
    found by brute force over all q! permutations for q <= BRUTE_Q_CAP and by
    an exact Hungarian assignment above that.
    """
    agreement, sigma = _max_agreement(agreement_matrix(X, Y))
    return X.n - agreement, sigma


@lru_cache(maxsize=1)
def _gadget_base(G: RegularGraph) -> np.ndarray:
    """The base edge (x, y) of each gadget block, in block order, if
    ``gadget_expand`` built G: the u and v of the blocks are the rows n/10 + 3i,
    their least neighbors are x and y, and expanding that base must rebuild G."""
    base = G.adjacency[G.n // 10::3, 0].reshape(-1, 2) if G.d == 3 and G.n % 20 == 0 else None
    try:
        if base is not None and np.array_equal(graphs.gadget_expand(
                graphs.build_from_edges(G.n // 10, base)).adjacency, G.adjacency):
            return base
    except ChromaError:
        pass
    raise PreconditionFail("graph was not built by gadget_expand")


def sample_gadget_coloring(G: RegularGraph, q: int, seed) -> Coloring:
    """Random proper coloring of a gadget-expanded graph.

    Base vertices get i.i.d. uniform colors. On each gadget over base edge xy:
    equal base colors i give the x-side part (i+1) mod q and the y-side part
    (i+2) mod q; distinct colors i at x and j at y give the x-side part j and
    the y-side part i. Always proper for q >= 3.
    """
    base = _gadget_base(G)
    if q < 3:
        raise OutOfRange("gadget coloring needs q >= 3")
    base_n = G.n // 10
    rng = np.random.default_rng(seed)
    colors = np.empty(G.n, dtype=np.int64)
    colors[:base_n] = rng.integers(0, q, size=base_n)
    i, j = colors[base].T
    parts = colors[base_n:].reshape(-1, 2, 3)  # block k: its x-side part, its y-side part
    parts[:] = np.where(i == j, [(i + 1) % q, (i + 2) % q], [j, i]).T[:, :, None]
    return Coloring(q, colors, G)


def sample_bipartite_biased(G: RegularGraph, q: int, tau: float, seed) -> Coloring:
    """Biased random proper coloring of a bipartite graph.

    Part-0 vertices take color q-1 with probability tau, else a uniform color
    in {0, ..., floor(q/2)-1}. Part-1 vertices are forced to q-2 when some
    neighbor got q-1, else uniform in {floor(q/2), ..., q-1}. Proper by
    construction: the only color shared between the parts' ranges is q-1, and
    a part-1 vertex keeps it only when no neighbor has it.
    """
    if G.part_labels is None:
        raise PreconditionFail("biased sampler needs part labels")
    if not (0.0 <= tau <= 1.0):
        raise OutOfRange(f"tau={tau} outside [0, 1]")
    if q < 3:
        raise OutOfRange("biased sampler needs q >= 3")
    rng = np.random.default_rng(seed)
    part0, part1 = G.parts
    low = q // 2
    colors = np.empty(G.n, dtype=np.int64)
    marked = rng.random(len(part0)) < tau
    uniform0 = rng.integers(0, low, size=len(part0))
    colors[part0] = np.where(marked, q - 1, uniform0)
    uniform1 = rng.integers(low, q, size=len(part1))
    # a part-0 vertex has color q-1 only when marked (q-1 >= low), and every
    # neighbor of a part-1 vertex is in part 0
    forced = np.zeros(G.n, dtype=bool)
    forced[G.adjacency[part0[marked]]] = True
    colors[part1] = np.where(forced[part1], q - 2, uniform1)
    return Coloring(q, colors, G)


def layered_bipartite_pair(G: RegularGraph, q: int) -> tuple[Coloring, Coloring]:
    """The two block colorings whose distance is (1 - 1/(q-1)) |V|.

    X: part 0 all color 0, part 1 in equal blocks of colors 1..q-1.
    Y: part 1 all color q-1, part 0 in equal blocks of colors 0..q-2.
    Parts must both have size (q-1) * m.
    """
    if G.part_labels is None:
        raise PreconditionFail("layered pair needs part labels")
    if q < 3:
        raise OutOfRange("layered pair needs q >= 3")
    part0, part1 = G.parts
    if len(part0) != len(part1) or len(part0) % (q - 1) != 0 or not len(part0):
        raise PreconditionFail(
            f"parts of {len(part0)} and {len(part1)} are not both (q-1)*m for q={q}"
        )
    m = len(part0) // (q - 1)
    blocks = np.arange(len(part0)) // m  # rank within the part -> block 0..q-2
    x = np.zeros(G.n, dtype=np.int64)
    y = np.zeros(G.n, dtype=np.int64)
    x[part1] = 1 + blocks
    y[part1] = q - 1
    y[part0] = blocks
    return Coloring(q, x, G), Coloring(q, y, G)


def coordinate_colorings(q: int, N: int, G: RegularGraph) -> list[Coloring]:
    """The N coordinate colorings of K_q^N, pulled to G if G is an iterated
    2-lift of it (a lift puts v and v + n over v): X_i(v) is digit i, most
    significant first, of v mod q^N in base q. G is checked, not trusted: q^N
    must divide n and every X_i be proper on G, else BindingMismatch."""
    if q < 2 or N < 1:
        raise OutOfRange(f"coordinate colorings need q >= 2 and N >= 1, got q={q}, N={N}")
    not_lift = f"graph is not K_{q}^{N} or an iterated 2-lift of it"
    if N > G.n.bit_length() or G.n % q**N:  # q^N >= 2^N > n there, so it is not computed
        raise BindingMismatch(f"{not_lift}: n={G.n} is not a multiple of {q}^{N}")
    rows = np.arange(G.n) % q**N // q ** np.arange(N - 1, -1, -1)[:, None] % q
    u, v = G.edge_arrays()
    same = rows[:, u] == rows[:, v]
    if same.any():
        i, e = np.unravel_index(same.argmax(), same.shape)
        raise BindingMismatch(f"{not_lift}: edge ({u[e]}, {v[e]}) has one color in coordinate {i}")
    return [Coloring(q, row, G) for row in rows]


def _check_enumerable(G: RegularGraph, q: int) -> None:
    """The caps every enumeration of G's proper q-colorings is held to."""
    if q < 2:
        raise OutOfRange("need q >= 2")
    if G.n > ENUM_CAP:
        raise TooLarge(f"n={G.n} exceeds enumeration cap {ENUM_CAP}")


def _proper_rows(G: RegularGraph, q: int) -> np.ndarray:
    """The canonical proper q-colorings of G, those whose colors first appear
    in the order 0, 1, 2, ... (one per relabeling orbit), as the rows of an
    (r, n) int64 array in lexicographic order.

    Level v holds every canonical proper coloring of vertices 0..v-1, and
    each row is extended by every color up to its running maximum + 1 that no
    lower neighbor of v has. A row uses at most n colors, so the palette is
    min(q, n) wide.
    """
    _check_enumerable(G, q)
    rows = np.zeros((1, 0), dtype=np.int64)
    running_max = np.full(1, -1, dtype=np.int64)
    palette = np.arange(min(q, G.n))
    for v, nbrs in enumerate(G.adjacency):
        allowed = palette <= running_max[:, None] + 1
        for u in nbrs[nbrs < v]:
            allowed &= rows[:, u, None] != palette
        parent, color = np.nonzero(allowed)  # row-major: parents in order, colors ascending
        if 8 * len(parent) * (v + 1) > ENUM_BYTES_CAP:
            raise TooLarge(
                f"{len(parent)} partial colorings of {v + 1} vertices take "
                f"{8 * len(parent) * (v + 1)} bytes, above the cap {ENUM_BYTES_CAP}"
            )
        rows = np.column_stack([rows[parent], color])
        running_max = np.maximum(running_max[parent], color)
    return rows


def _orbit_sizes(rows: np.ndarray, q: int) -> list[int]:
    """sizes[c]: the colorings that the canonical rows using c colors stand
    for, q!/(q-c)! per row."""
    used = np.bincount(rows.max(axis=1) + 1)
    return [math.perm(q, c) * count for c, count in enumerate(used.tolist())]


def _relabelings(rows: np.ndarray, q: int) -> np.ndarray:
    """Every relabeling of the canonical rows, as the rows of a (k, n) int64
    array in lexicographic order: each row using c colors under every
    injection of 0..c-1 into range(q), so every proper coloring once.

    A coloring is sorted by its key, the base-q numeral of its colors. Under
    injection s the key of row i is sum_j s[j] * W[i, j], where W[i, j] sums
    q^(n-1-v) over the vertices v of row i that have color j.
    """
    sizes = _orbit_sizes(rows, q)
    k, n = sum(sizes), rows.shape[1]
    # the keys lie below q^n, and k <= q^n of them take 8 bytes each
    if k and 8 * q**n >= 2**63:
        raise TooLarge(f"a list of up to q^n = {q}^{n} colorings cannot be held")
    if 8 * k * n > ENUM_BYTES_CAP:
        raise TooLarge(
            f"a list of {k} colorings of {n} vertices takes {8 * k * n} bytes, "
            f"above the cap {ENUM_BYTES_CAP}"
        )
    keys = np.empty(k, dtype=np.int64)
    place = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    used = rows.max(axis=1) + 1
    injections = np.zeros((1, 0), dtype=np.int64)  # of 0..c-1, one row each
    start = 0
    for c, size in enumerate(sizes):
        if c:  # extend each injection by every value it does not take yet
            free = np.ones((len(injections), q), dtype=bool)
            free[np.arange(len(injections))[:, None], injections] = False
            parent, image = np.nonzero(free)
            injections = np.column_stack([injections[parent], image])
        if size:
            group = rows[used == c]
            W = ((group[:, :, None] == np.arange(c)) * place[:, None]).sum(axis=1)
            np.matmul(injections, W.T, out=keys[start:start + size].reshape(-1, len(group)))
            start += size
    keys.sort()
    digits = keys[:, None] // place
    digits %= q
    return digits


def _agreement_counts(left: np.ndarray, right: np.ndarray | None, q: int, w: int) -> np.ndarray:
    """counts[a, i, b, j] = #{v : left[i, v] = a, right[j, v] = b} for two
    color arrays of n columns (``right`` None: left against itself).

    One float64 product per chunk of w vertices, of the color-major one-hot
    rows with a contiguous copy of the other side's transpose (a transposed
    view would send the product to a slower symmetric kernel); the chunks'
    counts add up exactly, as every sum is an integer at most n < 2^53.
    """
    counts = None
    for c in range(0, max(left.shape[1], 1), w):
        F = _onehot(left[:, c:c + w], q)
        part = F @ np.ascontiguousarray((F if right is None else _onehot(right[:, c:c + w], q)).T)
        if counts is None:
            counts = part
        else:
            counts += part
    return counts.reshape(q, len(left), q, len(left if right is None else right))


def _onehot(rows: np.ndarray, q: int) -> np.ndarray:
    """Row a * r + i marks, as 1.0, the columns where row i of an (r, w)
    color array has color a."""
    r, w = rows.shape
    return (rows == np.arange(q)[:, None, None]).reshape(q * r, w).astype(np.float64)


def _distance_matrix(rows: np.ndarray, q: int) -> np.ndarray:
    """(r, r) exact permutation-invariant distances between the colorings in
    the rows of an (r, n) array: entry (i, j) equals ``distance`` of rows i, j.
    The package's one all-pairs distance routine.

    The q x q agreement counts of every pair come from ``_agreement_counts``
    on blocks of b colorings against b colorings and chunks of w vertices,
    sized so that no product block nor one-hot factor block holds more than
    DISTANCE_BLOCK_BYTES; every table of the exact oracle is one block. With
    at least q! pairs (and q <= BRUTE_Q_CAP) the best agreement is a running
    maximum over all q! sigmas, for all pairs of a block at once; otherwise
    each pair's counts go to ``_max_agreement``, the rule ``distance`` uses.
    """
    r, n = rows.shape
    _check_distance_q(q)
    b = min(r, max(1, math.isqrt(DISTANCE_BLOCK_BYTES // 8) // q))
    w = max(1, min(n, DISTANCE_BLOCK_BYTES // (8 * q * b)))
    per_pair = q > BRUTE_Q_CAP or math.factorial(q) > r * (r - 1) // 2
    best = np.full((r, r), n, dtype=np.int64)  # a coloring agrees with itself everywhere
    for i in range(0, r, b):
        for j in range(i, r, b):
            left, right = rows[i:i + b], rows[j:j + b]
            counts = _agreement_counts(left, None if i == j else right, q, w)
            if per_pair:
                for s in range(len(left)):
                    for t in range(max(0, i + s + 1 - j), len(right)):
                        # the Hungarian rule's weights must be exact ints
                        M = counts[:, s, :, t].astype(np.int64)
                        best[i + s, j + t] = best[j + t, i + s] = _max_agreement(M)[0]
                continue
            block = np.zeros((len(left), len(right)))
            for sigma in _all_perms(q):  # each pair's agreement: the sum over b of [sigma[b], :, b, :]
                np.maximum(block, counts[sigma, :, range(q)].sum(axis=0), out=block)
            best[i:i + b, j:j + b] = block
            best[j:j + b, i:i + b] = block.T
    return n - best


def enumerate_proper(G: RegularGraph, q: int) -> list[Coloring]:
    """All proper q-colorings as functions (not up to symmetry), lexicographic:
    the relabelings of the canonical rows."""
    return [Coloring(q, row, G) for row in _relabelings(_proper_rows(G, q), q)]
