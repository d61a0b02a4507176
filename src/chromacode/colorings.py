"""Proper q-colorings, the permutation-invariant distance, and every sampler.

A coloring is a read-only int64 array of per-vertex colors in [0, q), bound
to a specific graph via the graph's content hash. Colors are 0-indexed
everywhere; the modular gadget rule "i+1, i+2 mod q" is applied in 0-indexed
arithmetic. Properness is not a type invariant (``is_proper`` checks it); the
samplers here guarantee it by construction, each with one array pass over the
vertices or the gadget table. ``distance`` picks its method from q alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import permutations
from typing import Sequence

import numpy as np

from .assignment import max_weight_assignment
from .errors import BindingMismatch, OutOfRange, PreconditionFail, TooLarge
from .graphs import RegularGraph

ENUM_CAP = 16         # enumeration limit on n
BRUTE_Q_CAP = 8       # brute-force over q! permutations up to this q


@dataclass(frozen=True, eq=False)
class Coloring:
    """A vertex -> color map over [0, q), bound to one graph.

    ``colors`` is a read-only int64 copy of the values given, which must be
    integers; equality is by value (q, graph key and colors).
    """

    q: int
    colors: np.ndarray
    graph_key: str

    def __post_init__(self):
        if self.q < 2:
            raise OutOfRange("need q >= 2")
        given = np.asarray(self.colors)
        if given.ndim != 1:
            raise PreconditionFail("colors must be a flat sequence")
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
            (self.q, self.graph_key) == (other.q, other.graph_key)
            and np.array_equal(self.colors, other.colors)
        )

    def __hash__(self) -> int:
        return hash((self.q, self.graph_key, self.colors.tobytes()))

    @property
    def n(self) -> int:
        return len(self.colors)

    def relabeled(self, sigma: Sequence[int]) -> "Coloring":
        """Apply a color permutation: vertex color c becomes sigma[c]."""
        return Coloring(self.q, np.asarray(sigma)[self.colors], self.graph_key)


def make_coloring(G: RegularGraph, q: int, colors: Sequence[int]) -> Coloring:
    if len(colors) != G.n:
        raise BindingMismatch(f"{len(colors)} colors for a graph on {G.n} vertices")
    return Coloring(q, colors, G.graph_key)


def _check_bound(G: RegularGraph, X: Coloring) -> None:
    if X.graph_key != G.graph_key or X.n != G.n:
        raise BindingMismatch("coloring is bound to a different graph")


def _check_pair(X: Coloring, Y: Coloring) -> None:
    if X.graph_key != Y.graph_key or X.n != Y.n:
        raise BindingMismatch("colorings are bound to different graphs")
    if X.q != Y.q:
        raise BindingMismatch(f"colorings use different q: {X.q} vs {Y.q}")


def is_proper(G: RegularGraph, X: Coloring) -> tuple[bool, tuple[int, int] | None]:
    """True iff no edge is monochromatic; otherwise also the first violating edge."""
    _check_bound(G, X)
    u, v = G.edge_arrays()
    bad = np.flatnonzero(X.colors[u] == X.colors[v])
    if bad.size:
        return False, (int(u[bad[0]]), int(v[bad[0]]))
    return True, None


def agreement_matrix(X: Coloring, Y: Coloring) -> np.ndarray:
    """q x q counts: M[a, b] = #{v : X(v) = a, Y(v) = b}. Entries sum to n."""
    _check_pair(X, Y)
    q = X.q
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
    # Encode the lexicographic tie-break directly in the weights:
    # maximize agreement * BASE - (value of sigma as a base-q numeral).
    base = q**q + 1
    counts = M.tolist()
    weight = [
        [counts[a][b] * base - a * q ** (q - 1 - b) for a in range(q)]
        for b in range(q)
    ]
    _, row_to_col = max_weight_assignment(weight)
    sigma = tuple(row_to_col)
    return sum(counts[sigma[b]][b] for b in range(q)), sigma


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


def sample_gadget_coloring(G: RegularGraph, q: int, seed) -> Coloring:
    """Random proper coloring of a gadget-expanded graph.

    Base vertices get i.i.d. uniform colors. On each gadget over base edge xy:
    equal base colors i give the x-side part (i+1) mod q and the y-side part
    (i+2) mod q; distinct colors i at x and j at y give the x-side part j and
    the y-side part i. Always proper for q >= 3.
    """
    meta = G.meta or {}
    if meta.get("kind") != "gadget" or not {"base_n", "gadgets"} <= meta.keys():
        raise PreconditionFail("graph was not built by gadget_expand (no gadget meta)")
    if q < 3:
        raise OutOfRange("gadget coloring needs q >= 3")
    base_n = meta["base_n"]
    if type(base_n) is not int or not 0 <= base_n <= G.n:
        raise PreconditionFail(f"gadget meta base_n={base_n!r} is not a vertex count")
    # one row per gadget: x, y, the x-side part, the y-side part
    try:
        table = np.array([(x, y, *xpart, *ypart) for x, y, xpart, ypart in meta["gadgets"]])
    except (TypeError, ValueError):
        table = None
    if (table is None or table.dtype.kind != "i" or table.shape[1:] != (8,)
            or table.min(initial=0) < 0 or table.max(initial=0) >= G.n):
        raise PreconditionFail("gadget table needs rows of 8 vertex ids in [0, n)")
    rng = np.random.default_rng(seed)
    colors = np.empty(G.n, dtype=np.int64)
    colors[:base_n] = rng.integers(0, q, size=base_n)
    i, j = colors[table[:, 0]], colors[table[:, 1]]
    equal = i == j
    colors[table[:, 2:5]] = np.where(equal, (i + 1) % q, j)[:, None]
    colors[table[:, 5:8]] = np.where(equal, (i + 2) % q, i)[:, None]
    return Coloring(q, colors, G.graph_key)


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
    return Coloring(q, colors, G.graph_key)


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
    return Coloring(q, x, G.graph_key), Coloring(q, y, G.graph_key)


def coordinate_colorings(q: int, N: int, G: RegularGraph) -> list[Coloring]:
    """The N coordinate colorings X_i(a_1..a_N) = a_i of G = tensor_power(q, N)."""
    meta = G.meta or {}
    if meta.get("kind") != "tensor" or meta.get("q") != q or meta.get("N") != N:
        raise BindingMismatch("graph is not tensor_power(q, N)")
    vertices = np.arange(G.n)
    return [Coloring(q, (vertices // q ** (N - 1 - i)) % q, G.graph_key) for i in range(N)]


def lift_coloring(X: Coloring, lifted: RegularGraph) -> Coloring:
    """Pull a coloring through a 2-lift: both copies of v inherit X(v)."""
    meta = lifted.meta or {}
    if meta.get("kind") != "two_lift" or meta.get("base_key") != X.graph_key:
        raise BindingMismatch("graph is not a 2-lift of the coloring's graph")
    return Coloring(X.q, np.concatenate([X.colors, X.colors]), lifted.graph_key)


def _check_enumerable(G: RegularGraph, q: int) -> None:
    """The caps every enumeration of G's proper q-colorings is held to."""
    if q < 2:
        raise OutOfRange("need q >= 2")
    if G.n > ENUM_CAP:
        raise TooLarge(f"n={G.n} exceeds enumeration cap {ENUM_CAP}")


def _proper_rows(G: RegularGraph, q: int, canonical: bool = False) -> np.ndarray:
    """The proper q-colorings of G as the rows of an (r, n) int64 array, in
    lexicographic order; with ``canonical``, only those whose colors first
    appear in the order 0, 1, 2, ... (one per relabeling orbit).

    Level v holds every proper coloring of vertices 0..v-1 (in order), and
    each row is extended by every color that no lower neighbor of v has, so a
    level's rows are exactly the nodes a backtracking search visits at depth v.
    """
    _check_enumerable(G, q)
    rows = np.zeros((1, 0), dtype=np.int64)
    running_max = np.full(1, -1, dtype=np.int64)
    palette = np.arange(q)
    for v, nbrs in enumerate(G.adjacency):
        allowed = np.ones((len(rows), q), dtype=bool)
        for u in nbrs[nbrs < v]:
            allowed &= rows[:, u, None] != palette
        if canonical:
            allowed &= palette <= running_max[:, None] + 1
        parent, color = np.nonzero(allowed)  # row-major: parents in order, colors ascending
        rows = np.column_stack([rows[parent], color])
        running_max = np.maximum(running_max[parent], color)
    return rows


def _distance_matrix(rows: np.ndarray, q: int) -> np.ndarray:
    """(r, r) exact permutation-invariant distances between the colorings in
    the rows of an (r, n) array: entry (i, j) equals ``distance`` of rows i, j.

    With at least q! pairs (and q <= BRUTE_Q_CAP), one integer product of
    the 0/1 one-hot rows against their relabeled copy counts the agreements
    of every pair for one sigma, and the running maximum over all q! sigmas
    is the best agreement. With fewer pairs than sigmas, each pair is solved
    on its own, by the method ``distance`` picks.
    """
    r, n = rows.shape
    if q > BRUTE_Q_CAP or math.factorial(q) > r * (r - 1) // 2:
        best = np.full((r, r), n, dtype=np.int64)
        for i in range(r):
            for j in range(i + 1, r):
                M = np.bincount(rows[i] * q + rows[j], minlength=q * q).reshape(q, q)
                best[i, j] = best[j, i] = _max_agreement(M)[0]
        return n - best
    onehot = (rows[:, :, None] == np.arange(q)).astype(np.int64)  # (r, n, q)
    flat = onehot.reshape(r, n * q)
    best = np.zeros((r, r), dtype=np.int64)
    # sigma and its inverse range over the same set, so permuting the one-hot
    # columns by sigma covers every relabeling
    for sigma in _all_perms(q):
        np.maximum(best, flat @ onehot[:, :, sigma].reshape(r, n * q).T, out=best)
    return n - best


def enumerate_proper(G: RegularGraph, q: int) -> list[Coloring]:
    """All proper q-colorings as functions (not up to symmetry), lexicographic."""
    return [Coloring(q, row, G.graph_key) for row in _proper_rows(G, q)]
