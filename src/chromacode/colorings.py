"""Proper q-colorings, the permutation-invariant distance, and every sampler.

A coloring is a read-only int64 array of per-vertex colors in [0, q), bound
to a specific graph via the graph's content hash. Colors are 0-indexed
everywhere; the modular gadget rule "i+1, i+2 mod q" is applied in 0-indexed
arithmetic. Properness is not a type invariant (``is_proper`` checks it); the
samplers here guarantee it by construction, each with one array pass over the
vertices or the gadget table. ``distance`` picks its method from q alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import permutations
from typing import Sequence

import numpy as np

from .assignment import max_weight_assignment
from .errors import (
    BadPartSize,
    BadTau,
    BindingMismatch,
    NoGadgetMeta,
    NotBipartite,
    TooLarge,
)
from .graphs import RegularGraph, tensor_power

ENUM_CAP = 16         # backtracking enumeration limit on n
BRUTE_Q_CAP = 8       # brute-force over q! permutations up to this q


@dataclass(frozen=True, eq=False)
class Coloring:
    """A vertex -> color map over [0, q), bound to one graph.

    ``colors`` is a read-only int64 copy of the values given; equality is by
    value (q, graph key and colors).
    """

    q: int
    colors: np.ndarray
    graph_key: str

    def __post_init__(self):
        if self.q < 2:
            raise ValueError("need q >= 2")
        try:
            colors = np.array(self.colors, dtype=np.int64)
        except OverflowError:
            raise ValueError("color out of range") from None
        if colors.ndim != 1:
            raise ValueError("colors must be a flat sequence")
        if colors.size and (colors.min() < 0 or colors.max() >= self.q):
            raise ValueError("color out of range")
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


def distance(X: Coloring, Y: Coloring) -> tuple[int, tuple[int, ...]]:
    """Permutation-invariant distance min_sigma |{v : X(v) != sigma(Y(v))}|.

    Returns (distance, sigma) where sigma is the lexicographically smallest
    color permutation (applied to Y) achieving it. The maximum agreement is
    found by brute force over all q! permutations for q <= BRUTE_Q_CAP and by
    an exact Hungarian assignment above that.
    """
    M = agreement_matrix(X, Y)
    solve = _brute_max if X.q <= BRUTE_Q_CAP else _assignment_max
    agreement, sigma = solve(M)
    return X.n - agreement, sigma


def sample_gadget_coloring(G: RegularGraph, q: int, seed) -> Coloring:
    """Random proper coloring of a gadget-expanded graph.

    Base vertices get i.i.d. uniform colors. On each gadget over base edge xy:
    equal base colors i give the x-side part (i+1) mod q and the y-side part
    (i+2) mod q; distinct colors i at x and j at y give the x-side part j and
    the y-side part i. Always proper for q >= 3.
    """
    if G.meta is None or G.meta.get("kind") != "gadget":
        raise NoGadgetMeta("graph was not built by gadget_expand (no gadget meta)")
    if q < 3:
        raise ValueError("gadget coloring needs q >= 3")
    rng = np.random.default_rng(seed)
    base_n = G.meta["base_n"]
    colors = np.empty(G.n, dtype=np.int64)
    colors[:base_n] = rng.integers(0, q, size=base_n)
    # one row per gadget: x, y, the x-side part, the y-side part
    table = np.array([(x, y, *xpart, *ypart) for x, y, xpart, ypart in G.meta["gadgets"]])
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
        raise NotBipartite("biased sampler needs part labels")
    if not (0.0 <= tau <= 1.0):
        raise BadTau(f"tau={tau} outside [0, 1]")
    if q < 3:
        raise ValueError("biased sampler needs q >= 3")
    rng = np.random.default_rng(seed)
    part0 = np.flatnonzero(G.part_labels == 0)
    part1 = np.flatnonzero(G.part_labels == 1)
    low = q // 2
    colors = np.empty(G.n, dtype=np.int64)
    marked = rng.random(len(part0)) < tau
    uniform0 = rng.integers(0, low, size=len(part0))
    colors[part0] = np.where(marked, q - 1, uniform0)
    uniform1 = rng.integers(low, q, size=len(part1))
    # every neighbor of a part-1 vertex is in part 0, colored above
    forced = (colors[G.adjacency[part1]] == q - 1).any(axis=1)
    colors[part1] = np.where(forced, q - 2, uniform1)
    return Coloring(q, colors, G.graph_key)


def layered_bipartite_pair(G: RegularGraph, q: int) -> tuple[Coloring, Coloring]:
    """The two block colorings whose distance is (1 - 1/(q-1)) |V|.

    X: part 0 all color 0, part 1 in equal blocks of colors 1..q-1.
    Y: part 1 all color q-1, part 0 in equal blocks of colors 0..q-2.
    Parts must both have size (q-1) * m.
    """
    if G.part_labels is None:
        raise NotBipartite("layered pair needs part labels")
    if q < 3:
        raise ValueError("layered pair needs q >= 3")
    part0 = np.flatnonzero(G.part_labels == 0)
    part1 = np.flatnonzero(G.part_labels == 1)
    if len(part0) != len(part1) or len(part0) % (q - 1) != 0 or not len(part0):
        raise BadPartSize(
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


def coordinate_colorings(
    q: int, N: int, G: RegularGraph | None = None
) -> list[Coloring]:
    """The N coordinate colorings X_i(a_1..a_N) = a_i of the tensor power graph."""
    if G is None:
        G = tensor_power(q, N)
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


def enumerate_proper(G: RegularGraph, q: int) -> list[Coloring]:
    """All proper q-colorings as functions (not up to symmetry), lexicographic.

    Backtracking over vertices in id order, pruning on already-colored
    neighbors.
    """
    if G.n > ENUM_CAP:
        raise TooLarge(f"n={G.n} exceeds enumeration cap {ENUM_CAP}")
    lower_nbrs = [[u for u in row if u < v] for v, row in enumerate(G.adjacency.tolist())]
    out: list[Coloring] = []
    assigned = [0] * G.n

    def backtrack(v: int) -> None:
        if v == G.n:
            out.append(Coloring(q, assigned, G.graph_key))
            return
        blocked = {assigned[u] for u in lower_nbrs[v]}
        for c in range(q):
            if c not in blocked:
                assigned[v] = c
                backtrack(v + 1)

    backtrack(0)
    return out
