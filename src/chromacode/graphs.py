"""Construction and exact measurement of regular graphs.

Graphs are immutable once built: vertex count n, uniform degree d, and the
(n, d) int64 array of neighbors with each row sorted, read-only like the
optional array of part labels. Bipartite constructions carry part labels
(every edge must cross). A graph is only this content: what a construction
was built from is not kept, and code that needs a structure (a tensor power,
a gadget expansion, a 2-lift) checks it against the adjacency. In memory a
graph is its own identity (equality and ``hash`` read the arrays); the sha256
``graph_key`` names it in files and is computed on first read.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import BindingMismatch, OutOfRange, PreconditionFail, TooLarge

EXPANSION_CAP = 24       # exhaustive edge-expansion limit (2^(n-1) subsets)
TENSOR_SIZE_CAP = 4096   # vertex cap for tensor powers
# adjacency entries n (q-1)^N a tensor power may list: its one broadcast holds
# n (q-1)^N N int64 digits, at most about 26 MB under both caps (K_6^4)
TENSOR_WORK_CAP = 1 << 20
# adjacency entries n d that cycle_graph or random_regular_bipartite may build,
# counting one per vertex at d = 0 (their per-vertex arrays): above the
# 3 * 10^6 of a cubic graph on 10^6 vertices
GRAPH_ENTRIES_CAP = 1 << 23
SEARCH_MAX_PASSES = 200  # greedy flip passes per signing-search restart
PERM_REDRAWS = 20        # whole redraws of a colliding permutation before repair
FLIP_BATCH_BYTES = 1 << 20  # flipped signed matrices held at once by the signing search


def _frozen(values, shape) -> np.ndarray:
    """A read-only int64 copy of ``values`` in the given shape."""
    arr = np.array(values, dtype=np.int64).reshape(shape)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class RegularGraph:
    """Simple d-regular graph: ``adjacency`` is the (n, d) neighbor array, rows sorted.

    ``part_labels`` tags a bipartition when the graph was built bipartite.
    Equality, ``hash`` and ``graph_key`` cover these four fields and nothing else.
    """

    n: int
    d: int
    adjacency: np.ndarray = field(repr=False)
    part_labels: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "adjacency", _frozen(self.adjacency, (self.n, self.d)))
        if self.part_labels is not None:
            object.__setattr__(self, "part_labels", _frozen(self.part_labels, (self.n,)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, RegularGraph):
            return NotImplemented
        return other is self or (
            (self.n, self.d) == (other.n, other.d)
            and np.array_equal(self.adjacency, other.adjacency)
            and np.array_equal(self.part_labels, other.part_labels)  # None only equals None
        )

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        labels = None if self.part_labels is None else self.part_labels.tobytes()
        return hash((self.n, self.d, self.adjacency.tobytes(), labels))

    @cached_property
    def graph_key(self) -> str:
        """File identity: sha256 of n, d, part labels and the decimal edge list."""
        import hashlib  # here, not at import: it maps OpenSSL, which only files need
        h = hashlib.sha256(f"{self.n}|{self.d}|".encode())
        if self.part_labels is not None:
            h.update(",".join(map(str, self.part_labels.tolist())).encode())
        h.update(b"|")
        # the bytes of "".join(f"{u},{v};" for u, v in self.edges()), formatted
        # 1,024 edges at a time: one format over every edge would hold a Python
        # int per endpoint at once
        edges = np.column_stack(self.edge_arrays())
        for i in range(0, len(edges), 1024):
            part = edges[i:i + 1024]
            h.update(("%d,%d;" * len(part) % tuple(part.ravel().tolist())).encode())
        return h.hexdigest()[:16]

    @cached_property
    def parts(self) -> tuple[np.ndarray, np.ndarray]:
        """The vertices labelled part 0 and part 1, ascending (needs part labels)."""
        return tuple(_frozen(np.flatnonzero(self.part_labels == p), -1) for p in (0, 1))

    @property
    def m(self) -> int:
        """Number of edges."""
        return self.n * self.d // 2

    def edges(self) -> tuple[tuple[int, int], ...]:
        """Canonical edge list: pairs (u, v) with u < v, sorted."""
        u, v = self.edge_arrays()
        return tuple(zip(u.tolist(), v.tolist()))

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The canonical edges as two int arrays of endpoints u < v."""
        rows = np.repeat(np.arange(self.n), self.d)
        cols = self.adjacency.ravel()
        upper = rows < cols
        return rows[upper], cols[upper]


@dataclass(frozen=True)
class VertexSubsetMeasures:
    """Normalized subset measures: w(A) = |A|/n, e(A) = |E(A)|/m, e(A,B) = |E(A,B)|/m.

    Raw integer counts are kept alongside the fractions so callers can do
    exact arithmetic.
    """

    w: float
    e_within: float
    e_cross: float
    size: int
    inner_edges: int
    cross_edges: int


def build_from_edges(
    n: int, edges: Iterable[Sequence[int]], part_labels: Sequence[int] | None = None
) -> RegularGraph:
    """Validate an edge list and return the graph; degree is inferred.

    Raises OutOfRange for an endpoint outside [0, n) and PreconditionFail for
    a self-loop, a repeated edge or unequal degrees (the first bad edge in list
    order is named). Part labels must be 0 or 1 (OutOfRange names the first
    vertex that is not), and every edge must cross parts (PreconditionFail).
    """
    if n < 1:
        raise OutOfRange(f"need at least one vertex, got n={n}")
    pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64)
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise PreconditionFail("edges must be pairs of vertices")
    u, v = pairs[:, 0], pairs[:, 1]
    outside = (u < 0) | (u >= n) | (v < 0) | (v >= n)
    loop = u == v
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    keys = lo * n + hi
    order = np.argsort(keys, kind="stable")
    repeat = np.zeros(len(keys), dtype=bool)
    repeat[order[1:]] = keys[order[1:]] == keys[order[:-1]]
    bad = np.flatnonzero(outside | loop | repeat)
    if bad.size:
        i = bad[0]
        if outside[i]:
            raise OutOfRange(f"edge ({u[i]},{v[i]}) out of range for n={n}")
        if loop[i]:
            raise PreconditionFail(f"self-loop at vertex {u[i]}")
        raise PreconditionFail(f"edge {(int(lo[i]), int(hi[i]))} listed twice")
    ends = np.concatenate([u, v])
    degree = np.bincount(ends, minlength=n)
    if (degree != degree[0]).any():
        bad_v = int(np.flatnonzero(degree != degree[0])[0])
        raise PreconditionFail(
            f"vertex 0 has degree {degree[0]} but vertex {bad_v} has {degree[bad_v]}"
        )
    labels = None
    if part_labels is not None:
        labels = np.array(part_labels, dtype=np.int64)
        if labels.shape != (n,):
            raise PreconditionFail("part_labels length must equal n")
        stray = np.flatnonzero((labels != 0) & (labels != 1))
        if stray.size:
            i = stray[0]
            raise OutOfRange(f"vertex {i} has part label {labels[i]}, not 0 or 1")
        inside = np.flatnonzero(labels[u] == labels[v])
        if inside.size:
            i = inside[0]
            raise PreconditionFail(
                f"edge ({lo[i]},{hi[i]}) stays inside part {labels[u[i]]}"
            )
    others = np.concatenate([v, u])
    by_vertex = np.lexsort((others, ends))
    return RegularGraph(n, int(degree[0]), others[by_vertex], labels)


def complete_graph(q: int) -> RegularGraph:
    """K_q, (q-1)-regular: ``tensor_power(q, 1)``, under its caps (q <= 1024)."""
    if q < 2:
        raise OutOfRange("complete graph needs q >= 2")
    return tensor_power(q, 1)


def _check_entries(n: int, d: int) -> None:
    """Refuse n vertices of degree d above GRAPH_ENTRIES_CAP with TooLarge,
    before any array is allocated."""
    if n * max(d, 1) > GRAPH_ENTRIES_CAP:
        raise TooLarge(
            f"{n} vertices of degree {d} exceed the cap of {GRAPH_ENTRIES_CAP} adjacency entries"
        )


def cycle_graph(n: int) -> RegularGraph:
    """C_n, 2-regular. n=2 fails with PreconditionFail (parallel edges), and
    more than GRAPH_ENTRIES_CAP / 2 vertices with TooLarge."""
    if n < 1:
        raise OutOfRange("cycle needs n >= 1")
    _check_entries(n, 2)
    u = np.arange(n)
    return build_from_edges(n, np.column_stack([u, (u + 1) % n]))


def tensor_power(q: int, N: int) -> RegularGraph:
    """Graph on q-ary N-tuples, adjacent iff the tuples differ in every coordinate.

    Vertex id encodes the tuple in base q, most significant digit first, so
    digit i of a vertex id is coordinate i. The result is (q-1)^N-regular:
    u's neighbors are u's digits plus each offset in [1, q)^N, mod q digit
    by digit, found for every vertex in one broadcast of n (q-1)^N N int64.
    TooLarge refuses more than TENSOR_SIZE_CAP vertices or TENSOR_WORK_CAP
    adjacency entries before that broadcast is made.
    """
    if q < 2 or N < 1:
        raise OutOfRange("tensor power needs q >= 2 and N >= 1")
    # q >= 2, so q or N alone can exceed the cap before q^N is computed
    if q > TENSOR_SIZE_CAP or N >= TENSOR_SIZE_CAP.bit_length():
        raise TooLarge(f"q^N = {q}^{N} exceeds cap {TENSOR_SIZE_CAP}")
    n = q**N
    if n > TENSOR_SIZE_CAP:
        raise TooLarge(f"q^N = {n} exceeds cap {TENSOR_SIZE_CAP}")
    if n * (q - 1) ** N > TENSOR_WORK_CAP:
        raise TooLarge(
            f"{q}^{N} vertices of degree {(q - 1) ** N} make {n * (q - 1) ** N} "
            f"adjacency entries, above the cap {TENSOR_WORK_CAP}"
        )
    place = np.arange(N - 1, -1, -1)
    digits = np.arange(n)[:, None] // q**place % q
    offsets = np.arange((q - 1) ** N)[:, None] // (q - 1) ** place % (q - 1) + 1
    nbrs = (digits[:, None, :] + offsets) % q @ q**place  # (n, (q-1)^N)
    u, j = np.nonzero(nbrs > np.arange(n)[:, None])
    return build_from_edges(n, np.column_stack([u, nbrs[u, j]]))


def gadget_expand(H: RegularGraph) -> RegularGraph:
    """Replace every edge of a cubic graph with a K_{3,3}-minus-an-edge gadget.

    For each edge xy of H (canonical order): delete xy, add six new vertices
    forming K_{3,3} minus the edge uv, then join x to u and y to v. The u-side
    part attaches to x, the v-side part to y. Result is 3-regular on 10 |V(H)|
    vertices, in the layout that ``colorings._gadget_base`` reads: base vertices
    keep their ids, and edge k's block is u, u2, u3, v, v2, v3 = H.n + 6k + (0..5).
    """
    if H.d != 3:
        raise PreconditionFail(f"gadget expansion needs a 3-regular base, got d={H.d}")
    x, y = H.edge_arrays()
    blocks = np.column_stack([x, y, H.n + 6 * np.arange(len(x))[:, None] + np.arange(6)])
    # x-u, y-v and K_{3,3} on {u,u2,u3} x {v,v2,v3} minus uv, as block columns
    template = [(0, 2), (1, 5), (2, 6), (2, 7), (3, 5), (3, 6), (3, 7), (4, 5), (4, 6), (4, 7)]
    return build_from_edges(H.n + 6 * len(x), blocks[:, template].reshape(-1, 2))


def random_regular_bipartite(half: int, d: int, seed) -> RegularGraph:
    """Random simple d-regular bipartite graph on 2*half vertices.

    Sampled as the union of d permutations between the parts. Each new
    permutation is redrawn whole up to PERM_REDRAWS times while it duplicates
    an existing edge (a draw is dropped at the first earlier permutation it
    meets); a still-colliding draw is then completed into a valid
    permutation by augmenting paths over the not-yet-used values, which
    always succeeds for d <= half (see ``_complete_permutation``).
    Deterministic given seed.

    The permutations and their inverses are the neighbor lists; a row that
    is not a permutation, or two that meet, raise PreconditionFail. More than
    GRAPH_ENTRIES_CAP adjacency entries raise TooLarge before any draw.
    """
    if half < 1:
        raise OutOfRange("half must be positive")
    if d < 0 or d > half:
        raise OutOfRange(f"need 0 <= d <= half, got d={d}, half={half}")
    _check_entries(2 * half, d)
    rng = np.random.default_rng(seed)
    perms = np.empty((d, half), dtype=np.int64)  # row k: the values of permutation k
    for k in range(d):
        for _ in range(PERM_REDRAWS):
            perm = rng.permutation(half)
            if not any((row == perm).any() for row in perms[:k]):
                break
        else:
            clash = (perms[:k] == perm).any(axis=0)
            perm = _complete_permutation(perm, clash, perms[:k], rng)
        perms[k] = perm
    adj = np.full((2 * half, d), -1, dtype=np.int64)
    adj[:half] = perms.T
    if ((perms >= 0) & (perms < half)).all():
        adj[half + perms, np.arange(d)[:, None]] = np.arange(half)  # the inverse rows
    if (adj[half:] < 0).any():
        raise PreconditionFail(f"a row is not a permutation of [0, {half})")
    adj.sort(axis=1)
    if (adj[:, 1:] == adj[:, :-1]).any():
        raise PreconditionFail("two permutations map one position to the same value")
    adj[:half] += half
    return RegularGraph(2 * half, d, adj, np.repeat([0, 1], half))


def _complete_permutation(
    perm: np.ndarray, clash: np.ndarray, perms: np.ndarray, rng
) -> np.ndarray:
    """Repair the clashing positions of ``perm`` by augmenting paths.

    Position i may take any value not in ``perms[:, i]``. Clashing positions
    are freed and re-placed in increasing order, each by a BFS over
    alternating paths. Every popped position draws one ``rng.permutation``
    and proposes its allowed, unvisited values in that order: the first free
    one ends the search, else all are visited and their owners queued in
    that order. The state is int and bool arrays over positions or values,
    so one pop costs O(half) time and memory.

    A completion always exists. The k < half rows of ``perms`` are
    collision-free permutations, so each position forbids exactly k values
    and each value is forbidden at exactly k positions: the allowed pairs
    form a (half - k)-regular bipartite graph, which has a perfect matching
    (Konig). So every freed position has an augmenting path, and the BFS
    finds one. (Were one missed, ``random_regular_bipartite`` would refuse
    the -1 it leaves.)
    """
    half = len(perm)
    assignment = np.where(clash, -1, perm)  # position -> value, -1 while freed
    owner = np.full(half, -1, dtype=np.int64)  # value -> position, -1 while free
    owner[assignment[~clash]] = np.flatnonzero(~clash)

    def augment(start: int) -> None:
        # reaching a free value flips the path below it
        visited = np.zeros(half, dtype=bool)
        came_from = np.empty(half, dtype=np.int64)  # value -> position that proposed it
        queue = deque([start])
        while queue:
            i = queue.popleft()
            blocked = visited.copy()
            blocked[perms[:, i]] = True
            order = rng.permutation(half)
            order = order[~blocked[order]]  # i's proposals, in draw order
            came_from[order] = i  # past the first free value it is never read
            free = order[owner[order] < 0]
            if free.size:
                v = int(free[0])
                while True:
                    pi = int(came_from[v])
                    displaced = int(assignment[pi])
                    assignment[pi] = v
                    owner[v] = pi
                    if pi == start:
                        return
                    v = displaced
            visited[order] = True
            queue.extend(owner[order].tolist())

    for i in np.flatnonzero(clash).tolist():
        augment(i)
    return assignment


def two_lift(G: RegularGraph, signs) -> RegularGraph:
    """2-lift of G under ``signs``, one +1 or -1 per edge of G in canonical
    edge order (the order of ``edge_arrays``): v splits into v and v+n.

    A +1 edge uv is duplicated inside each layer; a -1 edge crosses layers.
    """
    signs = np.asarray(signs)
    if signs.shape != (G.m,) or not np.isin(signs, (-1, 1)).all():
        raise BindingMismatch(f"a signing of this graph is {G.m} values, each +1 or -1")
    n = G.n
    u, v = G.edge_arrays()
    cross = n * (signs == -1)
    # a +1 edge gives (u, v) and (u+n, v+n); a -1 edge gives (u, v+n) and (u+n, v)
    edges = np.column_stack([np.concatenate([u, u + n]), np.concatenate([v + cross, v + n - cross])])
    labels = None
    if G.part_labels is not None:
        labels = np.tile(G.part_labels, 2)
    return build_from_edges(2 * n, edges, part_labels=labels)


def search_low_lambda_signing(
    G: RegularGraph, restarts: int, seed
) -> tuple[np.ndarray, float]:
    """Randomized-restart greedy search for a signing whose 2-lift has small lambda2.

    A signing is a +1/-1 vector in canonical edge order, as ``two_lift``
    takes. Each restart draws one from its own derived seed ``child``, as
    ``default_rng(child).choice((-1, 1), size=m)``, and greedily applies the
    best single-edge flip while the score improves, for at most
    SEARCH_MAX_PASSES passes. No lift is built:
    by Bilu-Linial 2006, spec(lift) = spec(A) U spec(A_s), so the lift's lambda2
    is max(lambda2(G), top eigenvalue of the signed matrix A_s), and that is
    the score. Each restart builds A_s once, and a flip negates its two
    entries in place. A pass scores all m flips by batched ``eigvalsh`` calls
    on flipped copies of A_s, in one reused buffer of at most
    FLIP_BATCH_BYTES (or one matrix). Scores are compared rounded to 9
    decimals, so candidates that differ only by floating-point noise tie and the
    tie-breaks decide: within a pass the lowest flip index among the best
    wins; across restarts the smaller (rounded lambda, sign vector). Returns
    the best signing and its lift's lambda2; no optimality guarantee. The
    result depends only on (G, restarts, seed). Raises PreconditionFail for
    d < 2, a disconnected G or restarts < 1.
    """
    from . import spectral  # local import: spectral depends on graphs

    if G.d < 2:
        raise PreconditionFail("signing search needs d >= 2")
    if not spectral.is_connected(G):
        raise PreconditionFail("signing search needs a connected graph")
    if restarts < 1:
        raise PreconditionFail("signing search needs restarts >= 1")
    lam_base = spectral.lambda2(G)
    u, v = G.edge_arrays()
    per_batch = min(G.m, max(1, FLIP_BATCH_BYTES // (8 * G.n * G.n)))
    batch = np.empty((per_batch, G.n, G.n))  # flipped copies of A_s, reused by every pass

    def scores(mats: np.ndarray) -> list[float]:
        # max(lambda2(G), top eigenvalue) of each matrix, by one batched eigvalsh
        return [max(lam_base, t) for t in np.linalg.eigvalsh(mats)[:, -1].tolist()]

    def flip_edge(i: int) -> None:
        signs[i] = -signs[i]
        A[u[i], v[i]] = A[v[i], u[i]] = -A[u[i], v[i]]

    def flip_scores() -> list[float]:
        # the score after each single-edge flip, in edge order, a batch at a time
        out = []
        for c in range(0, G.m, per_batch):
            e = np.arange(c, min(c + per_batch, G.m))
            flipped = batch[: len(e)]
            flipped[:] = A
            flipped[e - c, u[e], v[e]] = flipped[e - c, v[e], u[e]] = -A[u[e], v[e]]
            out += scores(flipped)
        return out

    best = None  # ((rounded lambda, sign tuple), lambda)
    for r in range(restarts):
        child = (*seed, r) if isinstance(seed, tuple) else (seed, r)
        signs = np.random.default_rng(child).choice((-1, 1), size=G.m)
        A = spectral.normalized_adjacency(G, signs)  # A_s, kept in step with signs
        (lam,) = scores(A[None])
        for _ in range(SEARCH_MAX_PASSES):
            flips = flip_scores()
            flip = min(range(G.m), key=lambda i: round(flips[i], 9))  # lowest index
            if round(flips[flip], 9) >= round(lam, 9):
                break
            flip_edge(flip)
            lam = flips[flip]
        key = (round(lam, 9), tuple(signs.tolist()))
        if best is None or key < best[0]:
            best = (key, lam)
    (_, signs), lam = best
    return np.array(signs), lam


def edge_expansion_exact(G: RegularGraph) -> tuple[float, tuple[int, ...]]:
    """Exact edge expansion h(G) = min_{0<|S|<=n/2} |E(S, V\\S)| / |S|.

    Enumerates subsets containing vertex 0 (complement symmetry halves the
    space) in Gray-code order with incremental cut updates. Returns the
    minimum ratio and a minimizing set of size <= n/2.
    """
    n = G.n
    if n > EXPANSION_CAP:
        raise TooLarge(f"n={n} exceeds exhaustive cap {EXPANSION_CAP}")
    if n < 2:
        raise PreconditionFail("edge expansion needs n >= 2")
    nbr = [sum(1 << u for u in row) for row in G.adjacency.tolist()]
    d = G.d
    mask = 1
    size = 1
    cut = d
    full = (1 << n) - 1
    best_h = float(cut)
    best_mask = mask
    best_size = 1
    for g in range(1, 1 << (n - 1)):
        v = ((g & -g).bit_length() - 1) + 1
        inside = (nbr[v] & mask).bit_count()
        if (mask >> v) & 1:
            mask &= ~(1 << v)
            size -= 1
            cut -= d - 2 * inside
        else:
            mask |= 1 << v
            size += 1
            cut += d - 2 * inside
        if mask == full:
            continue
        h = cut / min(size, n - size)
        if h < best_h:
            best_h = h
            best_mask = mask
            best_size = size
    if best_size > n - best_size:
        best_mask = full & ~best_mask
    witness = tuple(v for v in range(n) if (best_mask >> v) & 1)
    return best_h, witness


def subset_measures(
    G: RegularGraph,
    A: Iterable[int],
    B: Iterable[int] | None = None,
) -> VertexSubsetMeasures:
    """Exact w(A), e(A) and, when B is given, e(A, B). A and B must be disjoint."""
    in_a = _vertex_mask(G, A)
    in_b = _vertex_mask(G, B if B is not None else ())
    common = np.flatnonzero(in_a & in_b)
    if common.size:
        raise PreconditionFail(f"subsets share vertices, e.g. {common[0]}")
    u, v = G.edge_arrays()
    size = int(in_a.sum())
    inner = int((in_a[u] & in_a[v]).sum())
    cross = int((in_a[u] & in_b[v] | in_b[u] & in_a[v]).sum())
    m = G.m
    return VertexSubsetMeasures(
        w=size / G.n,
        e_within=inner / m if m else 0.0,
        e_cross=cross / m if m else 0.0,
        size=size,
        inner_edges=inner,
        cross_edges=cross,
    )


def _vertex_mask(G: RegularGraph, vertices: Iterable[int]) -> np.ndarray:
    """Boolean mask of a vertex subset; raises OutOfRange on out-of-range ids."""
    ids = np.fromiter((int(v) for v in vertices), dtype=np.int64)
    if ((ids < 0) | (ids >= G.n)).any():
        raise OutOfRange("subset contains out-of-range vertices")
    mask = np.zeros(G.n, dtype=bool)
    mask[ids] = True
    return mask
