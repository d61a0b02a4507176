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

TENSOR_SIZE_CAP = 4096   # vertex cap for tensor powers
# adjacency entries n (q-1)^N a tensor power may list: its one broadcast holds
# n (q-1)^N N int64 digits, at most about 26 MB under both caps (K_6^4)
TENSOR_WORK_CAP = 1 << 20
# adjacency entries n d that cycle_graph or random_regular_bipartite may build,
# counting one per vertex at d = 0 (their per-vertex arrays): above the
# 3 * 10^6 of a cubic graph on 10^6 vertices
GRAPH_ENTRIES_CAP = 1 << 23
SEARCH_MAX_PASSES = 200  # greedy flip passes per signing-search restart
SEARCH_WORK_CAP = 1 << 31  # dense work m n^3 of one signing-search pass (K_4^2 3 lifts: 1.2e9)
PERM_REDRAWS = 20        # whole redraws of a colliding permutation before repair
FLIP_BATCH_BYTES = 1 << 20  # flipped signed matrices held at once by the signing search


def _frozen(values, shape) -> np.ndarray:
    """A read-only int64 copy of ``values`` in the given shape."""
    arr = np.array(values, dtype=np.int64).reshape(shape)
    arr.setflags(write=False)
    return arr


def _part_labels(values, n: int) -> np.ndarray:
    """``values`` as n read-only int64 part labels. Raises PreconditionFail
    for another length and OutOfRange naming the first vertex whose label
    is not 0 or 1."""
    try:
        labels = np.array(values, dtype=np.int64)
    except (TypeError, ValueError):  # ragged, or not integers
        labels = None
    if labels is None or labels.shape != (n,):
        raise PreconditionFail("part_labels length must equal n")
    labels.setflags(write=False)
    if labels.size and (labels.min() < 0 or labels.max() > 1):
        i = np.flatnonzero((labels != 0) & (labels != 1))[0]
        raise OutOfRange(f"vertex {i} has part label {labels[i]}, not 0 or 1")
    return labels


@dataclass(frozen=True, eq=False)
class RegularGraph:
    """Simple d-regular graph: ``adjacency`` is the (n, d) neighbor array, rows sorted.

    ``part_labels`` tags a bipartition when the graph was built bipartite.
    Equality, ``hash`` and ``graph_key`` cover these four fields and nothing else.
    Making one checks, in O(nd), that the adjacency holds n d entries
    (PreconditionFail), that each names a vertex in [0, n) (OutOfRange), and
    the part labels as ``build_from_edges`` does. That rows are sorted and
    mirror each other is not checked: that would need a sort of all n d entries.
    """

    n: int
    d: int
    adjacency: np.ndarray = field(repr=False)
    part_labels: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        n, d = self.n, self.d
        try:
            adjacency = _frozen(self.adjacency, (n, d))
        except (TypeError, ValueError):  # ragged rows, another size, or not integers
            adjacency = None
        if adjacency is None or min(n, d) < 0:
            raise PreconditionFail(f"adjacency must be n={n} rows of d={d} neighbors")
        if adjacency.size and (adjacency.min() < 0 or adjacency.max() >= n):
            v, i = np.argwhere((adjacency < 0) | (adjacency >= n))[0]
            raise OutOfRange(f"vertex {v} lists neighbor {adjacency[v, i]}, outside [0, {n})")
        object.__setattr__(self, "adjacency", adjacency)
        if self.part_labels is not None:
            object.__setattr__(self, "part_labels", _part_labels(self.part_labels, n))

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
        labels = _part_labels(part_labels, n)
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
            for row in perms[:k]:  # a plain loop: a generator costs more than the test
                if (row == perm).any():
                    break
            else:
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
    that order. The first pop is the freed position itself with nothing
    visited, so it takes the first free value it may hold in its draw; only
    when its draw holds none is the BFS state built (``_augment``). A search
    thus costs O(half) time and memory per pop, and most end at the first.

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
    for i in np.flatnonzero(clash).tolist():
        order = rng.permutation(half)
        open_ = owner < 0  # the free values i may hold
        open_[perms[:, i]] = False
        v = order[open_[order].argmax()]  # the first of them in the draw, if any
        if open_[v]:
            assignment[i] = v
            owner[v] = i
        else:
            _augment(i, order, assignment, owner, perms, rng)
    return assignment


def _augment(start: int, order: np.ndarray, assignment: np.ndarray, owner: np.ndarray,
             perms: np.ndarray, rng) -> None:
    """The BFS of ``_complete_permutation`` from freed position ``start``,
    whose draw ``order`` holds no free value it may take. Reaching a free
    value flips the path below it, in ``assignment`` and ``owner``."""
    half = len(order)
    visited = np.zeros(half, dtype=bool)
    came_from = np.empty(half, dtype=np.int64)  # value -> position that proposed it
    queue = deque()
    i = start
    while True:
        blocked = visited.copy()
        blocked[perms[:, i]] = True
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
        if not queue:
            return
        i = queue.popleft()
        order = rng.permutation(half)


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

    A signing is a +1/-1 vector in canonical edge order, as ``two_lift`` takes.
    Restart r draws ``default_rng(child).choice((-1, 1), size=m)`` with child
    (*seed, r), or (seed, r) for an int seed, then applies the best single-edge
    flip while the score improves, for at most SEARCH_MAX_PASSES passes. The
    score is the lift's lambda2, max(lambda2(G), top ``eigvalsh`` eigenvalue
    of the signed matrix A_s), as spec(lift) = spec(A) U spec(A_s) (Bilu-Linial
    2006); no lift is built. Scores compare rounded to 9 decimals: within a
    pass the lowest flip index among the best wins, across restarts the
    smaller (rounded lambda, sign vector). No optimality guarantee.

    A pass bounds every flip's score from one ``eigh`` of A_s (``_flip_bounds``,
    less 1e-12 for rounding). Flips whose bound rounds to at least the current
    score are dropped, and a restart with none left stops. Else the
    lowest-bound flip is solved exactly, then each kept flip whose bound is
    within 1e-9 of that score (any other rounds higher), so the result is
    that of solving every flip. Restarts run in lockstep groups, their
    matrices solved in stacks of at most FLIP_BATCH_BYTES (or one matrix).
    Raises PreconditionFail for d < 2, a disconnected G or restarts < 1, and
    TooLarge, before any matrix is built, when a pass's dense work m n^3 is
    above SEARCH_WORK_CAP.
    """
    from . import spectral  # local import: spectral depends on graphs

    if G.d < 2:
        raise PreconditionFail("signing search needs d >= 2")
    if not spectral.is_connected(G):
        raise PreconditionFail("signing search needs a connected graph")
    if restarts < 1:
        raise PreconditionFail("signing search needs restarts >= 1")
    _check_search_work(G.n, G.d)
    n, m = G.n, G.m
    lam_base = spectral.lambda2(G)
    u, v = G.edge_arrays()
    per_batch = max(1, FLIP_BATCH_BYTES // (8 * n * n))  # matrices in one stack

    def scores(A: np.ndarray, rows: np.ndarray, flips: np.ndarray) -> np.ndarray:
        # the score of each A[rows[i]] with edge flips[i] flipped, a stack at a time
        out = np.empty(len(rows))
        for c in range(0, len(rows), per_batch):
            r, e = rows[c:c + per_batch], flips[c:c + per_batch]
            mats, k = A[r], np.arange(len(r))
            mats[k, u[e], v[e]] = mats[k, v[e], u[e]] = -A[r, u[e], v[e]]
            out[c:c + len(r)] = np.linalg.eigvalsh(mats)[:, -1]
        return np.maximum(out, lam_base)

    prefix = seed if isinstance(seed, tuple) else (seed,)  # restart r draws from (*prefix, r)
    found = []  # ((rounded lambda, sign tuple), lambda) of each restart, in order
    for g0 in range(0, restarts, per_batch):
        signs = np.array([np.random.default_rng((*prefix, r)).choice((-1, 1), size=m)
                          for r in range(g0, min(g0 + per_batch, restarts))])
        A = np.stack([spectral.normalized_adjacency(G, s) for s in signs])  # A_s of each restart
        lam = np.maximum(np.linalg.eigvalsh(A)[:, -1], lam_base).tolist()
        active = np.arange(len(signs))
        for _ in range(SEARCH_MAX_PASSES):
            bound = np.maximum(_flip_bounds(A[active], u, v), lam_base) - 1e-12
            keep = np.round(bound, 9) < np.array([round(lam[r], 9) for r in active])[:, None]
            live = keep.any(1)
            active, bound, keep = active[live], bound[live], keep[live]
            if not active.size:
                break
            lowest = np.where(keep, bound, np.inf).argmin(1)
            first = scores(A, active, lowest)
            keep[np.arange(len(active)), lowest] = False
            i, e = np.nonzero(keep & (bound <= first[:, None] + 1e-9))
            solved = np.concatenate([first, scores(A, active[i], e)]).tolist()
            winners = {}  # restart -> its least (rounded score, flip, score), as Python numbers
            for r, *win in sorted(zip(active.tolist() + active[i].tolist(),
                                      [round(s, 9) for s in solved],
                                      lowest.tolist() + e.tolist(), solved)):
                winners.setdefault(r, win)
            better = [r for r, (key, _, _) in winners.items() if key < round(lam[r], 9)]
            for r in better:
                lam[r] = winners[r][2]
            # every improved restart takes its winning flip in one indexed assignment
            active = np.array(better, dtype=np.int64)
            e = np.array([winners[r][1] for r in better], dtype=np.int64)
            signs[active, e] = -signs[active, e]
            A[active, u[e], v[e]] = A[active, v[e], u[e]] = -A[active, u[e], v[e]]
        found += [((round(x, 9), tuple(s.tolist())), x) for s, x in zip(signs, lam)]
    (_, signs), lam = min(found, key=lambda f: f[0])
    return np.array(signs), lam


def _check_search_work(n: int, d: int) -> None:
    """Refuse with TooLarge a signing search on n vertices of degree d whose
    pass does dense work m n^3 above SEARCH_WORK_CAP."""
    if n * d // 2 * n**3 > SEARCH_WORK_CAP:
        raise TooLarge(f"signing search on {n} vertices of degree {d}: m n^3 = "
                       f"{n * d // 2 * n**3} dense work per pass, above the cap {SEARCH_WORK_CAP}")


def _flip_bounds(A: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(k, m) lower bounds on the top eigenvalue of each of k stacked symmetric
    matrices A once entries (u_j, v_j) and (v_j, u_j) are negated, each j.

    The flip adds c (e_u e_v' + e_v e_u'), c = -2 A[u, v]. On A's top two
    eigenvectors X it is diag(theta1, theta2) + c (p r' + r p') with p = X[u],
    r = X[v], whose top eigenvalue bounds the flipped one from below
    (Courant-Fischer). Both are at least theta2: the update's eigenvalues are
    +c and -c, and adding one negative rank-one term lowers the top
    eigenvalue of a matrix to no less than its second (interlacing).
    """
    theta, X = np.linalg.eigh(A)
    c = -2 * A[:, u, v]
    p1, p2, r1, r2 = X[:, u, -1], X[:, u, -2], X[:, v, -1], X[:, v, -2]
    a, b = theta[:, -1:] + 2 * c * p1 * r1, theta[:, -2:-1] + 2 * c * p2 * r2
    return (a + b) / 2 + np.hypot((a - b) / 2, c * (p1 * r2 + p2 * r1))
