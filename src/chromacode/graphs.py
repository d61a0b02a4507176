"""Construction and exact measurement of regular graphs.

Graphs are immutable once built: vertex count n, uniform degree d, and the
(n, d) int64 array of neighbors with each row sorted, read-only like the
optional array of part labels. Bipartite constructions carry part labels
(every edge must cross), and composite constructions (edge gadgets, tensor
powers, 2-lifts) record provenance in ``meta`` so downstream samplers can
reuse the structure.
"""
from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, product
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DuplicateEdge,
    GenerationTimeout,
    NonRegular,
    NotBipartite,
    NotCubic,
    Overlap,
    PreconditionFail,
    SelfLoop,
    SigningMismatch,
    SizeCap,
    TooLarge,
)

EXPANSION_CAP = 24       # exhaustive edge-expansion limit (2^(n-1) subsets)
TENSOR_SIZE_CAP = 4096   # vertex cap for tensor powers
SEARCH_MAX_PASSES = 200  # greedy flip passes per signing-search restart
PERM_REDRAWS = 20        # whole redraws of a colliding permutation before repair


def _frozen(values, shape) -> np.ndarray:
    """A read-only int64 copy of ``values`` in the given shape."""
    arr = np.array(values, dtype=np.int64).reshape(shape)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class RegularGraph:
    """Simple d-regular graph: ``adjacency`` is the (n, d) neighbor array, rows sorted.

    ``part_labels`` tags a bipartition when the graph was built bipartite.
    ``meta`` holds construction provenance (read-only by convention); it is
    not part of identity: equality and ``graph_key`` cover only n, d, edges
    and parts.
    """

    n: int
    d: int
    adjacency: np.ndarray = field(repr=False)
    part_labels: np.ndarray | None = field(default=None, repr=False)
    meta: Mapping | None = field(default=None, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "adjacency", _frozen(self.adjacency, (self.n, self.d)))
        if self.part_labels is not None:
            object.__setattr__(self, "part_labels", _frozen(self.part_labels, (self.n,)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, RegularGraph):
            return NotImplemented
        return (
            (self.n, self.d) == (other.n, other.d)
            and np.array_equal(self.adjacency, other.adjacency)
            and np.array_equal(self.part_labels, other.part_labels)  # None only equals None
        )

    def __hash__(self) -> int:
        return hash(self.graph_key)

    @cached_property
    def graph_key(self) -> str:
        """Content hash of n, d, part labels and the canonical edge list."""
        h = hashlib.sha256(f"{self.n}|{self.d}|".encode())
        if self.part_labels is not None:
            h.update(",".join(map(str, self.part_labels.tolist())).encode())
        h.update(b"|")
        h.update("".join(f"{u},{v};" for u, v in self.edges()).encode())
        return h.hexdigest()[:16]

    @property
    def m(self) -> int:
        """Number of edges."""
        return self.n * self.d // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adjacency[u] == v).any())

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
class Signing:
    """An assignment of +1/-1 to every edge, keyed by canonical edge order."""

    edges: tuple[tuple[int, int], ...]
    signs: tuple[int, ...]

    def __post_init__(self):
        if len(self.edges) != len(self.signs):
            raise SigningMismatch("signs and edges differ in length")
        if any(s not in (-1, 1) for s in self.signs):
            raise SigningMismatch("signs must be -1 or +1")
        if list(self.edges) != sorted(set(self.edges)) or any(
            u >= v for u, v in self.edges
        ):
            raise SigningMismatch("edges must be canonical (u < v) and sorted")

    @classmethod
    def all_plus(cls, G: RegularGraph) -> "Signing":
        return cls(G.edges(), (1,) * G.m)

    @classmethod
    def all_minus(cls, G: RegularGraph) -> "Signing":
        return cls(G.edges(), (-1,) * G.m)

    @classmethod
    def from_mapping(cls, G: RegularGraph, mapping: Mapping) -> "Signing":
        es = G.edges()
        try:
            signs = tuple(int(mapping[e]) for e in es)
        except KeyError as missing:
            raise SigningMismatch(f"signing missing edge {missing}") from None
        return cls(es, signs)

    @classmethod
    def random(cls, G: RegularGraph, seed) -> "Signing":
        rng = np.random.default_rng(seed)
        return cls(G.edges(), tuple(rng.choice((-1, 1), size=G.m).tolist()))


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
    n: int,
    edges: Iterable[Sequence[int]],
    part_labels: Sequence[int] | None = None,
    meta: Mapping | None = None,
) -> RegularGraph:
    """Validate an edge list and return the graph; degree is inferred.

    Raises SelfLoop, DuplicateEdge or NonRegular on malformed input (the first
    bad edge in list order is named), and NotBipartite if part labels are
    supplied but some edge stays inside a part.
    """
    if n < 1:
        raise ValueError(f"need at least one vertex, got n={n}")
    pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64)
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("edges must be pairs of vertices")
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
            raise ValueError(f"edge ({u[i]},{v[i]}) out of range for n={n}")
        if loop[i]:
            raise SelfLoop(f"self-loop at vertex {u[i]}")
        raise DuplicateEdge(f"edge {(int(lo[i]), int(hi[i]))} listed twice")
    ends = np.concatenate([u, v])
    degree = np.bincount(ends, minlength=n)
    if (degree != degree[0]).any():
        bad_v = int(np.flatnonzero(degree != degree[0])[0])
        raise NonRegular(
            f"vertex 0 has degree {degree[0]} but vertex {bad_v} has {degree[bad_v]}"
        )
    labels = None
    if part_labels is not None:
        labels = np.array(part_labels, dtype=np.int64)
        if labels.shape != (n,):
            raise ValueError("part_labels length must equal n")
        inside = np.flatnonzero(labels[u] == labels[v])
        if inside.size:
            i = inside[0]
            raise NotBipartite(
                f"edge ({lo[i]},{hi[i]}) stays inside part {labels[u[i]]}"
            )
    others = np.concatenate([v, u])
    by_vertex = np.lexsort((others, ends))
    return RegularGraph(
        n=n,
        d=int(degree[0]),
        adjacency=others[by_vertex],
        part_labels=labels,
        meta=meta,
    )


def complete_graph(q: int) -> RegularGraph:
    """K_q, (q-1)-regular."""
    if q < 2:
        raise ValueError("complete graph needs q >= 2")
    return build_from_edges(q, combinations(range(q), 2), meta={"kind": "complete", "q": q})


def cycle_graph(n: int) -> RegularGraph:
    """C_n, 2-regular. n=2 fails with DuplicateEdge (parallel edges)."""
    if n < 1:
        raise ValueError("cycle needs n >= 1")
    return build_from_edges(
        n, [(i, (i + 1) % n) for i in range(n)], meta={"kind": "cycle", "n": n}
    )


def tensor_power(q: int, N: int) -> RegularGraph:
    """Graph on q-ary N-tuples, adjacent iff the tuples differ in every coordinate.

    Vertex id encodes the tuple in base q, most significant digit first, so
    digit i of a vertex id is coordinate i. The result is (q-1)^N-regular.
    """
    if q < 2 or N < 1:
        raise ValueError("tensor power needs q >= 2 and N >= 1")
    n = q**N
    if n > TENSOR_SIZE_CAP:
        raise SizeCap(f"q^N = {n} exceeds cap {TENSOR_SIZE_CAP}")
    weights = [q ** (N - 1 - i) for i in range(N)]
    edges = []
    for u in range(n):
        digits = [(u // w) % q for w in weights]
        for offsets in product(range(1, q), repeat=N):
            v = sum(((digits[i] + offsets[i]) % q) * weights[i] for i in range(N))
            if v > u:
                edges.append((u, v))
    return build_from_edges(n, edges, meta={"kind": "tensor", "q": q, "N": N})


def gadget_expand(H: RegularGraph) -> RegularGraph:
    """Replace every edge of a cubic graph with a K_{3,3}-minus-an-edge gadget.

    For each edge xy of H (canonical order): delete xy, add six new vertices
    forming K_{3,3} minus the edge uv, then join x to u and y to v. The u-side
    part attaches to x, the v-side part to y. Base vertices keep their ids;
    gadget blocks follow in canonical edge order. Result is 3-regular on
    10 |V(H)| vertices; ``meta['gadgets']`` records every block.
    """
    if H.d != 3:
        raise NotCubic(f"gadget expansion needs a 3-regular base, got d={H.d}")
    base_edges = H.edges()
    n = H.n + 6 * len(base_edges)
    edges: list[tuple[int, int]] = []
    gadgets = []
    for k, (x, y) in enumerate(base_edges):
        b = H.n + 6 * k
        u, u2, u3, v, v2, v3 = range(b, b + 6)
        edges.append((x, u))
        edges.append((y, v))
        # K_{3,3} on {u,u2,u3} x {v,v2,v3} minus uv
        for a in (u, u2, u3):
            for c in (v, v2, v3):
                if (a, c) != (u, v):
                    edges.append((a, c))
        gadgets.append([x, y, [u, u2, u3], [v, v2, v3]])
    # JSON lists, so a meta reloaded from the sidecar equals this one
    meta = {"kind": "gadget", "base_n": H.n, "base_key": H.graph_key, "gadgets": gadgets}
    return build_from_edges(n, edges, meta=meta)


def random_regular_bipartite(half: int, d: int, seed) -> RegularGraph:
    """Random simple d-regular bipartite graph on 2*half vertices.

    Sampled as the union of d permutations between the parts. Each new
    permutation is redrawn whole up to PERM_REDRAWS times while it duplicates
    an existing edge; a still-colliding draw is then completed into a valid
    permutation by augmenting paths over the not-yet-used values (such a
    completion always exists for d <= half). Deterministic given seed.
    """
    if half < 1:
        raise ValueError("half must be positive")
    if d < 0 or d > half:
        raise ValueError(f"need 0 <= d <= half, got d={d}, half={half}")
    rng = np.random.default_rng(seed)
    perms = np.empty((0, half), dtype=np.int64)  # row k: the values of permutation k
    for _ in range(d):
        for _ in range(PERM_REDRAWS):
            perm = rng.permutation(half)
            clash = (perms == perm).any(axis=0)
            if not clash.any():
                break
        else:
            perm = _complete_permutation(perm, clash, perms, rng)
            if perm is None:
                raise GenerationTimeout(
                    f"could not complete a collision-free permutation "
                    f"(half={half}, d={d})"
                )
        perms = np.vstack([perms, perm])
    edges = np.column_stack([np.tile(np.arange(half), d), half + perms.ravel()])
    return build_from_edges(
        2 * half,
        edges,
        part_labels=np.repeat([0, 1], half),
        meta={"kind": "random_bipartite", "half": half, "d": d, "seed": _seed_repr(seed)},
    )


def _complete_permutation(
    perm: np.ndarray, clash: np.ndarray, perms: np.ndarray, rng
) -> np.ndarray | None:
    """Repair the clashing positions of ``perm`` by augmenting paths, or None.

    Position i may take any value not in ``perms[:, i]``. Clashing positions
    are freed and re-placed in increasing order, each by a BFS over
    alternating paths in which positions propose values in random order.
    """
    half = len(perm)
    assignment = {i: j for i, j in enumerate(perm.tolist()) if not clash[i]}
    owner = {j: i for i, j in assignment.items()}

    def augment(start: int) -> bool:
        # reaching a free value flips the path below it
        visited: set[int] = set()
        came_from: dict[int, int] = {}
        queue = deque([start])
        while queue:
            i = queue.popleft()
            used = set(perms[:, i].tolist())
            for j in rng.permutation(half).tolist():
                if j in used or j in visited:
                    continue
                visited.add(j)
                came_from[j] = i
                prev = owner.get(j)
                if prev is None:
                    v = j
                    while True:
                        pi = came_from[v]
                        displaced = assignment.get(pi)
                        assignment[pi] = v
                        owner[v] = pi
                        if pi == start:
                            return True
                        v = displaced
                queue.append(prev)
        return False

    for i in np.flatnonzero(clash).tolist():
        if not augment(i):
            return None
    return np.array([assignment[i] for i in range(half)], dtype=np.int64)


def _seed_repr(seed) -> str:
    return repr(tuple(seed)) if isinstance(seed, (tuple, list)) else repr(seed)


def two_lift(G: RegularGraph, s: Signing) -> RegularGraph:
    """2-lift of G under signing s: v splits into v and v+n.

    A +1 edge uv is duplicated inside each layer; a -1 edge crosses layers.
    """
    if s.edges != G.edges():
        raise SigningMismatch("signing does not cover exactly E(G)")
    n = G.n
    u, v = G.edge_arrays()
    cross = n * (np.array(s.signs) == -1)
    # a +1 edge gives (u, v) and (u+n, v+n); a -1 edge gives (u, v+n) and (u+n, v)
    edges = np.column_stack([np.concatenate([u, u + n]), np.concatenate([v + cross, v + n - cross])])
    labels = None
    if G.part_labels is not None:
        labels = np.tile(G.part_labels, 2)
    meta = {"kind": "two_lift", "base_key": G.graph_key, "base_n": n}
    return build_from_edges(2 * n, edges, part_labels=labels, meta=meta)


def search_low_lambda_signing(
    G: RegularGraph, restarts: int, seed
) -> tuple[Signing, float]:
    """Randomized-restart greedy search for a signing whose 2-lift has small lambda2.

    Each restart draws a random signing from its own derived seed (the draw of
    ``Signing.random``) and greedily applies the best single-edge flip while
    the score improves, for at most SEARCH_MAX_PASSES passes. No lift is built:
    by Bilu-Linial 2006, spec(lift) = spec(A) U spec(A_s), so the lift's lambda2
    is max(lambda2(G), top eigenvalue of the signed matrix A_s), and that is
    the score. Each restart builds A_s once, and a flip negates its two
    entries in place. Scores are compared rounded to 9 decimals, so
    candidates that differ only by floating-point noise tie and the
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

    def score() -> float:
        return max(lam_base, float(np.linalg.eigvalsh(A)[-1]))

    def flip_edge(i: int) -> None:
        signs[i] = -signs[i]
        A[u[i], v[i]] = A[v[i], u[i]] = -A[u[i], v[i]]

    best = None  # ((rounded lambda, sign tuple), lambda)
    with spectral._one_blas_thread():  # n x n eigvalsh calls, one scope for all
        for r in range(restarts):
            child = (*seed, r) if isinstance(seed, tuple) else (seed, r)
            signs = np.random.default_rng(child).choice((-1, 1), size=G.m)
            A = spectral.normalized_adjacency(G, signs)  # A_s, kept in step with signs
            lam = score()
            for _ in range(SEARCH_MAX_PASSES):
                flip, bar = None, round(lam, 9)
                for i in range(G.m):
                    flip_edge(i)
                    lam_c = score()
                    flip_edge(i)
                    if round(lam_c, 9) < bar:
                        flip, lam_flip, bar = i, lam_c, round(lam_c, 9)
                if flip is None:
                    break
                flip_edge(flip)
                lam = lam_flip
            key = (round(lam, 9), tuple(signs.tolist()))
            if best is None or key < best[0]:
                best = (key, lam)
    (_, signs), lam = best
    return Signing(G.edges(), signs), lam


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
        raise ValueError("edge expansion needs n >= 2")
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
        raise Overlap(f"subsets share vertices, e.g. {common[0]}")
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
    """Boolean mask of a vertex subset; raises ValueError on out-of-range ids."""
    ids = np.fromiter((int(v) for v in vertices), dtype=np.int64)
    if ((ids < 0) | (ids >= G.n)).any():
        raise ValueError("subset contains out-of-range vertices")
    mask = np.zeros(G.n, dtype=bool)
    mask[ids] = True
    return mask
