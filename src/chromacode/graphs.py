"""Construction and exact measurement of regular graphs.

Graphs are immutable once built: vertex count n, uniform degree d, and
per-vertex sorted neighbor tuples. Bipartite constructions carry part labels
(every edge must cross), and composite constructions (edge gadgets, tensor
powers, 2-lifts) record provenance in ``meta`` so downstream samplers can
reuse the structure.
"""
from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field
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
    SelfLoop,
    SigningMismatch,
    SizeCap,
    TooLarge,
)

EXPANSION_CAP = 24       # exhaustive edge-expansion limit (2^(n-1) subsets)
TENSOR_SIZE_CAP = 4096   # vertex cap for tensor powers
SEARCH_MAX_PASSES = 200  # greedy flip passes per signing-search restart


@dataclass(frozen=True)
class RegularGraph:
    """Simple d-regular graph with sorted adjacency lists.

    ``part_labels`` tags a bipartition when the graph was built bipartite.
    ``meta`` holds construction provenance (read-only by convention); it is
    not part of identity: ``graph_key`` hashes only n, d, edges and parts.
    """

    n: int
    d: int
    adjacency: tuple[tuple[int, ...], ...] = field(repr=False)
    part_labels: tuple[int, ...] | None = field(default=None, repr=False)
    meta: Mapping | None = field(default=None, repr=False, compare=False)
    graph_key: str = field(init=False, compare=False)

    def __post_init__(self):
        h = hashlib.sha256()
        h.update(f"{self.n}|{self.d}|".encode())
        if self.part_labels is not None:
            h.update(",".join(map(str, self.part_labels)).encode())
        h.update(b"|")
        for u, v in self.edges():
            h.update(f"{u},{v};".encode())
        object.__setattr__(self, "graph_key", h.hexdigest()[:16])

    @property
    def m(self) -> int:
        """Number of edges."""
        return self.n * self.d // 2

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    def edges(self) -> tuple[tuple[int, int], ...]:
        """Canonical edge list: pairs (u, v) with u < v, sorted."""
        cached = self.__dict__.get("_edges")
        if cached is None:
            cached = tuple(
                (u, v) for u in range(self.n) for v in self.adjacency[u] if u < v
            )
            object.__setattr__(self, "_edges", cached)
        return cached

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Edge endpoints as two int arrays (for vectorized measures)."""
        cached = self.__dict__.get("_edge_arrays")
        if cached is None:
            es = self.edges()
            u = np.fromiter((e[0] for e in es), dtype=np.int64, count=len(es))
            v = np.fromiter((e[1] for e in es), dtype=np.int64, count=len(es))
            cached = (u, v)
            object.__setattr__(self, "_edge_arrays", cached)
        return cached


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
        signs = tuple(int(s) for s in rng.choice((-1, 1), size=G.m))
        return cls(G.edges(), signs)

    def sign_of(self, u: int, v: int) -> int:
        e = (u, v) if u < v else (v, u)
        idx = self.__dict__.get("_index")
        if idx is None:
            idx = {edge: i for i, edge in enumerate(self.edges)}
            object.__setattr__(self, "_index", idx)
        return self.signs[idx[e]]


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

    Raises SelfLoop, DuplicateEdge or NonRegular on malformed input, and
    NotBipartite if part labels are supplied but some edge stays inside a part.
    """
    if n < 1:
        raise ValueError(f"need at least one vertex, got n={n}")
    adj: list[set[int]] = [set() for _ in range(n)]
    seen: set[tuple[int, int]] = set()
    for pair in edges:
        u, v = int(pair[0]), int(pair[1])
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise SelfLoop(f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise DuplicateEdge(f"edge {key} listed twice")
        seen.add(key)
        adj[u].add(v)
        adj[v].add(u)
    degrees = {len(a) for a in adj}
    if len(degrees) > 1:
        bad = next(v for v in range(n) if len(adj[v]) != len(adj[0]))
        raise NonRegular(
            f"vertex 0 has degree {len(adj[0])} but vertex {bad} has {len(adj[bad])}"
        )
    d = degrees.pop() if degrees else 0
    labels = tuple(int(x) for x in part_labels) if part_labels is not None else None
    if labels is not None:
        if len(labels) != n:
            raise ValueError("part_labels length must equal n")
        for u, v in seen:
            if labels[u] == labels[v]:
                raise NotBipartite(f"edge ({u},{v}) stays inside part {labels[u]}")
    return RegularGraph(
        n=n,
        d=d,
        adjacency=tuple(tuple(sorted(a)) for a in adj),
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


def tensor_power(q: int, N: int, size_cap: int = TENSOR_SIZE_CAP) -> RegularGraph:
    """Graph on q-ary N-tuples, adjacent iff the tuples differ in every coordinate.

    Vertex id encodes the tuple in base q, most significant digit first, so
    digit i of a vertex id is coordinate i. The result is (q-1)^N-regular.
    """
    if q < 2 or N < 1:
        raise ValueError("tensor power needs q >= 2 and N >= 1")
    n = q**N
    if n > size_cap:
        raise SizeCap(f"q^N = {n} exceeds cap {size_cap}")
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
        gadgets.append((x, y, (u, u2, u3), (v, v2, v3)))
    meta = {
        "kind": "gadget",
        "base_n": H.n,
        "base_key": H.graph_key,
        "gadgets": tuple(gadgets),
    }
    return build_from_edges(n, edges, meta=meta)


def random_regular_bipartite(
    half: int,
    d: int,
    seed,
    retries: int = 20,
) -> RegularGraph:
    """Random simple d-regular bipartite graph on 2*half vertices.

    Sampled as the union of d permutations between the parts. Each new
    permutation is redrawn whole up to ``retries`` times while it duplicates
    an existing edge; a still-colliding draw is then completed into a valid
    permutation by augmenting paths over the not-yet-used values (such a
    completion always exists for d <= half). Deterministic given seed.
    """
    if half < 1:
        raise ValueError("half must be positive")
    if d < 0 or d > half:
        raise ValueError(f"need 0 <= d <= half, got d={d}, half={half}")
    rng = np.random.default_rng(seed)
    used: list[set[int]] = [set() for _ in range(half)]
    edges: list[tuple[int, int]] = []
    for _ in range(d):
        perm = None
        for _ in range(retries):
            cand = rng.permutation(half)
            if all(int(cand[i]) not in used[i] for i in range(half)):
                perm = cand
                break
            perm = cand
        assignment: dict[int, int] = {}
        owner: dict[int, int] = {}
        pending = []
        for i in range(half):
            j = int(perm[i])
            if j in used[i]:
                pending.append(i)
            else:
                assignment[i] = j
                owner[j] = i

        def augment(start: int) -> bool:
            # BFS over alternating paths: positions propose values in random
            # order; reaching a free value flips the path below it.
            visited: set[int] = set()
            came_from: dict[int, int] = {}
            queue = deque([start])
            while queue:
                i = queue.popleft()
                for j in (int(x) for x in rng.permutation(half)):
                    if j in used[i] or j in visited:
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

        for i in pending:
            if not augment(i):
                raise GenerationTimeout(
                    f"could not complete a collision-free permutation "
                    f"(half={half}, d={d})"
                )
        for i in range(half):
            j = assignment[i]
            used[i].add(j)
            edges.append((i, half + j))
    labels = [0] * half + [1] * half
    return build_from_edges(
        2 * half,
        edges,
        part_labels=labels,
        meta={"kind": "random_bipartite", "half": half, "d": d, "seed": _seed_repr(seed)},
    )


def _seed_repr(seed) -> str:
    return repr(tuple(seed)) if isinstance(seed, (tuple, list)) else repr(seed)


def two_lift(G: RegularGraph, s: Signing) -> RegularGraph:
    """2-lift of G under signing s: v splits into v and v+n.

    A +1 edge uv is duplicated inside each layer; a -1 edge crosses layers.
    """
    if s.edges != G.edges():
        raise SigningMismatch("signing does not cover exactly E(G)")
    n = G.n
    edges = []
    for (u, v), sign in zip(s.edges, s.signs):
        if sign == 1:
            edges.append((u, v))
            edges.append((u + n, v + n))
        else:
            edges.append((u, v + n))
            edges.append((v, u + n))
    labels = None
    if G.part_labels is not None:
        labels = G.part_labels + G.part_labels
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
    the score. Scores are compared rounded to 9 decimals, so candidates that
    differ only by floating-point noise tie and the tie-breaks decide: within
    a pass the lowest flip index among the best wins; across restarts the
    smaller (rounded lambda, sign vector). Returns the best signing and its
    lift's lambda2; no optimality guarantee. The result depends only on
    (G, restarts, seed).
    """
    from . import spectral  # local import: spectral depends on graphs

    if G.d < 2:
        raise ValueError("signing search needs d >= 2")
    if not spectral.is_connected(G):
        raise ValueError("signing search needs a connected graph")
    if restarts < 1:
        raise ValueError("signing search needs restarts >= 1")
    lam_base = spectral.lambda2(G)

    def score(signs: np.ndarray) -> float:
        top = np.linalg.eigvalsh(spectral.normalized_adjacency(G, signs))[-1]
        return max(lam_base, float(top))

    best = None  # ((rounded lambda, sign tuple), lambda)
    for r in range(restarts):
        child = (*seed, r) if isinstance(seed, tuple) else (seed, r)
        signs = np.random.default_rng(child).choice((-1, 1), size=G.m)
        lam = score(signs)
        for _ in range(SEARCH_MAX_PASSES):
            flip, bar = None, round(lam, 9)
            for i in range(G.m):
                signs[i] = -signs[i]
                lam_c = score(signs)
                signs[i] = -signs[i]
                if round(lam_c, 9) < bar:
                    flip, lam_flip, bar = i, lam_c, round(lam_c, 9)
            if flip is None:
                break
            signs[flip] = -signs[flip]
            lam = lam_flip
        key = (round(lam, 9), tuple(int(x) for x in signs))
        if best is None or key < best[0]:
            best = (key, lam)
    (_, signs), lam = best
    return Signing(G.edges(), signs), lam


def edge_expansion_exact(
    G: RegularGraph, cap: int = EXPANSION_CAP
) -> tuple[float, tuple[int, ...]]:
    """Exact edge expansion h(G) = min_{0<|S|<=n/2} |E(S, V\\S)| / |S|.

    Enumerates subsets containing vertex 0 (complement symmetry halves the
    space) in Gray-code order with incremental cut updates. Returns the
    minimum ratio and a minimizing set of size <= n/2.
    """
    n = G.n
    if n > cap:
        raise TooLarge(f"n={n} exceeds exhaustive cap {cap}")
    if n < 2:
        raise ValueError("edge expansion needs n >= 2")
    nbr = [0] * n
    for v in range(n):
        for u in G.adjacency[v]:
            nbr[v] |= 1 << u
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
    set_a = set(int(v) for v in A)
    if any(not (0 <= v < G.n) for v in set_a):
        raise ValueError("subset contains out-of-range vertices")
    set_b: set[int] = set()
    if B is not None:
        set_b = set(int(v) for v in B)
        if any(not (0 <= v < G.n) for v in set_b):
            raise ValueError("subset contains out-of-range vertices")
        common = set_a & set_b
        if common:
            raise Overlap(f"subsets share vertices, e.g. {min(common)}")
    inner = 0
    cross = 0
    for v in set_a:
        for u in G.adjacency[v]:
            if u in set_a:
                inner += 1
            elif u in set_b:
                cross += 1
    inner //= 2
    m = G.m
    return VertexSubsetMeasures(
        w=len(set_a) / G.n,
        e_within=inner / m if m else 0.0,
        e_cross=cross / m if m else 0.0,
        size=len(set_a),
        inner_edges=inner,
        cross_edges=cross,
    )
