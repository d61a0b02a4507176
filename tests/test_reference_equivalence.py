"""The array-native graph build, constructions, signing search, biased
sampler, graph key, Lanczos product and step, and exact oracle against
reference copies of their per-element or earlier forms.

Each reference below keeps the earlier loop as it was: its RNG calls, float
operations and tie-breaks. The library must match it exactly (equal arrays,
equal floats, equal reprs), since every seeded output rests on those bits.
"""
import hashlib
import itertools
from collections import deque
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chromacode import codes, colorings, graphs, spectral
from chromacode.codes import CodeSet, distance_threshold, exact_max_packing, verify_delta_distinct
from chromacode.colorings import Coloring, enumerate_proper, sample_bipartite_biased
from chromacode.errors import NoConvergence, PreconditionFail, TooLarge
from chromacode.graphs import (
    build_from_edges,
    complete_graph,
    cycle_graph,
    gadget_expand,
    random_regular_bipartite,
    tensor_power,
    two_lift,
)
from conftest import edgeless, gadget_blocks


# -- random_regular_bipartite: the dict/set augmenting-path repair -------------

def reference_complete_permutation(perm, clash, perms, rng):
    half = len(perm)
    assignment = {i: j for i, j in enumerate(perm.tolist()) if not clash[i]}
    owner = {j: i for i, j in assignment.items()}

    def augment(start):
        visited = set()
        came_from = {}
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


def reference_permutations(half, d, seed):
    """The d permutation rows, drawn and repaired as the per-element code did."""
    rng = np.random.default_rng(seed)
    perms = np.empty((0, half), dtype=np.int64)
    for _ in range(d):
        for _ in range(graphs.PERM_REDRAWS):
            perm = rng.permutation(half)
            clash = (perms == perm).any(axis=0)
            if not clash.any():
                break
        else:
            perm = reference_complete_permutation(perm, clash, perms, rng)
        perms = np.vstack([perms, perm])
    return perms


def reference_graph(half, d, seed):
    """The graph as ``build_from_edges`` made it from the permutations' edges."""
    perms = reference_permutations(half, d, seed)
    edges = np.column_stack([np.tile(np.arange(half), d), half + perms.ravel()])
    return build_from_edges(2 * half, edges, part_labels=np.repeat([0, 1], half))


@st.composite
def sizes(draw):
    half = draw(st.integers(1, 60))
    return half, draw(st.integers(0, half))


class TestRepair:
    @settings(max_examples=60, deadline=None)
    @given(size=sizes(), seed=st.integers(0, 2**32 - 1))
    @example(size=(40, 40), seed=0)
    @example(size=(60, 59), seed=3)
    @example(size=(1, 1), seed=0)
    @example(size=(7, 0), seed=2)
    def test_same_adjacency(self, size, seed):
        half, d = size
        assert_same_graph(random_regular_bipartite(half, d, seed), reference_graph(half, d, seed))

    @pytest.mark.parametrize("half,d,seed", [(1000, 25, (7, 0)), (300, 30, 5)])
    def test_same_adjacency_at_sweep_size(self, half, d, seed):
        # the README layered-pair graph: 22 of its 25 rows take the repair
        assert_same_graph(random_regular_bipartite(half, d, seed), reference_graph(half, d, seed))

    @pytest.mark.parametrize("half,d,seed", [(9, 0, 1), (1, 0, 0), (25, 25, (3, 1)),
                                             (1000, 25, (7, 0))])
    def test_same_graph_at_the_edges(self, half, d, seed):
        # d = 0, d = half and the README layered-pair graph
        assert_same_graph(random_regular_bipartite(half, d, seed), reference_graph(half, d, seed))

    @pytest.mark.parametrize("broken", [
        lambda perm, clash, perms, rng: perms[0].copy(),  # collides with row 0 everywhere
        lambda perm, clash, perms, rng: np.where(clash, -1, perm),  # a missed repair
        lambda perm, clash, perms, rng: np.zeros_like(perm),  # not a permutation
    ], ids=["colliding", "missed", "repeated"])
    def test_broken_repair_is_refused(self, monkeypatch, broken):
        monkeypatch.setattr(graphs, "_complete_permutation", broken)
        with pytest.raises(PreconditionFail, match="permutation"):
            random_regular_bipartite(40, 40, 0)

    def test_repair_runs(self, monkeypatch):
        calls = []
        real = graphs._complete_permutation
        monkeypatch.setattr(graphs, "_complete_permutation",
                            lambda *a: calls.append(1) or real(*a))
        random_regular_bipartite(40, 40, 0)
        assert len(calls) >= 30  # a uniform draw rarely avoids 30 earlier rows

    @pytest.mark.parametrize("half,d,seed", [(1000, 25, (7, 0)), (60, 59, 3), (40, 40, 0)])
    def test_both_branches(self, monkeypatch, half, d, seed):
        # a search that ends at its first pop never builds BFS state; the
        # README graph takes that branch at all but one of its clash positions,
        # and the near-full graphs reach the BFS too
        counts = count_repair(monkeypatch)
        G = random_regular_bipartite(half, d, seed)
        monkeypatch.undo()
        assert_same_graph(G, reference_graph(half, d, seed))
        assert counts["searches"] >= 1 and counts["draws"] > counts["clashes"]
        if half == 1000:
            assert (counts["clashes"], counts["draws"], counts["searches"]) == (306, 307, 1)

    @settings(max_examples=40, deadline=None)
    @given(half=st.integers(2, 40), short=st.sampled_from([0, 1]),
           seed=st.integers(0, 2**32 - 1))
    def test_same_adjacency_near_full(self, half, short, seed):
        # at d = half - 1 or half the later rows nearly always take the repair
        d = half - short
        assert_same_graph(random_regular_bipartite(half, d, seed), reference_graph(half, d, seed))


def count_repair(monkeypatch):
    """Count the repair's clash positions, its draws and its BFS searches
    (each a search that did not end at its first pop)."""
    counts = {"clashes": 0, "draws": 0, "searches": 0}
    repair, augment = graphs._complete_permutation, graphs._augment

    class Counted:
        def __init__(self, rng):
            self.rng = rng

        def permutation(self, n):
            counts["draws"] += 1
            return self.rng.permutation(n)

    def counted_repair(perm, clash, perms, rng):
        counts["clashes"] += int(clash.sum())
        return repair(perm, clash, perms, Counted(rng))

    def counted_augment(*args):
        counts["searches"] += 1
        return augment(*args)

    monkeypatch.setattr(graphs, "_complete_permutation", counted_repair)
    monkeypatch.setattr(graphs, "_augment", counted_augment)
    return counts


# -- constructions: per-edge loops ----------------------------------------------

def reference_complete_graph(q):
    return build_from_edges(q, itertools.combinations(range(q), 2))


def reference_cycle_graph(n):
    return build_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def reference_tensor_power(q, N):
    n = q**N
    weights = [q ** (N - 1 - i) for i in range(N)]
    edges = []
    for u in range(n):
        digits = [(u // w) % q for w in weights]
        for offsets in itertools.product(range(1, q), repeat=N):
            v = sum(((digits[i] + offsets[i]) % q) * weights[i] for i in range(N))
            if v > u:
                edges.append((u, v))
    return build_from_edges(n, edges)


def reference_gadget_expand(H):
    edges = []
    for x, y, xpart, ypart in gadget_blocks(H):
        u, v = xpart[0], ypart[0]
        edges.append((x, u))
        edges.append((y, v))
        for a in xpart:
            for c in ypart:
                if (a, c) != (u, v):
                    edges.append((a, c))
    return build_from_edges(10 * H.n, edges)


def assert_same_graph(G, R):
    assert (G.n, G.d) == (R.n, R.d)
    assert np.array_equal(G.adjacency, R.adjacency)
    assert np.array_equal(G.part_labels, R.part_labels)
    assert G.graph_key == R.graph_key


# every (q, N) with N >= 2 and q^N <= 729; N = 1 up to q = 27 and at three larger q
TENSOR_CASES = [(q, N) for q in range(2, 28) for N in range(2, 10) if q**N <= 729]
TENSOR_CASES += [(q, 1) for q in (*range(2, 28), 64, 400, 729)]


class TestConstructions:
    @pytest.mark.parametrize("q,N", TENSOR_CASES, ids=[f"K{q}^{N}" for q, N in TENSOR_CASES])
    def test_tensor_power(self, q, N):
        assert_same_graph(tensor_power(q, N), reference_tensor_power(q, N))

    @pytest.mark.parametrize("q", [2, 3, 5, 17, 400, 1024])
    def test_complete_graph(self, q):
        assert_same_graph(complete_graph(q), reference_complete_graph(q))

    @pytest.mark.parametrize("n", [*range(3, 51), 1001])
    def test_cycle_graph(self, n):
        assert_same_graph(cycle_graph(n), reference_cycle_graph(n))

    @pytest.mark.parametrize(
        "n,message", [(1, "self-loop at vertex 0"), (2, r"edge \(0, 1\) listed twice")]
    )
    def test_cycle_errors(self, n, message):
        for build in (cycle_graph, reference_cycle_graph):
            with pytest.raises(PreconditionFail, match=message):
                build(n)

    @pytest.mark.parametrize("name", ["K4", "prism", "K33", "petersen"])
    def test_gadget_expand(self, fixture_graphs, name):
        H = fixture_graphs[name]
        assert_same_graph(gadget_expand(H), reference_gadget_expand(H))

    @pytest.mark.parametrize("half,seed", [(3, 0), (8, 3), (8, 4), (50, 1), (2000, 5)])
    def test_gadget_expand_random_base(self, half, seed):
        H = random_regular_bipartite(half, 3, seed)
        assert_same_graph(gadget_expand(H), reference_gadget_expand(H))


# -- search_low_lambda_signing: one eigvalsh call per flip, every flip solved -----

def reference_search(G, restarts, seed):
    lam_base = spectral.lambda2(G)
    u, v = G.edge_arrays()

    def score():
        return max(lam_base, float(np.linalg.eigvalsh(A)[-1]))

    def flip_edge(i):
        signs[i] = -signs[i]
        A[u[i], v[i]] = A[v[i], u[i]] = -A[u[i], v[i]]

    best = None
    for r in range(restarts):
        child = (*seed, r) if isinstance(seed, tuple) else (seed, r)
        signs = np.random.default_rng(child).choice((-1, 1), size=G.m)
        A = spectral.normalized_adjacency(G, signs)
        lam = score()
        for _ in range(graphs.SEARCH_MAX_PASSES):
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
    return np.array(signs), lam


def k32_lift():
    T = tensor_power(3, 2)
    return two_lift(T, np.random.default_rng(5).choice((-1, 1), size=T.m))


def k32_lift_lift():
    L = k32_lift()
    return two_lift(L, np.random.default_rng(6).choice((-1, 1), size=L.m))


class TestBatchedSigningSearch:
    @pytest.mark.parametrize(
        "make,restarts,seed",
        [(lambda: tensor_power(4, 2), 2, 0),
         (lambda: tensor_power(4, 2), 2, (7, 3)),
         (k32_lift, 3, 1),
         (k32_lift, 3, (7, 3, 0)),
         (lambda: tensor_power(3, 2), 30, (7, 3, 0)),
         (lambda: tensor_power(3, 3), 2, 5),
         (lambda: tensor_power(3, 3), 2, (7, 3)),
         (k32_lift_lift, 2, 2),
         (k32_lift_lift, 2, (7, 3, 1)),
         (lambda: cycle_graph(9), 8, 3),
         (lambda: cycle_graph(9), 8, (1, 2)),
         (lambda: random_regular_bipartite(20, 3, seed=1), 3, 4),
         (lambda: random_regular_bipartite(20, 3, seed=1), 3, (4, 1))],
        ids=["K4^2-0", "K4^2-tuple", "K3^2-lift-1", "K3^2-lift-tuple", "K3^2-sweep",
             "K3^3-5", "K3^3-tuple", "K3^2-lift-lift-2", "K3^2-lift-lift-tuple", "C9-3",
             "C9-tuple", "bipartite20-4", "bipartite20-tuple"],
    )
    def test_same_signing_and_float(self, make, restarts, seed):
        G = make()
        signs, lam = graphs.search_low_lambda_signing(G, restarts, seed)
        ref_signs, ref_lam = reference_search(G, restarts, seed)
        assert np.array_equal(signs, ref_signs)
        assert repr(lam) == repr(ref_lam)

    def test_small_batches(self, monkeypatch):
        # one matrix per stack (so one restart per lockstep group), and a
        # stack that divides neither m nor the restarts
        G = k32_lift()
        ref = reference_search(G, 7, 4)
        for size in (1, 5 * 8 * G.n * G.n):
            monkeypatch.setattr(graphs, "FLIP_BATCH_BYTES", size)
            stacks = []
            monkeypatch.setattr(graphs.np.linalg, "eigh", recording(np.linalg.eigh, stacks))
            monkeypatch.setattr(graphs.np.linalg, "eigvalsh", recording(np.linalg.eigvalsh, stacks))
            signs, lam = graphs.search_low_lambda_signing(G, 7, 4)
            monkeypatch.undo()
            assert np.array_equal(signs, ref[0]) and repr(lam) == repr(ref[1])
            assert max(stacks) == max(1, size // (8 * G.n * G.n))

    def test_solves_screened(self, monkeypatch):
        # the README sweep's search solves 291 flipped or initial matrices
        # (every flip solved: 1,686), and lambda2 of K_3^2 one more
        stacks = []
        monkeypatch.setattr(graphs.np.linalg, "eigvalsh", recording(np.linalg.eigvalsh, stacks))
        graphs.search_low_lambda_signing(tensor_power(3, 2), 30, (7, 3, 0))
        assert sum(stacks) <= 400


def recording(solve, stacks):
    """``solve``, appending the number of matrices of each call to ``stacks``."""
    def counted(a, *args, **kwargs):
        a = np.asarray(a)
        stacks.append(1 if a.ndim == 2 else len(a))
        return solve(a, *args, **kwargs)
    return counted


# -- sample_bipartite_biased: the full part-1 neighbor gather --------------------

def reference_biased(G, q, tau, seed):
    rng = np.random.default_rng(seed)
    part0 = np.flatnonzero(G.part_labels == 0)
    part1 = np.flatnonzero(G.part_labels == 1)
    low = q // 2
    colors = np.empty(G.n, dtype=np.int64)
    marked = rng.random(len(part0)) < tau
    uniform0 = rng.integers(0, low, size=len(part0))
    colors[part0] = np.where(marked, q - 1, uniform0)
    uniform1 = rng.integers(low, q, size=len(part1))
    forced = (colors[G.adjacency[part1]] == q - 1).any(axis=1)
    colors[part1] = np.where(forced, q - 2, uniform1)
    return Coloring(q, colors, G)


def interleaved_lift():
    """A 2-lift of a bipartite graph whose part labels alternate along the ids."""
    H = random_regular_bipartite(30, 4, seed=9)
    ids = np.empty(H.n, dtype=np.int64)
    ids[H.part_labels == 0] = np.arange(0, H.n, 2)
    ids[H.part_labels == 1] = np.arange(1, H.n, 2)
    u, v = H.edge_arrays()
    labels = np.empty(H.n, dtype=np.int64)
    labels[ids] = H.part_labels
    B = build_from_edges(H.n, np.column_stack([ids[u], ids[v]]), part_labels=labels)
    return two_lift(B, np.random.default_rng(2).choice((-1, 1), size=B.m))


class TestBiasedSampler:
    @pytest.mark.parametrize("tau", [0.0, 1 / 128, 0.5, 1.0])
    @pytest.mark.parametrize("q", [3, 5])
    def test_same_coloring(self, q, tau):
        G = interleaved_lift()
        assert G.part_labels[:4].tolist() == [0, 1, 0, 1]
        for seed in range(20):
            assert sample_bipartite_biased(G, q, tau, (3, seed)) == reference_biased(
                G, q, tau, (3, seed)
            )


# -- graph_key: the per-edge f-string -------------------------------------------

def reference_key(G):
    h = hashlib.sha256(f"{G.n}|{G.d}|".encode())
    if G.part_labels is not None:
        h.update(",".join(map(str, G.part_labels.tolist())).encode())
    h.update(b"|")
    h.update("".join(f"{u},{v};" for u, v in G.edges()).encode())
    return h.hexdigest()[:16]


class TestGraphKey:
    @pytest.mark.parametrize(
        "make",
        [lambda: build_from_edges(1, []),
         lambda: build_from_edges(2, [(0, 1)]),
         *(lambda n=n: cycle_graph(n) for n in (3, 10, 11, 100, 101, 1001, 10001)),
         lambda: random_regular_bipartite(600, 3, seed=1),
         lambda: random_regular_bipartite(5, 5, seed=2),
         interleaved_lift,
         lambda: tensor_power(3, 3)],
        ids=["n1-d0", "K2", "C3", "C10", "C11", "C100", "C101", "C1001", "C10001",
             "bipartite-1200", "K5,5", "interleaved-lift", "K3^3"],
    )
    def test_same_key(self, make):
        G = make()
        assert G.graph_key == reference_key(G)


# -- Lanczos: the product as a loop over the neighbor rows -----------------------

def reference_neighbor_sum(v, columns):
    w = v[columns[0]]
    for col in columns[1:]:
        w += v[col]
    return w


class TestNeighborSum:
    @pytest.mark.parametrize("d", [1, 3, 25])
    def test_same_bits(self, d):
        G = random_regular_bipartite(300, d, seed=d)
        columns = np.ascontiguousarray(G.adjacency.T)
        v = np.random.default_rng(d).standard_normal(G.n)
        assert np.array_equal(spectral._neighbor_sum(v, columns),
                              reference_neighbor_sum(v, columns))

    @pytest.mark.parametrize(
        "make",
        [lambda: random_regular_bipartite(200, 1, seed=3),
         lambda: random_regular_bipartite(200, 3, seed=3),
         lambda: random_regular_bipartite(1000, 25, seed=(7, 0)),
         lambda: cycle_graph(1001)],
        ids=["d1", "d3", "d25", "C1001"],
    )
    def test_same_reprs(self, make, monkeypatch):
        G = make()
        assert G.n > spectral.LANCZOS_MIN_N
        got = repr(spectral.lambda2(G))
        monkeypatch.setattr(spectral, "_neighbor_sum", reference_neighbor_sum)
        assert got == repr(spectral.lambda2(G))


def reference_lanczos_top(apply, size, n, tol):
    """``spectral._lanczos_top`` with numpy's wrappers: ``w.mean()``,
    ``np.linalg.norm`` and ``w / b``."""
    m, k = spectral.LANCZOS_BASIS, spectral.LANCZOS_KEEP
    V = np.empty((m, size))
    T = np.zeros((m, m))
    x = np.random.default_rng(0xC0DE).standard_normal(size)
    x -= x.mean()
    V[0] = x / np.linalg.norm(x)
    j = steps = 0
    while True:
        v = V[j]
        w = apply(v)
        w -= w.mean()
        steps += 1
        T[j, j] = v @ w
        basis = V[: j + 1]
        for _ in range(2):  # classical Gram-Schmidt, twice
            w -= (basis @ w) @ basis
        b = float(np.linalg.norm(w))
        full = j + 1 == m
        if b <= spectral.LANCZOS_TOL or full or steps % spectral.LANCZOS_CHECK == 0 \
                or steps >= spectral.LANCZOS_MAX_STEPS:
            theta, S = np.linalg.eigh(T[: j + 1, : j + 1])
            residual = b * abs(S[-1, -1])
            if b <= spectral.LANCZOS_TOL or residual <= tol(theta[-1]):
                return float(theta[-1])
            if steps >= spectral.LANCZOS_MAX_STEPS:
                raise NoConvergence(
                    f"Lanczos did not converge on n={n} after "
                    f"{steps} steps (residual {residual:.3g})"
                )
            if full:  # thick restart (Wu-Simon) from the top k Ritz pairs
                for c in range(0, size, 4096):  # in place, no k x size temporary
                    V[:k, c : c + 4096] = S[:, -k:].T @ V[:, c : c + 4096]
                T[:] = 0.0
                T[:k, :k] = np.diag(theta[-k:])
                T[k, :k] = T[:k, k] = b * S[-1, -k:]
                V[k] = w / b
                j = k
                continue
        T[j, j + 1] = T[j + 1, j] = b
        V[j + 1] = w / b
        j += 1


class TestLanczosTop:
    @pytest.mark.parametrize(
        "make",
        [lambda: random_regular_bipartite(1000, 25, seed=(7, 0)),
         lambda: random_regular_bipartite(1000, 4, seed=(7, 1)),
         lambda: random_regular_bipartite(5000, 3, seed=(1,)),
         lambda: cycle_graph(1001),
         lambda: tensor_power(7, 3)],
        ids=["layered-pair", "biased", "bipartite10000", "C1001", "K7^3"],
    )
    def test_same_reprs(self, make, monkeypatch):
        # the README sweep's two graphs, a long restart-heavy run, and two
        # graphs without part labels (the unlabelled path)
        G = make()
        assert G.n > spectral.LANCZOS_MIN_N
        got = repr(spectral.lambda2(G))
        monkeypatch.setattr(spectral, "_lanczos_top", reference_lanczos_top)
        assert got == repr(spectral.lambda2(G))


# -- the exact oracle: backtracking enumeration and one distance per pair --------

def reference_enumerate_proper(G, q):
    """Every proper q-coloring, by backtracking over vertices in id order."""
    if G.n > colorings.ENUM_CAP:
        raise TooLarge(f"n={G.n} exceeds enumeration cap {colorings.ENUM_CAP}")
    lower_nbrs = [[u for u in row if u < v] for v, row in enumerate(G.adjacency.tolist())]
    out = []
    assigned = [0] * G.n

    def backtrack(v):
        if v == G.n:
            out.append(Coloring(q, assigned, G))
            return
        blocked = {assigned[u] for u in lower_nbrs[v]}
        for c in range(q):
            if c not in blocked:
                assigned[v] = c
                backtrack(v + 1)

    backtrack(0)
    return out


def reference_canonical(all_colorings):
    """The colorings whose running maximum grows by at most 1 per vertex."""
    if not all_colorings:
        return []
    running_max = np.maximum.accumulate(np.array([X.colors for X in all_colorings]), axis=1)
    canonical = (np.diff(running_max, axis=1, prepend=-1) <= 1).all(axis=1)
    return [X for X, keep in zip(all_colorings, canonical) if keep]


def reference_exact_max_packing(all_colorings, n, delta):
    """The oracle on a precomputed ``reference_enumerate_proper`` list:
    canonical filter, one ``distance`` call per pair, then the clique. Above
    n - ceil(n/q) no pair can qualify (pigeonhole over the q! relabelings),
    so there the cap is not checked, and above the cap no pair is measured."""
    delta = Fraction(delta)
    k = len(all_colorings)
    prov = {"method": "exact", "colorings": k}
    if not all_colorings:
        return 0, CodeSet((), delta, None, prov)
    thr = distance_threshold(delta, n)
    q = all_colorings[0].q
    unreachable = thr > n - -(-n // q)
    if k > codes.CLIQUE_CAP and not unreachable:
        raise TooLarge(f"{k} colorings exceed the clique cap {codes.CLIQUE_CAP}")
    unmeasured = unreachable and k > codes.CLIQUE_CAP
    if thr <= 0:
        return k, CodeSet(tuple(all_colorings), delta, 0 if k > 1 else None, prov)
    reps = reference_canonical(all_colorings)
    r = len(reps)
    adj = [0] * r
    dist = {}
    for i in range(r):
        for j in range(i + 1, r) if not unmeasured else ():
            dist[i, j], _ = colorings.distance(reps[i], reps[j])
            if dist[i, j] >= thr:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    clique = codes._max_clique(adj, r)
    members = tuple(reps[i] for i in clique)
    min_dist = min((dist[i, j] for i in clique for j in clique if i < j), default=None)
    return len(members), CodeSet(members, delta, min_dist, prov)


def assert_same_oracle(G, q):
    """Equal coloring lists and canonical rows; then equal sizes, witness
    colors in order, min_dist and provenance at every delta = j/n, or
    TooLarge from both."""
    all_colorings = reference_enumerate_proper(G, q)
    got = enumerate_proper(G, q)
    assert got == all_colorings
    assert all(X.colors.dtype == np.int64 for X in got)
    rows = colorings._proper_rows(G, q)
    assert rows.tolist() == [X.colors.tolist() for X in reference_canonical(all_colorings)]
    for j in range(G.n + 1):
        delta = Fraction(j, G.n)
        try:
            want = reference_exact_max_packing(all_colorings, G.n, delta)
        except TooLarge:
            with pytest.raises(TooLarge):
                exact_max_packing(G, q, delta)
            continue
        size, code = exact_max_packing(G, q, delta)
        assert size == want[0], delta
        assert [X.colors.tolist() for X in code.members] == [
            X.colors.tolist() for X in want[1].members
        ], delta
        assert code.min_dist == want[1].min_dist, delta
        assert dict(code.provenance) == dict(want[1].provenance), delta


ORACLE_GRAPHS = ["C5", "C6", "C7", "prism", "K33", "petersen", "C4", "K4"]
# rows using fewer than q colors (q > n), edgeless graphs (every assignment is
# proper), and a graph with no proper coloring
ORACLE_EDGE_CASES = [("K2", 5), ("C5", 6), ("edgeless3", 4), ("edgeless1", 3), ("C5", 2)]


@st.composite
def small_graphs(draw):
    """Cycles, complete graphs and random regular bipartite graphs on at
    most 8 vertices, with the vertex ids shuffled."""
    kind = draw(st.sampled_from(["cycle", "complete", "bipartite"]))
    if kind == "cycle":
        G = cycle_graph(draw(st.integers(3, 8)))
    elif kind == "complete":
        G = complete_graph(draw(st.integers(2, 5)))
    else:
        half = draw(st.integers(1, 4))
        G = random_regular_bipartite(half, draw(st.integers(0, half)), seed=draw(st.integers(0, 99)))
    relabel = draw(st.permutations(range(G.n)))
    return build_from_edges(G.n, [(relabel[u], relabel[v]) for u, v in G.edges()])


class TestExactOracle:
    @pytest.fixture(scope="class")
    def oracle_graphs(self, fixture_graphs):
        return {**fixture_graphs, "C4": cycle_graph(4), "K2": complete_graph(2),
                "edgeless3": build_from_edges(3, []), "edgeless1": build_from_edges(1, [])}

    @pytest.mark.parametrize(
        "name,q", [(name, q) for name in ORACLE_GRAPHS for q in (3, 4)] + ORACLE_EDGE_CASES
    )
    def test_same_colorings_and_oracle(self, oracle_graphs, name, q):
        assert_same_oracle(oracle_graphs[name], q)

    @settings(max_examples=40, deadline=None)
    @given(G=small_graphs(), q=st.integers(2, 4))
    def test_same_on_small_graphs(self, G, q):
        assert_same_oracle(G, q)

    def test_enumeration_cap(self):
        with pytest.raises(TooLarge):
            exact_max_packing(random_regular_bipartite(9, 3, seed=0), 3, Fraction(1, 2))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_distance_matrix_matches_pairwise_distance(self, data):
        # both ways of maximizing over sigma read the same agreement counts:
        # pair by pair (fewer pairs than q! sigmas, or q above BRUTE_Q_CAP)
        # and the running maximum over all q! sigmas (at least q! pairs)
        q = data.draw(st.sampled_from([2, 3, 4, 5, colorings.BRUTE_Q_CAP + 1]))
        n = data.draw(st.integers(1, 9))
        rows = np.array(data.draw(st.lists(
            st.lists(st.integers(0, q - 1), min_size=n, max_size=n), min_size=1, max_size=9
        )), dtype=np.int64)
        got = colorings._distance_matrix(rows, q)
        members = [Coloring(q, row, edgeless(n)) for row in rows]
        want = [[colorings.distance(X, Y)[0] for Y in members] for X in members]
        assert got.tolist() == want
        # verify on the same members, some repeated: every pair's distance in
        # combinations order and the first closest pair
        code = members + members[:data.draw(st.integers(0, len(members)))]
        delta = Fraction(data.draw(st.integers(0, n)), n)
        res = verify_delta_distinct(CodeSet(tuple(code), delta))
        pairs = list(itertools.combinations(range(len(code)), 2))
        dists = tuple(colorings.distance(code[i], code[j])[0] for i, j in pairs)
        assert res.distances == dists
        assert all(type(d) is int for d in res.distances) and type(res.ok) is bool
        if pairs:
            k = dists.index(min(dists))
            ok = dists[k] >= distance_threshold(delta, n)
            assert (res.ok, res.min_dist, res.worst_pair) == (ok, dists[k], pairs[k])
        else:
            assert (res.ok, res.min_dist, res.worst_pair) == (True, None, None)
