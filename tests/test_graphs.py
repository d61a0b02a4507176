import itertools

import numpy as np
import pytest

from chromacode import graphs, spectral
from chromacode.errors import (
    DuplicateEdge,
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
from chromacode.graphs import (
    Signing,
    build_from_edges,
    complete_graph,
    cycle_graph,
    edge_expansion_exact,
    gadget_expand,
    random_regular_bipartite,
    search_low_lambda_signing,
    subset_measures,
    tensor_power,
    two_lift,
)


class TestBuildFromEdges:
    def test_triangle(self):
        G = build_from_edges(3, [(0, 1), (1, 2), (2, 0)])
        assert (G.n, G.d) == (3, 2)
        assert G.edges() == ((0, 1), (0, 2), (1, 2))

    def test_k4(self):
        G = build_from_edges(4, itertools.combinations(range(4), 2))
        assert (G.n, G.d, G.m) == (4, 3, 6)

    def test_path_is_non_regular(self):
        with pytest.raises(NonRegular):
            build_from_edges(4, [(0, 1), (1, 2), (2, 3)])

    def test_self_loop(self):
        with pytest.raises(SelfLoop):
            build_from_edges(2, [(0, 0)])

    def test_duplicate_edge(self):
        with pytest.raises(DuplicateEdge):
            build_from_edges(3, [(0, 1), (1, 0), (1, 2), (0, 2)])

    def test_empty_graph_is_zero_regular(self):
        G = build_from_edges(5, [])
        assert G.d == 0 and G.m == 0

    def test_part_labels_must_cross(self):
        with pytest.raises(NotBipartite):
            build_from_edges(2, [(0, 1)], part_labels=[0, 0])

    def test_graph_key_ignores_meta(self):
        G1 = build_from_edges(3, [(0, 1), (1, 2), (2, 0)])
        G2 = build_from_edges(3, [(0, 1), (1, 2), (2, 0)], meta={"kind": "x"})
        assert G1.graph_key == G2.graph_key

    @pytest.mark.parametrize(
        "n,edges,error",
        [(3, [(0, 1), (1, 1), (1, 0)], SelfLoop),
         (3, [(0, 1), (1, 0), (1, 1)], DuplicateEdge),
         (3, [(0, 1), (2, 2), (0, 5)], SelfLoop),
         (3, [(0, 5), (1, 1)], ValueError)],
    )
    def test_first_bad_edge_decides(self, n, edges, error):
        with pytest.raises(error) as exc:
            build_from_edges(n, edges)
        assert type(exc.value) is error

    def test_adjacency_array_matches_edge_sets(self):
        rng = np.random.default_rng(4)
        for G in (random_regular_bipartite(30, 5, seed=1), tensor_power(3, 2), cycle_graph(7)):
            edges = list(G.edges())
            rng.shuffle(edges)
            H = build_from_edges(G.n, [(v, u) for u, v in edges], part_labels=G.part_labels)
            nbrs = [set() for _ in range(G.n)]
            for u, v in edges:
                nbrs[u].add(v)
                nbrs[v].add(u)
            assert H.adjacency.shape == (G.n, G.d) and H.adjacency.dtype == np.int64
            assert H.adjacency.tolist() == [sorted(a) for a in nbrs]
            assert not H.adjacency.flags.writeable
            assert H == G and H.graph_key == G.graph_key


class TestConstructors:
    def test_complete(self):
        assert complete_graph(3).m == 3
        assert complete_graph(4).m == 6
        assert complete_graph(2).m == 1

    def test_cycle(self):
        assert cycle_graph(3).m == 3
        assert (cycle_graph(5).n, cycle_graph(5).d) == (5, 2)
        with pytest.raises(DuplicateEdge):
            cycle_graph(2)

    def test_tensor_n1_is_complete(self):
        assert tensor_power(3, 1).adjacency.tolist() == complete_graph(3).adjacency.tolist()

    def test_tensor_3_2(self):
        T = tensor_power(3, 2)
        assert (T.n, T.d) == (9, 4)

    def test_tensor_2_2_is_perfect_matching(self):
        # direct enumeration: 00-11 and 01-10 are the only fully-differing pairs
        T = tensor_power(2, 2)
        assert (T.n, T.d) == (4, 1)
        assert T.edges() == ((0, 3), (1, 2))

    def test_tensor_size_cap(self):
        with pytest.raises(SizeCap):
            tensor_power(3, 9)


class TestGadget:
    def test_k4_blowup(self):
        G = gadget_expand(complete_graph(4))
        assert (G.n, G.d, G.m) == (40, 3, 60)
        assert G.meta["base_n"] == 4 and len(G.meta["gadgets"]) == 6

    def test_k33_blowup(self, fixture_graphs):
        G = gadget_expand(fixture_graphs["K33"])
        assert (G.n, G.d) == (60, 3)

    def test_not_cubic(self):
        with pytest.raises(NotCubic):
            gadget_expand(cycle_graph(3))

    def test_gadget_wiring(self):
        # u attaches to x, v to y, uv is the deleted edge, all other cross pairs present
        G = gadget_expand(complete_graph(4))
        for x, y, xpart, ypart in G.meta["gadgets"]:
            u, v = xpart[0], ypart[0]
            assert G.has_edge(x, u) and G.has_edge(y, v)
            assert not G.has_edge(x, y)
            assert not G.has_edge(u, v)
            for a in xpart:
                for b in ypart:
                    if (a, b) != (u, v):
                        assert G.has_edge(a, b)


class TestRandomBipartite:
    def test_matching(self):
        G = random_regular_bipartite(4, 1, seed=0)
        assert (G.n, G.d) == (8, 1)

    def test_validator_and_parts(self):
        G = random_regular_bipartite(100, 3, seed=7)
        assert (G.n, G.d) == (200, 3)
        assert all(
            G.part_labels[u] != G.part_labels[v] for u, v in G.edges()
        )

    def test_degree_exceeds_half(self):
        with pytest.raises(ValueError):
            random_regular_bipartite(2, 3, seed=0)

    def test_seed_determinism(self):
        a = random_regular_bipartite(50, 4, seed=9)
        b = random_regular_bipartite(50, 4, seed=9)
        c = random_regular_bipartite(50, 4, seed=10)
        assert a.edges() == b.edges()
        assert a.edges() != c.edges()

    def test_dense_degree(self):
        # d close to half exercises the repair path
        G = random_regular_bipartite(12, 11, seed=1)
        assert G.d == 11

    @pytest.mark.parametrize(
        "half,d,seed,key",
        [(100, 4, 3, "af5687ecb07c7f41"),
         (10, 10, 3, "0fe76bb3bf9a3b1c"),
         (30, 29, 4, "62791d78f77815f2"),
         (50, 50, 1, "78aac400069b92b0")],
    )
    def test_draws_pinned(self, half, d, seed, key):
        # keys of the tuple-based implementation; all four take the repair path
        assert random_regular_bipartite(half, d, seed=seed).graph_key == key


class TestTwoLift:
    def test_keys_pinned(self):
        # keys of the tuple-based implementation
        T = tensor_power(3, 2)
        R = random_regular_bipartite(10, 3, seed=2)
        assert two_lift(T, Signing.random(T, 13)).graph_key == "1fd5d65fa042f10d"
        assert two_lift(R, Signing.random(R, 4)).graph_key == "4085f5bd7c8dfb82"

    def test_all_plus_is_disjoint_double(self):
        C3 = cycle_graph(3)
        L = two_lift(C3, Signing.all_plus(C3))
        assert set(L.edges()) == {(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)}

    def test_all_minus_c3_is_c6(self):
        # hand oracle: crossing every edge of an odd cycle gives one long cycle
        C3 = cycle_graph(3)
        L = two_lift(C3, Signing.all_minus(C3))
        assert (L.n, L.d) == (6, 2)
        assert spectral.is_connected(L)

    def test_k4_lift_regular(self):
        K4 = complete_graph(4)
        L = two_lift(K4, Signing.random(K4, seed=3))
        assert (L.n, L.d, L.m) == (8, 3, 12)

    def test_signing_mismatch(self):
        K4 = complete_graph(4)
        C3 = cycle_graph(3)
        with pytest.raises(SigningMismatch):
            two_lift(K4, Signing.all_plus(C3))

    def test_doubles_counts(self, fixture_graphs):
        for name in ("C5", "prism", "tensor32"):
            G = fixture_graphs[name]
            L = two_lift(G, Signing.random(G, seed=11))
            assert (L.n, L.m, L.d) == (2 * G.n, 2 * G.m, G.d)


def reference_search(G, restarts, seed):
    """The search's greedy rule, scoring each candidate by building its lift."""

    def lam_of(signs):
        return spectral.lambda2(two_lift(G, Signing(G.edges(), signs)))

    best = None
    for r in range(restarts):
        child = (*seed, r) if isinstance(seed, tuple) else (seed, r)
        signs = Signing.random(G, seed=child).signs
        lam = lam_of(signs)
        for _ in range(graphs.SEARCH_MAX_PASSES):
            improved = None
            for i in range(G.m):
                cand = signs[:i] + (-signs[i],) + signs[i + 1:]
                lam_c = lam_of(cand)
                bar = lam if improved is None else improved[0]
                if round(lam_c, 9) < round(bar, 9):
                    improved = (lam_c, cand)
            if improved is None:
                break
            lam, signs = improved
        if best is None or (round(lam, 9), signs) < (round(best[0], 9), best[1]):
            best = (lam, signs)
    return Signing(G.edges(), best[1]), best[0]


class TestSigningSearch:
    def test_k4_beats_all_plus(self):
        # the all-plus lift is disconnected, so its lambda2 is 1
        K4 = complete_graph(4)
        _, lam = search_low_lambda_signing(K4, restarts=50, seed=0)
        assert lam <= 1.0

    def test_c5_matches_exhaustive_oracle(self):
        C5 = cycle_graph(5)
        oracle = min(
            spectral.lambda2(two_lift(C5, Signing(C5.edges(), signs)))
            for signs in itertools.product((-1, 1), repeat=5)
        )
        _, lam = search_low_lambda_signing(C5, restarts=8, seed=1)
        assert lam < 1.0
        assert lam == pytest.approx(oracle, abs=1e-9)

    def test_deterministic(self):
        T = tensor_power(3, 2)
        s1, l1 = search_low_lambda_signing(T, restarts=5, seed=2)
        s2, l2 = search_low_lambda_signing(T, restarts=5, seed=2)
        assert s1 == s2 and l1 == l2

    @pytest.mark.parametrize(
        "make,restarts,seed",
        [*((lambda: tensor_power(3, 2), 5, seed) for seed in range(5)),
         (lambda: complete_graph(4), 10, 0),
         (lambda: cycle_graph(5), 8, 1)],
    )
    def test_matches_lift_building_reference(self, make, restarts, seed):
        G = make()
        signing, lam = search_low_lambda_signing(G, restarts=restarts, seed=seed)
        ref_signing, ref_lam = reference_search(G, restarts, seed)
        assert signing == ref_signing
        assert round(lam, 9) == round(ref_lam, 9)
        assert abs(spectral.lambda2(two_lift(G, signing)) - lam) < 1e-9

    @pytest.mark.parametrize(
        "make,restarts,match",
        [(lambda: build_from_edges(2, [(0, 1)]), 5, "d >= 2"),
         (lambda: build_from_edges(8, [(a + o, b + o) for o in (0, 4)
                                      for a, b in itertools.combinations(range(4), 2)]),
          5, "connected"),
         (lambda: complete_graph(4), 0, "restarts >= 1")],
        ids=["d1", "two-k4", "restarts0"],
    )
    def test_precondition_fail(self, make, restarts, match):
        with pytest.raises(PreconditionFail, match=match):
            search_low_lambda_signing(make(), restarts=restarts, seed=0)


class TestEdgeExpansion:
    def test_k4(self):
        h, witness = edge_expansion_exact(complete_graph(4))
        assert h == pytest.approx(2.0)
        assert len(witness) == 2

    def test_c6(self):
        h, witness = edge_expansion_exact(cycle_graph(6))
        assert h == pytest.approx(2.0 / 3.0)
        assert len(witness) == 3

    def test_disconnected_zero(self, fixture_graphs):
        h, _ = edge_expansion_exact(fixture_graphs["twin_triangles"])
        assert h == 0.0

    def test_witness_is_the_smaller_side(self):
        # the first zero cut holds vertex 0, so it is C6; the witness is its complement
        G = build_from_edges(9, [(i, (i + 1) % 6) for i in range(6)] + [(6, 7), (7, 8), (6, 8)])
        assert edge_expansion_exact(G) == (0.0, (6, 7, 8))

    def test_too_large(self):
        with pytest.raises(TooLarge):
            edge_expansion_exact(random_regular_bipartite(16, 3, seed=0))

    def test_witness_achieves_h(self, fixture_graphs):
        for name in ("C5", "prism", "petersen", "K33"):
            G = fixture_graphs[name]
            h, witness = edge_expansion_exact(G)
            meas = subset_measures(G, witness)
            boundary = meas.size * G.d - 2 * meas.inner_edges
            assert boundary / meas.size == pytest.approx(h)


class TestSubsetMeasures:
    def test_k4_half(self):
        meas = subset_measures(complete_graph(4), [0, 1])
        assert meas.w == pytest.approx(0.5)
        assert meas.e_within == pytest.approx(1 / 6)

    def test_full_and_empty(self, fixture_graphs):
        G = fixture_graphs["petersen"]
        assert subset_measures(G, range(G.n)).w == 1.0
        assert subset_measures(G, range(G.n)).e_within == 1.0
        empty = subset_measures(G, [])
        assert (empty.w, empty.e_within, empty.e_cross) == (0.0, 0.0, 0.0)

    def test_overlap(self):
        with pytest.raises(Overlap):
            subset_measures(complete_graph(4), [0, 1], [1, 2])

    def test_degree_conservation(self, fixture_graphs):
        # 2 e(A) + e(A, complement) = 2 w(A), exactly: 2|E(A)| + |E(A,~A)| = d|A|
        rng = np.random.default_rng(42)
        for G in fixture_graphs.values():
            if G.d == 0:
                continue
            for _ in range(100):
                size = int(rng.integers(0, G.n + 1))
                A = list(rng.choice(G.n, size=size, replace=False))
                comp = [v for v in range(G.n) if v not in set(A)]
                meas = subset_measures(G, A, comp)
                assert 2 * meas.inner_edges + meas.cross_edges == G.d * meas.size


class TestExpansionOracle:
    def test_matches_naive_enumeration(self):
        # independent slow path: iterate every subset directly
        from itertools import combinations as combos

        for G in (
            complete_graph(5),
            cycle_graph(7),
            random_regular_bipartite(4, 2, seed=5),
            tensor_power(2, 3),
        ):
            naive = None
            for size in range(1, G.n // 2 + 1):
                for S in combos(range(G.n), size):
                    inside = set(S)
                    cut = sum(
                        1 for v in S for u in G.adjacency[v] if u not in inside
                    )
                    ratio = cut / size
                    if naive is None or ratio < naive:
                        naive = ratio
            h, _ = edge_expansion_exact(G)
            assert h == pytest.approx(naive)
