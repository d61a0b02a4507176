import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chromacode import fileio, graphs, spectral
from chromacode.colorings import Coloring, distance, is_proper
from chromacode.errors import BindingMismatch, OutOfRange, PreconditionFail, TooLarge
from chromacode.graphs import (
    build_from_edges,
    complete_graph,
    cycle_graph,
    gadget_expand,
    random_regular_bipartite,
    search_low_lambda_signing,
    tensor_power,
    two_lift,
)
from conftest import gadget_blocks
from lemmas import degree_conserved, edge_expansion, subset_counts


class TestBuildFromEdges:
    def test_triangle(self):
        G = build_from_edges(3, [(0, 1), (1, 2), (2, 0)])
        assert (G.n, G.d) == (3, 2)
        assert G.edges() == ((0, 1), (0, 2), (1, 2))

    def test_k4(self):
        G = build_from_edges(4, itertools.combinations(range(4), 2))
        assert (G.n, G.d, G.m) == (4, 3, 6)

    def test_path_is_non_regular(self):
        with pytest.raises(PreconditionFail, match="vertex 0 has degree 1 but vertex 1 has 2"):
            build_from_edges(4, [(0, 1), (1, 2), (2, 3)])

    def test_self_loop(self):
        with pytest.raises(PreconditionFail, match="self-loop at vertex 0"):
            build_from_edges(2, [(0, 0)])

    def test_duplicate_edge(self):
        with pytest.raises(PreconditionFail, match=r"edge \(0, 1\) listed twice"):
            build_from_edges(3, [(0, 1), (1, 0), (1, 2), (0, 2)])

    def test_empty_graph_is_zero_regular(self):
        G = build_from_edges(5, [])
        assert G.d == 0 and G.m == 0

    def test_part_labels_must_cross(self):
        with pytest.raises(PreconditionFail, match=r"edge \(0,1\) stays inside part 0"):
            build_from_edges(2, [(0, 1)], part_labels=[0, 0])

    @pytest.mark.parametrize("labels,vertex", [([0, 2, 0, 2], 1), ([0, 1, -1, 1], 2)])
    def test_part_labels_must_be_0_or_1(self, labels, vertex):
        with pytest.raises(OutOfRange, match=f"vertex {vertex} has part label"):
            build_from_edges(4, [(0, 1), (2, 3)], part_labels=labels)

    @pytest.mark.parametrize(
        "n,edges,error,match",
        [(3, [(0, 1), (1, 1), (1, 0)], PreconditionFail, "self-loop at vertex 1"),
         (3, [(0, 1), (1, 0), (1, 1)], PreconditionFail, r"edge \(0, 1\) listed twice"),
         (3, [(0, 1), (2, 2), (0, 5)], PreconditionFail, "self-loop at vertex 2"),
         (3, [(0, 5), (1, 1)], OutOfRange, r"edge \(0,5\) out of range")],
        # the ids name the case each list hits first
        ids=["3-edges0-SelfLoop", "3-edges1-DuplicateEdge", "3-edges2-SelfLoop",
             "3-edges3-OutOfRange"],
    )
    def test_first_bad_edge_decides(self, n, edges, error, match):
        with pytest.raises(error, match=match) as exc:
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


class TestTypedErrors:
    @pytest.mark.parametrize(
        "call,error",
        [(lambda: build_from_edges(0, []), OutOfRange),
         (lambda: build_from_edges(3, [(0, 1, 2)]), PreconditionFail),
         (lambda: build_from_edges(2, [(0, 1)], part_labels=[0]), PreconditionFail),
         (lambda: complete_graph(1), OutOfRange),
         (lambda: cycle_graph(0), OutOfRange),
         (lambda: tensor_power(1, 2), OutOfRange),
         (lambda: tensor_power(3, 0), OutOfRange),
         (lambda: random_regular_bipartite(0, 0, seed=0), OutOfRange),
         (lambda: random_regular_bipartite(3, -1, seed=0), OutOfRange)],
    )
    def test_error_class(self, call, error):
        with pytest.raises(error) as exc:
            call()
        assert type(exc.value) is error


class TestConstructors:
    def test_complete(self):
        assert complete_graph(3).m == 3
        assert complete_graph(4).m == 6
        assert complete_graph(2).m == 1

    def test_cycle(self):
        assert cycle_graph(3).m == 3
        assert (cycle_graph(5).n, cycle_graph(5).d) == (5, 2)
        with pytest.raises(PreconditionFail, match="listed twice"):
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
        with pytest.raises(TooLarge, match=r"q\^N = 19683 exceeds cap"):
            tensor_power(3, 9)

    def test_tensor_work_cap(self):
        # 4,096 vertices pass the vertex cap, but not 16,257,024 adjacency entries
        with pytest.raises(TooLarge, match=r"64\^2 vertices of degree 3969 make 16257024"):
            tensor_power(64, 2)

    def test_complete_work_cap(self):
        # K_q is tensor_power(q, 1): 1,024 x 1,023 adjacency entries pass, 1,025 x 1,024 not
        with pytest.raises(TooLarge, match=r"1025\^1 vertices of degree 1024 make 1049600"):
            complete_graph(1025)

    def test_entries_cap_bounds_cycles_and_random_bipartite(self, monkeypatch):
        assert graphs.GRAPH_ENTRIES_CAP > 3 * 10**6  # a cubic graph on 10^6 vertices fits
        # n d adjacency entries, one per vertex at d = 0, up to the cap and no further
        monkeypatch.setattr(graphs, "GRAPH_ENTRIES_CAP", 20)
        assert cycle_graph(10).n == 10
        assert random_regular_bipartite(5, 2, seed=0).n == 10
        assert random_regular_bipartite(10, 0, seed=0).n == 20
        for build in (lambda: cycle_graph(11), lambda: random_regular_bipartite(6, 2, seed=0),
                      lambda: random_regular_bipartite(11, 0, seed=0)):
            with pytest.raises(TooLarge, match="exceed the cap of 20 adjacency entries"):
                build()


class TestGadget:
    def test_k4_blowup(self):
        H = complete_graph(4)
        G = gadget_expand(H)
        assert (G.n, G.d, G.m) == (40, 3, 60)
        # one block per edge of K4, whose parts tile the vertices after the base
        blocks = gadget_blocks(H)
        assert len(blocks) == 6
        assert sorted(v for _, _, a, b in blocks for v in a + b) == list(range(H.n, G.n))

    def test_k33_blowup(self, fixture_graphs):
        G = gadget_expand(fixture_graphs["K33"])
        assert (G.n, G.d) == (60, 3)

    def test_not_cubic(self):
        with pytest.raises(PreconditionFail, match="needs a 3-regular base, got d=2"):
            gadget_expand(cycle_graph(3))

    def test_gadget_wiring(self):
        # u attaches to x, v to y, uv is the deleted edge, all other cross pairs present
        H = complete_graph(4)
        G = gadget_expand(H)

        def has_edge(a, b):
            return b in G.adjacency[a]

        for x, y, xpart, ypart in gadget_blocks(H):
            u, v = xpart[0], ypart[0]
            assert has_edge(x, u) and has_edge(y, v)
            assert not has_edge(x, y)
            assert not has_edge(u, v)
            for a in xpart:
                for b in ypart:
                    if (a, b) != (u, v):
                        assert has_edge(a, b)


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
        with pytest.raises(OutOfRange):
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
        s_T = np.random.default_rng(13).choice((-1, 1), size=T.m)
        s_R = np.random.default_rng(4).choice((-1, 1), size=R.m)
        assert two_lift(T, s_T).graph_key == "1fd5d65fa042f10d"
        assert two_lift(R, s_R).graph_key == "4085f5bd7c8dfb82"

    def test_all_plus_is_disjoint_double(self):
        C3 = cycle_graph(3)
        L = two_lift(C3, np.ones(C3.m, dtype=int))
        assert set(L.edges()) == {(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)}

    def test_all_minus_c3_is_c6(self):
        # hand oracle: crossing every edge of an odd cycle gives one long cycle
        C3 = cycle_graph(3)
        L = two_lift(C3, -np.ones(C3.m, dtype=int))
        assert (L.n, L.d) == (6, 2)
        assert spectral.is_connected(L)

    def test_k4_lift_regular(self):
        K4 = complete_graph(4)
        L = two_lift(K4, np.random.default_rng(3).choice((-1, 1), size=K4.m))
        assert (L.n, L.d, L.m) == (8, 3, 12)

    def test_signing_mismatch(self):
        K4 = complete_graph(4)
        C3 = cycle_graph(3)
        with pytest.raises(BindingMismatch, match="a signing of this graph is 6 values"):
            two_lift(K4, np.ones(C3.m, dtype=int))
        with pytest.raises(BindingMismatch, match=r"each \+1 or -1"):
            two_lift(K4, np.zeros(K4.m, dtype=int))

    def test_doubles_counts(self, fixture_graphs):
        for name in ("C5", "prism", "tensor32"):
            G = fixture_graphs[name]
            L = two_lift(G, np.random.default_rng(11).choice((-1, 1), size=G.m))
            assert (L.n, L.m, L.d) == (2 * G.n, 2 * G.m, G.d)


def reference_search(G, restarts, seed):
    """The search's greedy rule, scoring each candidate by building its lift."""

    def lam_of(signs):
        return spectral.lambda2(two_lift(G, np.array(signs)))

    best = None
    for r in range(restarts):
        child = (*seed, r) if isinstance(seed, tuple) else (seed, r)
        signs = tuple(np.random.default_rng(child).choice((-1, 1), size=G.m).tolist())
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
    return np.array(best[1]), best[0]


class TestSigningSearch:
    def test_k4_beats_all_plus(self):
        # the all-plus lift is disconnected, so its lambda2 is 1
        K4 = complete_graph(4)
        _, lam = search_low_lambda_signing(K4, restarts=50, seed=0)
        assert lam <= 1.0

    def test_c5_matches_exhaustive_oracle(self):
        C5 = cycle_graph(5)
        oracle = min(
            spectral.lambda2(two_lift(C5, np.array(signs)))
            for signs in itertools.product((-1, 1), repeat=5)
        )
        _, lam = search_low_lambda_signing(C5, restarts=8, seed=1)
        assert lam < 1.0
        assert lam == pytest.approx(oracle, abs=1e-9)

    def test_deterministic(self):
        T = tensor_power(3, 2)
        s1, l1 = search_low_lambda_signing(T, restarts=5, seed=2)
        s2, l2 = search_low_lambda_signing(T, restarts=5, seed=2)
        assert np.array_equal(s1, s2) and l1 == l2

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
        assert np.array_equal(signing, ref_signing)
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
        assert edge_expansion(complete_graph(4)) == 2.0

    def test_c6(self):
        assert edge_expansion(cycle_graph(6)) == 2 / 3

    def test_disconnected_zero(self, fixture_graphs):
        assert edge_expansion(fixture_graphs["twin_triangles"]) == 0.0


class TestSubsetMeasures:
    def test_k4_half(self):
        assert subset_counts(complete_graph(4), [0, 1]) == (2, 1, 4)

    def test_full_and_empty(self, fixture_graphs):
        G = fixture_graphs["petersen"]
        assert subset_counts(G, range(G.n)) == (10, 15, 0)
        assert subset_counts(G, []) == (0, 0, 0)

    def test_degree_conservation(self, fixture_graphs):
        # 2 e(A) + e(A, complement) = 2 w(A), exactly: 2|E(A)| + |E(A,~A)| = d|A|
        rng = np.random.default_rng(42)
        for G in fixture_graphs.values():
            for _ in range(100):
                size = int(rng.integers(0, G.n + 1))
                assert degree_conserved(G, rng.choice(G.n, size=size, replace=False))


class TestExpansionOracle:
    def test_matches_naive_enumeration(self):
        # the vectorized enumeration against a loop over every subset of size <= n/2
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
            assert edge_expansion(G) == pytest.approx(naive)


# -- graph identity: content in memory, graph_key at the file boundary ----------

@st.composite
def small_graphs(draw, kinds=("cycle", "bipartite", "tensor")):
    """A cycle, a random bipartite graph (with part labels, d = 0 allowed) or
    a tensor power."""
    kind = draw(st.sampled_from(kinds))
    if kind == "cycle":
        return cycle_graph(draw(st.integers(3, 30)))
    if kind == "bipartite":
        half = draw(st.integers(1, 12))
        return random_regular_bipartite(half, draw(st.integers(0, half)),
                                        seed=draw(st.integers(0, 2**32 - 1)))
    return tensor_power(draw(st.integers(2, 4)), draw(st.integers(1, 2)))


def greedy_colors(G):
    """A proper coloring with at most d + 1 colors: each vertex in id order
    takes the least color no lower neighbor has."""
    colors = []
    for v, row in enumerate(G.adjacency.tolist()):
        taken = {colors[u] for u in row if u < v}
        colors.append(min(set(range(G.d + 1)) - taken))
    return colors


def labels_of(G):
    return None if G.part_labels is None else G.part_labels.tolist()


def assert_same_graph(G, H):
    """G and H are one graph: equal, equal hashes and keys, and a coloring
    bound to either serves the other."""
    assert G == H and hash(G) == hash(H) and G.graph_key == H.graph_key
    q = max(G.d + 1, 2)
    X, Y = Coloring(q, greedy_colors(G), G), Coloring(q, greedy_colors(G), H)
    assert X == Y and hash(X) == hash(Y)
    assert distance(X, Y)[0] == 0
    assert is_proper(H, X) == is_proper(G, Y) == (True, None)


def assert_other_graph(G, H):
    """G and H differ: unequal, other keys, and a coloring bound to one is
    refused on the other."""
    assert G != H and G.graph_key != H.graph_key
    X = Coloring(2 + G.d, greedy_colors(G), G)
    with pytest.raises(BindingMismatch, match="coloring is bound to a different graph"):
        is_proper(H, X)
    if H.n == G.n:
        Y = Coloring(2 + G.d, [0] * H.n, H)
        with pytest.raises(BindingMismatch, match="colorings are bound to different graphs"):
            distance(X, Y)


class TestGraphIdentity:
    @settings(max_examples=60, deadline=None)
    @given(small_graphs(), st.data())
    def test_shuffled_edges_give_the_same_graph(self, G, data):
        edges = data.draw(st.permutations(G.edges()))
        flips = data.draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
        edges = [(v, u) if flip else (u, v) for (u, v), flip in zip(edges, flips)]
        assert_same_graph(G, build_from_edges(G.n, edges, part_labels=labels_of(G)))

    @settings(max_examples=60, deadline=None)
    @given(small_graphs())
    def test_text_round_trip_gives_the_same_graph(self, G):
        H = fileio.graph_from_text(fileio.graph_to_text(G))
        assert H is not G
        assert_same_graph(G, H)

    @pytest.mark.parametrize("q", range(2, 9))
    def test_complete_graph_is_the_first_tensor_power(self, q):
        assert_same_graph(complete_graph(q), tensor_power(q, 1))

    @settings(max_examples=60, deadline=None)
    @given(small_graphs())
    def test_two_switch_gives_another_graph(self, G):
        # replace edges ab, cd by ad, cb: the least change that keeps G
        # regular, and keeps every edge crossing when the a < b are part 0
        edges = set(G.edges())
        switch = next(((a, b, c, d) for (a, b), (c, d) in itertools.combinations(sorted(edges), 2)
                       if len({a, b, c, d}) == 4 and not {(min(a, d), max(a, d)),
                                                          (min(b, c), max(b, c))} & edges), None)
        assume(switch is not None)
        a, b, c, d = switch
        moved = edges - {(a, b), (c, d)} | {(a, d), (c, b)}
        assert_other_graph(G, build_from_edges(G.n, sorted(moved), part_labels=labels_of(G)))

    def test_one_edge_gives_another_graph(self):
        assert_other_graph(build_from_edges(2, []), build_from_edges(2, [(0, 1)]))

    @settings(max_examples=60, deadline=None)
    @given(small_graphs(["bipartite"]))
    def test_part_labels_alone_give_another_graph(self, G):
        unlabelled = build_from_edges(G.n, G.edges())
        flipped = build_from_edges(G.n, G.edges(), part_labels=(1 - G.part_labels).tolist())
        assert_other_graph(G, unlabelled)
        assert_other_graph(G, flipped)


KEY_ONLY_AT_FILES = """
import json, os, sys
from fractions import Fraction
import chromacode
from chromacode import codes, graphs

petersen = ([(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
            + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
named = {
    "C5": graphs.cycle_graph(5), "C6": graphs.cycle_graph(6), "C7": graphs.cycle_graph(7),
    "prism": graphs.build_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                                         (0, 3), (1, 4), (2, 5)]),
    "K33": graphs.build_from_edges(6, [(i, 3 + j) for i in range(3) for j in range(3)],
                                   part_labels=[0, 0, 0, 1, 1, 1]),
    "petersen": graphs.build_from_edges(10, petersen),
}
sizes = {name: [codes.exact_max_packing(G, 3, Fraction(k, G.n))[0] for k in range(G.n + 1)]
         for name, G in named.items()}
X, *rest = codes.exact_max_packing(named["petersen"], 3, Fraction(1, 2))[1].members
same = X == chromacode.Coloring(3, X.colors.tolist(), graphs.build_from_edges(10, petersen))
hashlib_loaded = "hashlib" in sys.modules
from chromacode import fileio
path = os.path.join(sys.argv[1], "petersen.graph")
fileio.write_graph(path, named["petersen"])
with open(path + ".json") as fh:
    key = json.load(fh)["graph_key"]
print(json.dumps({"sizes": sizes, "same": same, "hashlib": hashlib_loaded, "key": key}))
"""


def test_no_graph_key_without_a_file(tmp_path):
    """In a fresh process, the exact oracle over every delta on six graphs,
    a witness's members and a Coloring comparison load no hashlib: only
    writing a graph file computes its key, which is the one pinned here.
    Inside pytest hashlib is already loaded, hence the new interpreter."""
    env = {**os.environ, "PYTHONPATH": str(Path(graphs.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", KEY_ONLY_AT_FILES, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    # f(C5) and f(Petersen) at delta = k/n, k = 0..n
    assert out["sizes"]["C5"] == [30, 5, 2, 1, 1, 1]
    assert out["sizes"]["petersen"] == [120, 20, 10, 5, 4, 2, 1, 1, 1, 1, 1]
    assert out["same"] and not out["hashlib"]
    assert out["key"] == "bd2372f8b3a6568e"
