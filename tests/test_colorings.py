import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromacode import colorings, graphs
from chromacode.colorings import (
    Coloring,
    _assignment_max,
    _brute_max,
    agreement_matrix,
    coordinate_colorings,
    distance,
    enumerate_proper,
    is_proper,
    layered_bipartite_pair,
    make_coloring,
    sample_bipartite_biased,
    sample_gadget_coloring,
)
from chromacode.errors import BindingMismatch, OutOfRange, PreconditionFail, TooLarge
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


def chromatic_polynomial_cycle(n, q):
    """Proper q-colorings of C_n: (q-1)^n + (-1)^n (q-1)."""
    return (q - 1) ** n + (-1) ** n * (q - 1)


# per-vertex loop references for the array samplers: same draws, same colors

def biased_reference(G, q, tau, seed):
    rng = np.random.default_rng(seed)
    labels = G.part_labels.tolist()
    part0 = [v for v in range(G.n) if labels[v] == 0]
    part1 = [v for v in range(G.n) if labels[v] == 1]
    low = q // 2
    colors = [None] * G.n
    marked = rng.random(len(part0)) < tau
    uniform0 = rng.integers(0, low, size=len(part0))
    for k, v in enumerate(part0):
        colors[v] = q - 1 if marked[k] else int(uniform0[k])
    uniform1 = rng.integers(low, q, size=len(part1))
    adj = G.adjacency.tolist()
    for k, v in enumerate(part1):
        colors[v] = q - 2 if any(colors[u] == q - 1 for u in adj[v]) else int(uniform1[k])
    return colors


def gadget_reference(H, q, seed):
    """The colors of a draw on gadget_expand(H), block by block."""
    rng = np.random.default_rng(seed)
    colors = rng.integers(0, q, size=H.n).tolist() + [None] * (9 * H.n)
    for x, y, xpart, ypart in gadget_blocks(H):
        i, j = colors[x], colors[y]
        cx, cy = ((i + 1) % q, (i + 2) % q) if i == j else (j, i)
        for a in xpart:
            colors[a] = cx
        for b in ypart:
            colors[b] = cy
    return colors


def first_monochromatic_edge(G, colors):
    for u, v in G.edges():
        if colors[u] == colors[v]:
            return u, v
    return None


INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


@st.composite
def range_cases(draw):
    """A q and int64 colors, weighted towards the ends of [0, q) and of int64."""
    q = draw(st.integers(2, 40))
    edges = st.sampled_from([INT64_MIN, -1, 0, q - 1, q, INT64_MAX])
    return q, draw(st.lists(st.one_of(edges, st.integers(INT64_MIN, INT64_MAX)), max_size=8))


class TestColoringValues:
    @settings(max_examples=300, deadline=None)
    @given(range_cases(), st.booleans())
    def test_range_check(self, case, as_array):
        q, values = case
        colors = np.array(values, dtype=np.int64) if as_array else values
        if all(0 <= c < q for c in values):
            assert Coloring(q, colors, edgeless(len(values))).colors.tolist() == values
        else:
            with pytest.raises(OutOfRange, match="color out of range"):
                Coloring(q, colors, edgeless(len(values)))

    @pytest.mark.parametrize(
        "colors",
        [[0.7, 2.9], [0, 1.0], np.array([0.0, 1.0]), ["1", "2"], [0, "1"],
         [None], [Fraction(1)], np.array([1], dtype=object) + Fraction(0)],
    )
    def test_non_integer_colors_rejected(self, colors):
        with pytest.raises(PreconditionFail, match="colors must be integers"):
            Coloring(3, colors, edgeless(len(colors)))

    @pytest.mark.parametrize(
        "colors,want",
        [([], []), ((0, 2), [0, 2]), (np.array([1, 0], dtype=np.uint8), [1, 0]),
         ([np.int32(2), 1], [2, 1]), ([True, False], [1, 0])],
    )
    def test_integer_colors_kept(self, colors, want):
        X = Coloring(3, colors, edgeless(len(colors)))
        assert X.colors.dtype == np.int64 and X.colors.tolist() == want

    @pytest.mark.parametrize(
        "colors",
        [[2**63], [1, 2**63], [-1, 2**63], [2**70], [0, -(2**70)],
         np.array([2**63, 1], dtype=np.uint64)],
    )
    def test_integers_beyond_int64_out_of_range(self, colors):
        with pytest.raises(OutOfRange, match="color out of range"):
            Coloring(3, colors, edgeless(len(colors)))

    def test_hash_follows_equality(self):
        a, b = Coloring(3, [0, 1, 2], edgeless(3)), Coloring(3, np.array([0, 1, 2]), edgeless(3))
        assert a == b and hash(a) == hash(b)
        others = [Coloring(4, [0, 1, 2], edgeless(3)), Coloring(3, [0, 1, 2], complete_graph(3)),
                  Coloring(3, [0, 2, 1], edgeless(3))]
        assert len({a, b, *others}) == 4


class TestRelabeled:
    def test_permutation_applied(self):
        X = make_coloring(cycle_graph(5), 3, [0, 1, 0, 1, 2])
        assert X.relabeled((2, 0, 1)).colors.tolist() == [2, 0, 2, 0, 1]
        assert X.relabeled(np.array([1, 2, 0])).graph is X.graph

    @pytest.mark.parametrize("sigma", [[0, 0, 1], [1, 2], [2, 1, 0, 3], [0, 1, 3]],
                             ids=["repeat", "short", "long", "outside"])
    def test_non_permutation_refused(self, sigma):
        # [0, 0, 1] would merge two color classes into an improper coloring,
        # [1, 2] would index past sigma, [2, 1, 0, 3] would carry a fourth color
        X = make_coloring(cycle_graph(5), 3, [0, 1, 0, 1, 2])
        with pytest.raises(PreconditionFail, match=r"sigma is not a permutation of range\(3\)"):
            X.relabeled(sigma)


class TestIsProper:
    def test_k3_proper(self):
        K3 = complete_graph(3)
        assert is_proper(K3, make_coloring(K3, 3, [0, 1, 2])) == (True, None)

    def test_k3_violation(self):
        K3 = complete_graph(3)
        ok, edge = is_proper(K3, make_coloring(K3, 3, [0, 0, 1]))
        assert not ok and edge == (0, 1)

    def test_c5(self):
        C5 = cycle_graph(5)
        assert is_proper(C5, make_coloring(C5, 3, [0, 1, 0, 1, 2]))[0]

    def test_binding(self):
        K3 = complete_graph(3)
        X = make_coloring(K3, 3, [0, 1, 2])
        with pytest.raises(BindingMismatch):
            is_proper(complete_graph(4), X)

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(1)
        for G in (random_regular_bipartite(20, 3, seed=1), tensor_power(3, 2), cycle_graph(9)):
            for q in (2, 3, 4):
                for _ in range(30):
                    colors = rng.integers(0, q, size=G.n).tolist()
                    edge = first_monochromatic_edge(G, colors)
                    assert is_proper(G, make_coloring(G, q, colors)) == (edge is None, edge)


class TestAgreementMatrix:
    def test_self_is_diagonal(self):
        C5 = cycle_graph(5)
        X = make_coloring(C5, 3, [0, 1, 0, 1, 2])
        M = agreement_matrix(X, X)
        assert M[0, 0] == 2 and M[1, 1] == 2 and M[2, 2] == 1
        assert M.sum() == 5 and np.all(M == np.diag(np.diag(M)))

    def test_coordinate_pair_all_ones(self):
        T = tensor_power(3, 2)
        X, Y = coordinate_colorings(3, 2, T)
        assert np.all(agreement_matrix(X, Y) == 1)

    def test_disjoint_supports(self):
        G = graphs.build_from_edges(2, [(0, 1)])
        X = make_coloring(G, 3, [0, 0])
        Y = make_coloring(G, 3, [1, 2])
        M = agreement_matrix(X, Y)
        assert M[0, 1] == 1 and M[0, 2] == 1 and M.sum() == 2


class TestDistance:
    def test_identical(self):
        C5 = cycle_graph(5)
        X = make_coloring(C5, 3, [0, 1, 0, 1, 2])
        assert distance(X, X) == (0, (0, 1, 2))

    def test_coordinate_colorings(self):
        T = tensor_power(3, 2)
        X, Y = coordinate_colorings(3, 2, T)
        d, _ = distance(X, Y)
        assert d == 6  # (1 - 1/q) q^N

    def test_layered_pair_value(self):
        # q=3, parts of 10 on a 20-vertex bipartite graph: 2(q-2)n with n=5
        G = random_regular_bipartite(10, 3, seed=2)
        X, Y = layered_bipartite_pair(G, 3)
        d, _ = distance(X, Y)
        assert d == 10

    def test_sigma_applied_to_second(self):
        # returned sigma must realize the distance on Y
        T = tensor_power(3, 2)
        X, Y = coordinate_colorings(3, 2, T)
        d, sigma = distance(X, Y)
        hamming = sum(
            1 for a, b in zip(X.colors, Y.colors) if a != sigma[b]
        )
        assert hamming == d

    def test_brute_equals_assignment(self, fixture_graphs):
        rng = np.random.default_rng(5)
        G = fixture_graphs["rb16"]
        for q in (3, 4, 5):
            for trial in range(200):
                tau = float(rng.random() * 0.5)
                X = sample_bipartite_biased(G, q, tau, seed=(50, q, trial, 0))
                Y = sample_bipartite_biased(G, q, tau, seed=(50, q, trial, 1))
                perm = tuple(rng.permutation(q).tolist())
                X = X.relabeled(perm)
                M = agreement_matrix(X, Y)
                db, sb = _brute_max(M)
                da, sa = _assignment_max(M)
                assert db == da
                assert sb == sa

    def test_pseudometric(self, fixture_graphs):
        G = fixture_graphs["C5"]
        cols = enumerate_proper(G, 3)
        rng = np.random.default_rng(8)
        for _ in range(100):
            i, j, k = rng.integers(0, len(cols), size=3)
            dij, _ = distance(cols[i], cols[j])
            dji, _ = distance(cols[j], cols[i])
            djk, _ = distance(cols[j], cols[k])
            dik, _ = distance(cols[i], cols[k])
            assert dij == dji
            assert dik <= dij + djk

    def test_zero_iff_relabel(self):
        C5 = cycle_graph(5)
        X = make_coloring(C5, 3, [0, 1, 0, 1, 2])
        assert distance(X, X.relabeled((2, 0, 1)))[0] == 0
        Y = make_coloring(C5, 3, [0, 1, 0, 2, 1])
        assert distance(X, Y)[0] > 0
        # above BRUTE_Q_CAP the Hungarian path decides, on weights of about n q^q
        rng = np.random.default_rng(5)
        for q, half in ((40, 25), (64, 1)):
            G = random_regular_bipartite(half, 1, seed=0)
            X = make_coloring(G, q, rng.integers(0, q, size=G.n))
            assert distance(X, X)[0] == 0
            assert distance(X, X.relabeled(rng.permutation(q).tolist()))[0] == 0
            Y = make_coloring(G, q, [X.colors[0]] * G.n)  # one color class
            assert distance(X, Y)[0] == G.n - (X.colors == X.colors[0]).sum() > 0

    def test_permutation_invariance(self):
        T = tensor_power(3, 2)
        X, Y = coordinate_colorings(3, 2, T)
        rng = np.random.default_rng(3)
        base, _ = distance(X, Y)
        for _ in range(20):
            s1 = tuple(rng.permutation(3).tolist())
            s2 = tuple(rng.permutation(3).tolist())
            assert distance(X.relabeled(s1), Y.relabeled(s2))[0] == base

    def test_upper_bound(self, fixture_graphs):
        G = fixture_graphs["rb16"]
        cap = (1 - 1 / 3) * G.n
        for trial in range(100):
            X = sample_bipartite_biased(G, 3, 0.2, seed=(60, trial, 0))
            Y = sample_bipartite_biased(G, 3, 0.2, seed=(60, trial, 1))
            assert distance(X, Y)[0] <= cap

    def test_binding_mismatch(self):
        C5 = cycle_graph(5)
        X = make_coloring(C5, 3, [0, 1, 0, 1, 2])
        Y = make_coloring(C5, 4, [0, 1, 0, 1, 2])
        with pytest.raises(BindingMismatch):
            distance(X, Y)



@st.composite
def colorings_of_random_graph(draw, count, max_q):
    """(q, [X_1..X_count]): arbitrary color vectors on a random regular bipartite graph."""
    q = draw(st.integers(2, max_q))
    half = draw(st.integers(1, 10))
    G = random_regular_bipartite(
        half, draw(st.integers(0, min(half, 3))), seed=draw(st.integers(0, 2**16))
    )
    vectors = st.lists(st.integers(0, q - 1), min_size=G.n, max_size=G.n)
    return q, [make_coloring(G, q, draw(vectors)) for _ in range(count)]


def agreements(X, Y):
    """|V_sigma| = #{v : X(v) = sigma(Y(v))} for every sigma, in lexicographic order."""
    perms = np.array(list(itertools.permutations(range(X.q))))
    return perms, (X.colors[None, :] == perms[:, Y.colors]).sum(axis=1)


class TestDistanceProperties:
    @settings(max_examples=60, deadline=None)
    @given(colorings_of_random_graph(2, max_q=6))
    def test_symmetric(self, case):
        _, (X, Y) = case
        assert distance(X, Y)[0] == distance(Y, X)[0]

    @settings(max_examples=60, deadline=None)
    @given(colorings_of_random_graph(2, max_q=64), st.data())
    def test_relabel_invariant(self, case, data):
        q, (X, Y) = case
        s1 = data.draw(st.permutations(range(q)))
        s2 = data.draw(st.permutations(range(q)))
        d = distance(X, Y)[0]
        assert distance(X.relabeled(s1), Y)[0] == d
        assert distance(X, Y.relabeled(s2))[0] == d

    @settings(max_examples=60, deadline=None)
    @given(colorings_of_random_graph(3, max_q=6))
    def test_triangle_inequality(self, case):
        _, (X, Y, Z) = case
        assert distance(X, Z)[0] <= distance(X, Y)[0] + distance(Y, Z)[0]

    @settings(max_examples=60, deadline=None)
    @given(colorings_of_random_graph(2, max_q=6))
    def test_n_minus_largest_overlap(self, case):
        _, (X, Y) = case
        _, sizes = agreements(X, Y)
        assert distance(X, Y)[0] == X.n - sizes.max()

    @settings(max_examples=60, deadline=None)
    @given(colorings_of_random_graph(2, max_q=6))
    def test_sigma_is_smallest_maximizer(self, case):
        _, (X, Y) = case
        d, sigma = distance(X, Y)
        assert int((X.colors != np.asarray(sigma)[Y.colors]).sum()) == d
        perms, sizes = agreements(X, Y)
        assert sigma == tuple(perms[np.argmax(sizes)].tolist())  # argmax: first maximum

    @settings(max_examples=40, deadline=None)
    @given(colorings_of_random_graph(2, max_q=8))
    def test_brute_equals_assignment(self, case):
        _, (X, Y) = case
        M = agreement_matrix(X, Y)
        assert _brute_max(M) == _assignment_max(M)

class TestGadgetSampler:
    def test_always_proper(self):
        G = gadget_expand(complete_graph(4))
        for seed in range(200):
            ok, _ = is_proper(G, sample_gadget_coloring(G, 3, seed))
            assert ok

    def test_rule_application(self):
        # reconstruct the rule from the output on both branches
        H = complete_graph(4)
        G = gadget_expand(H)
        q = 4
        seen_equal = seen_diff = False
        for seed in range(60):
            X = sample_gadget_coloring(G, q, seed)
            for x, y, xpart, ypart in gadget_blocks(H):
                i, j = X.colors[x], X.colors[y]
                cx = {X.colors[a] for a in xpart}
                cy = {X.colors[b] for b in ypart}
                assert len(cx) == 1 and len(cy) == 1
                if i == j:
                    seen_equal = True
                    assert cx == {(i + 1) % q} and cy == {(i + 2) % q}
                else:
                    seen_diff = True
                    assert cx == {j} and cy == {i}
        assert seen_equal and seen_diff

    def test_requires_gadget_layout(self, fixture_graphs):
        # the gadget layout is read from the graph: cubic graphs not built by
        # gadget_expand are refused
        for G in (complete_graph(4), fixture_graphs["petersen"]):
            with pytest.raises(PreconditionFail, match="not built by gadget_expand"):
                sample_gadget_coloring(G, 3, 0)

    def test_matches_loop_reference(self):
        H = random_regular_bipartite(8, 3, seed=3)
        G = gadget_expand(H)
        for q in (3, 4, 5):
            for seed in range(40):
                X = sample_gadget_coloring(G, q, (q, seed))
                assert X.colors.tolist() == gadget_reference(H, q, (q, seed))

    def test_one_expansion_per_graph(self, monkeypatch):
        G = gadget_expand(random_regular_bipartite(8, 3, seed=3))
        calls = []
        expand = graphs.gadget_expand
        monkeypatch.setattr(graphs, "gadget_expand", lambda H: calls.append(H) or expand(H))
        colorings._gadget_base.cache_clear()
        for seed in range(50):
            sample_gadget_coloring(G, 3, seed)
        assert len(calls) == 1

    def test_deterministic(self):
        G = gadget_expand(complete_graph(4))
        assert sample_gadget_coloring(G, 3, 5) == sample_gadget_coloring(G, 3, 5)

    def test_marginals_uniform(self):
        # every single-vertex marginal is uniform: the gadget rule maps the two
        # uniform base colors to a uniform part color on both branches, so each
        # count is Binomial(trials, 1/q); check 3-sigma bands at a pinned seed
        G = gadget_expand(complete_graph(4))
        q = 3
        trials = 100_000
        counts = np.zeros((G.n, q), dtype=int)
        for seed in range(trials):
            X = sample_gadget_coloring(G, q, (2024, seed))
            counts[np.arange(G.n), X.colors] += 1
        p = 1 / q
        band = 3.0 * np.sqrt(trials * p * (1 - p))
        assert np.all(np.abs(counts - trials * p) <= band)


class TestBiasedSampler:
    def test_tau_zero_color_split(self):
        G = random_regular_bipartite(20, 3, seed=4)
        for q in (3, 4, 5):
            X = sample_bipartite_biased(G, q, 0.0, seed=1)
            low = q // 2
            for v in range(G.n):
                if G.part_labels[v] == 0:
                    assert X.colors[v] < low
                else:
                    assert X.colors[v] >= low
            assert is_proper(G, X)[0]

    def test_tau_one_forced(self):
        G = random_regular_bipartite(10, 2, seed=4)
        X = sample_bipartite_biased(G, 3, 1.0, seed=1)
        for v in range(G.n):
            assert X.colors[v] == (2 if G.part_labels[v] == 0 else 1)

    def test_always_proper(self):
        G = random_regular_bipartite(30, 4, seed=6)
        rng = np.random.default_rng(0)
        for trial in range(100):
            tau = float(rng.random())
            X = sample_bipartite_biased(G, 3, tau, seed=(9, trial))
            assert is_proper(G, X)[0]

    def test_errors(self):
        G = random_regular_bipartite(5, 2, seed=0)
        with pytest.raises(OutOfRange, match=r"tau=1.5 outside \[0, 1\]"):
            sample_bipartite_biased(G, 3, 1.5, seed=0)
        with pytest.raises(PreconditionFail, match="biased sampler needs part labels"):
            sample_bipartite_biased(complete_graph(4), 3, 0.1, seed=0)

    def test_matches_loop_reference(self):
        G = random_regular_bipartite(60, 4, seed=8)
        for q in (3, 4, 5, 6):
            for tau in (0.0, 0.05, 0.3, 1.0):
                for seed in range(10):
                    X = sample_bipartite_biased(G, q, tau, (q, seed))
                    assert X.colors.tolist() == biased_reference(G, q, tau, (q, seed))


class TestLayeredPair:
    def test_q3_m5(self):
        G = random_regular_bipartite(10, 3, seed=2)
        X, Y = layered_bipartite_pair(G, 3)
        assert is_proper(G, X)[0] and is_proper(G, Y)[0]
        assert distance(X, Y)[0] == 10  # (1 - 1/(q-1)) |V|

    def test_q4_m2(self):
        G = random_regular_bipartite(6, 2, seed=2)
        X, Y = layered_bipartite_pair(G, 4)
        assert distance(X, Y)[0] == 8  # (1 - 1/3) * 12

    def test_bad_part_size(self):
        G = random_regular_bipartite(7, 2, seed=2)
        with pytest.raises(PreconditionFail, match="parts of 7 and 7 are not both"):
            layered_bipartite_pair(G, 3)


class TestCoordinateAndLift:
    def test_pairwise_distance_n3(self):
        cols = coordinate_colorings(3, 3, tensor_power(3, 3))
        assert len(cols) == 3
        for X, Y in itertools.combinations(cols, 2):
            assert distance(X, Y)[0] == 18

    def test_proper_on_tensor(self):
        T = tensor_power(3, 2)
        for X in coordinate_colorings(3, 2, T):
            assert is_proper(T, X)[0]

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([3, 4]), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_lift_preserves_properness_and_doubles_distance(self, q, lifts, seed):
        # on L lifts of K_q^2 by random signings the coordinate colorings are
        # the base ones pulled through every lift (v and v + n over v)
        T = tensor_power(q, 2)
        base = coordinate_colorings(q, 2, T)
        rng = np.random.default_rng(seed)
        L = T
        for _ in range(lifts):
            L = two_lift(L, rng.choice((-1, 1), size=L.m))
        got = coordinate_colorings(q, 2, L)
        assert [X.colors.tolist() for X in got] == [
            np.tile(X.colors, 2**lifts).tolist() for X in base]
        assert all(X.graph_key == L.graph_key and is_proper(L, X)[0] for X in got)
        for (X, Y), (LX, LY) in zip(itertools.combinations(base, 2),
                                    itertools.combinations(got, 2)):
            assert distance(LX, LY)[0] == 2**lifts * distance(X, Y)[0]

    def test_lift_binding(self):
        # a lift of another graph: of the wrong size, or of K_3^2's n and d
        C5 = cycle_graph(5)
        C9_12 = build_from_edges(9, [(i, (i + s) % 9) for s in (1, 2) for i in range(9)])
        for G, named in ((C5, r"n=10 is not a multiple of 3\^2"),
                         (C9_12, r"edge \(0, 1\) has one color in coordinate 0")):
            with pytest.raises(BindingMismatch, match=named):
                coordinate_colorings(3, 2, two_lift(G, np.ones(G.m, dtype=int)))


class TestEnumerate:
    def test_c5_chromatic_polynomial(self):
        got = enumerate_proper(cycle_graph(5), 3)
        assert len(got) == chromatic_polynomial_cycle(5, 3) == 30
        assert all(is_proper(cycle_graph(5), X)[0] for X in got)

    def test_k4_has_no_3_colorings(self):
        assert enumerate_proper(complete_graph(4), 3) == []

    def test_k3_bijections(self):
        assert len(enumerate_proper(complete_graph(3), 3)) == 6

    def test_lexicographic(self):
        got = enumerate_proper(cycle_graph(4), 2)
        assert [X.colors.tolist() for X in got] == [[0, 1, 0, 1], [1, 0, 1, 0]]

    def test_too_large(self):
        with pytest.raises(TooLarge):
            enumerate_proper(random_regular_bipartite(10, 3, seed=0), 3)
