import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import chain, zip_longest
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromacode import codes, fileio, graphs, spectral
from chromacode import colorings as col
from chromacode.codes import (
    CodeSet,
    SweepFamily,
    build_family_instance,
    distance_threshold,
    exact_max_packing,
    greedy_pack,
    max_distance,
    verify_delta_distinct,
)
from chromacode.colorings import coordinate_colorings, enumerate_proper, make_coloring
from chromacode.errors import BindingMismatch, OutOfRange, PreconditionFail, TooLarge
from chromacode.graphs import complete_graph, cycle_graph, gadget_expand, tensor_power
from conftest import edgeless


class TestThreshold:
    @pytest.mark.parametrize(
        "delta,n,want",
        [
            (Fraction(1, 5), 5, 1),
            (Fraction(0), 9, 0),
            (Fraction(2, 3), 9, 6),
            (Fraction(11, 20), 40, 22),
            (Fraction(1, 3), 10, 4),  # ceil(10/3)
            (Fraction(1), 7, 7),
        ],
    )
    def test_ceiling(self, delta, n, want):
        assert distance_threshold(delta, n) == want

    @pytest.mark.parametrize("delta", [Fraction(-1, 2), Fraction(3, 2), Fraction(-1, 10**9)])
    def test_outside_unit_interval(self, delta):
        with pytest.raises(OutOfRange, match=rf"delta={delta} outside \[0, 1\]"):
            distance_threshold(delta, 5)

    @pytest.mark.parametrize("delta", [Fraction(-1, 2), Fraction(3, 2)])
    def test_every_caller_refuses_before_work(self, delta):
        C5 = cycle_graph(5)
        X = make_coloring(C5, 3, [0, 1, 0, 1, 2])

        def sampler(s):
            raise AssertionError("sampled before the threshold was checked")

        with pytest.raises(OutOfRange):
            exact_max_packing(C5, 3, delta)
        with pytest.raises(OutOfRange):
            greedy_pack(C5, sampler, delta, target=2, budget=5, seed=0)
        with pytest.raises(OutOfRange):
            verify_delta_distinct(CodeSet((X,), delta))


class TestMaxDistance:
    @pytest.mark.parametrize("n,q,want", [(1, 3, 0), (6, 3, 4), (7, 3, 4), (2000, 3, 1333),
                                          (18, 3, 12), (5, 8, 4), (10, 2, 5)])
    def test_value(self, n, q, want):
        assert max_distance(n, q) == want

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.sampled_from([*range(2, col.BRUTE_Q_CAP + 1), 9, 12, 20]),
           st.integers(1, 40))
    def test_bounds_every_distance(self, data, q, n):
        # q above BRUTE_Q_CAP takes the Hungarian path
        rows = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
        X, Y = (col.Coloring(q, data.draw(rows), edgeless(n)) for _ in range(2))
        assert col.distance(X, Y)[0] <= max_distance(n, q)

    def test_reached_by_coordinate_colorings(self):
        # the bound is tight: K_3^2's two coordinate colorings agree on 3 of 9
        # vertices under every relabeling
        X, Y = coordinate_colorings(3, 2, tensor_power(3, 2))
        assert col.distance(X, Y)[0] == max_distance(9, 3) == 6


class TestVerify:
    def test_coordinate_pair(self):
        members = tuple(coordinate_colorings(3, 2, tensor_power(3, 2)))
        res = verify_delta_distinct(CodeSet(members, Fraction(2, 3)))
        assert res.ok and res.min_dist == 6

    def test_delta_too_high(self):
        members = tuple(coordinate_colorings(3, 2, tensor_power(3, 2)))
        res = verify_delta_distinct(CodeSet(members, Fraction(7, 10)))
        assert not res.ok  # 6 < ceil(0.7 * 9) = 7

    def test_singleton_vacuous(self):
        X = coordinate_colorings(3, 2, tensor_power(3, 2))[0]
        res = verify_delta_distinct(CodeSet((X,), Fraction(1)))
        assert res.ok and res.min_dist is None

    def test_distances_and_first_closest_pair(self):
        X, Y = coordinate_colorings(3, 2, tensor_power(3, 2))
        res = verify_delta_distinct(CodeSet((X, Y, X.relabeled((1, 2, 0)), Y), Fraction(1, 2)))
        # pairs (0,1) (0,2) (0,3) (1,2) (1,3) (2,3); two pairs tie at 0
        assert res.distances == (6, 0, 6, 6, 0, 6)
        assert (res.ok, res.min_dist, res.worst_pair) == (False, 0, (0, 2))

    def test_bound_to_the_graph(self):
        G = tensor_power(3, 2)
        C = CodeSet(tuple(coordinate_colorings(3, 2, G)), Fraction(2, 3))
        assert C.graph is G and C.graph_key == G.graph_key == C.members[0].graph_key
        assert CodeSet((), Fraction(0)).graph_key is None

    def test_mixed_binding(self):
        X = coordinate_colorings(3, 2, tensor_power(3, 2))[0]
        C5 = cycle_graph(5)
        Y = make_coloring(C5, 3, [0, 1, 0, 1, 2])
        with pytest.raises(BindingMismatch, match="members bound to different graphs or q values"):
            verify_delta_distinct(CodeSet((X, Y), Fraction(0)))
        # one graph and q, but unequal lengths: the shorter one cannot be made
        with pytest.raises(BindingMismatch, match="8 colors for a graph on 9 vertices"):
            col.Coloring(3, X.colors[:-1], X.graph)


    def test_blocks_give_the_same_distances(self, monkeypatch):
        # a 2 KiB budget splits the products into blocks of at most five
        # colorings and chunks of a few dozen vertices, on both ways of
        # maximizing over sigma: all q! at once (q = 3) and pair by pair
        rng = np.random.default_rng(5)
        for q, r in ((3, 30), (col.BRUTE_Q_CAP + 1, 7)):
            rows = rng.integers(0, q, size=(r, 50))
            whole = col._distance_matrix(rows, q)
            with monkeypatch.context() as patch:
                patch.setattr(col, "DISTANCE_BLOCK_BYTES", 2048)
                assert np.array_equal(col._distance_matrix(rows, q), whole)

    def test_large_q_memory_bounded(self):
        # 3 colorings at q = 64 on 40,000 vertices: one product over all of
        # them held two (192, 40000) float64 factors, 117 MiB at peak
        rows = np.random.default_rng(0).integers(0, 64, size=(3, 40_000))
        C = CodeSet(tuple(col.Coloring(64, x, edgeless(40_000)) for x in rows), Fraction(1, 2))
        tracemalloc.start()
        try:
            res = verify_delta_distinct(C)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.ok
        assert peak < 3 * col.DISTANCE_BLOCK_BYTES


class TestGreedyPack:
    def test_gadget_example(self):
        G = gadget_expand(complete_graph(4))
        sampler = lambda s: col.sample_gadget_coloring(G, 3, s)
        C = greedy_pack(G, sampler, Fraction(11, 20), target=64, budget=5000, seed=5)
        assert len(C) >= 2
        assert verify_delta_distinct(C).ok

    def test_delta_above_cap_gives_singleton(self):
        # (1 - 1/q) n is the distance ceiling, so delta above it packs <= 1
        G = gadget_expand(complete_graph(4))
        sampler = lambda s: col.sample_gadget_coloring(G, 3, s)
        C = greedy_pack(
            G, sampler, Fraction(2, 3) + Fraction(1, 10), target=8, budget=300, seed=5
        )
        assert len(C) <= 1
        # the bound ends the pack after its first member, not the budget
        assert C.provenance["draws_used"] == 1
        assert not C.provenance["budget_exhausted"]
        assert C.provenance["max_distance"] == max_distance(G.n, 3) == 26

    def test_threshold_above_the_bound_draws_once(self):
        G = cycle_graph(7)  # thr ceil(5/7 * 7) = 5 = max_distance(7, 3) + 1
        draws = []
        enumerated = codes.SAMPLERS["enumerated"](G, 3)
        sampler = lambda s: draws.append(s) or enumerated(s)
        C = greedy_pack(G, sampler, Fraction(5, 7), target=8, budget=100, seed=0)
        assert (len(C), C.min_dist, draws) == (1, None, [(0, 0)])
        assert C.provenance["draws_used"] == 1
        assert not C.provenance["budget_exhausted"]
        assert C.provenance["max_distance"] == 4

    def test_threshold_at_the_bound_still_packs(self):
        G = cycle_graph(6)  # thr ceil(2/3 * 6) = 4 = max_distance(6, 3)
        sampler = codes.SAMPLERS["enumerated"](G, 3)
        C = greedy_pack(G, sampler, Fraction(2, 3), target=8, budget=100, seed=0)
        assert (len(C), C.min_dist) == (2, 4)
        assert "max_distance" not in C.provenance

    def test_tensor_lift_reaches_the_bound(self):
        # the README sweep's tensor-lift row at delta = 2/3: thr 12 = 18 - 6
        fam = SweepFamily("tensor-lift", {"N": 2, "lifts": 1, "restarts": 30})
        G, sampler = fam.build(3, (7, 3))
        C = greedy_pack(G, sampler, Fraction(2, 3), target=8, budget=400, seed=(7, 3))
        assert (G.n, len(C), C.min_dist) == (18, 2, 12)
        assert "max_distance" not in C.provenance

    def test_target_one_is_not_stopped_by_the_bound(self):
        G = cycle_graph(7)
        C = greedy_pack(G, codes.SAMPLERS["enumerated"](G, 3), Fraction(5, 7),
                        target=1, budget=100, seed=0)
        assert len(C) == 1 and "max_distance" not in C.provenance

    def test_stream_that_runs_out_is_not_the_budget(self):
        # C5 has 30 proper 3-colorings: the stream ends before 100 draws
        G = cycle_graph(5)
        C = greedy_pack(G, codes.SAMPLERS["enumerated"](G, 3), Fraction(1, 5),
                        target=64, budget=100, seed=0)
        assert len(C) < 64 and C.provenance["draws_used"] == 30
        assert not C.provenance["budget_exhausted"]
        # the README sweep's layered-pair pack at delta = 1/4: both of its
        # two colorings are kept, far short of the target of 8 and the 400 draws
        fam = SweepFamily("layered-pair", {"d": 25, "m": 500})
        G, sampler = fam.build(3, (7, 0))
        C = greedy_pack(G, sampler, Fraction(1, 4), target=8, budget=400, seed=(7, 0))
        assert (len(C), C.provenance["draws_used"]) == (2, 2)
        assert not C.provenance["budget_exhausted"]

    def test_budget_that_ends_the_pack(self):
        G = cycle_graph(5)
        C = greedy_pack(G, codes.SAMPLERS["enumerated"](G, 3), Fraction(1, 5),
                        target=64, budget=10, seed=0)
        assert C.provenance["draws_used"] == 10 and C.provenance["budget_exhausted"]

    def test_target_one(self):
        G = gadget_expand(complete_graph(4))
        sampler = lambda s: col.sample_gadget_coloring(G, 3, s)
        C = greedy_pack(G, sampler, Fraction(1, 2), target=1, budget=100, seed=0)
        assert len(C) == 1 and C.provenance["draws_used"] == 1

    def test_target_zero_draws_nothing(self):
        def sampler(s):
            raise AssertionError("drew with target 0")

        C = greedy_pack(cycle_graph(6), sampler, Fraction(1, 2), target=0, budget=5, seed=0)
        assert len(C) == 0
        assert (C.provenance["draws_used"], C.provenance["budget_exhausted"]) == (0, False)

    def test_each_target_is_a_prefix(self):
        # stopping at the target changes no draw before it
        G = gadget_expand(complete_graph(4))
        sampler = lambda s: col.sample_gadget_coloring(G, 3, s)
        full = greedy_pack(G, sampler, Fraction(1, 2), target=64, budget=200, seed=3)
        assert len(full) >= 3
        for target in range(1, len(full) + 1):
            C = greedy_pack(G, sampler, Fraction(1, 2), target=target, budget=200, seed=3)
            assert C.members == full.members[:target]

    @pytest.mark.parametrize("budget,target,named", [(-4, 8, "budget=-4"), (5, -1, "target=-1")])
    def test_negative_budget_or_target(self, budget, target, named):
        def sampler(s):
            raise AssertionError("drew with a negative budget or target")

        with pytest.raises(OutOfRange, match=f"{named} is negative"):
            greedy_pack(cycle_graph(6), sampler, Fraction(1, 2), target, budget, seed=0)

    def test_enumerated_sampler_builds_only_drawn_colorings(self, monkeypatch):
        G = cycle_graph(8)
        every = enumerate_proper(G, 3)  # all 258, built before the count starts
        built = Counter()
        post_init = col.Coloring.__post_init__

        def counted(self):
            built["colorings"] += 1
            post_init(self)

        monkeypatch.setattr(col.Coloring, "__post_init__", counted)
        sampler = codes.SAMPLERS["enumerated"](G, 3)
        C = greedy_pack(G, sampler, Fraction(1, 4), target=64, budget=10, seed=0)
        assert C.provenance["draws_used"] == 10 and built == {"colorings": 10}
        # draw i is still the i-th coloring of the full lexicographic list
        assert [sampler((0, i)) for i in range(len(every) + 1)] == every + [None]

    def test_deterministic(self):
        G = gadget_expand(complete_graph(4))
        sampler = lambda s: col.sample_gadget_coloring(G, 3, s)
        a = greedy_pack(G, sampler, Fraction(1, 2), target=5, budget=200, seed=3)
        b = greedy_pack(G, sampler, Fraction(1, 2), target=5, budget=200, seed=3)
        assert [X.colors.tolist() for X in a.members] == [X.colors.tolist() for X in b.members]


class TestExactMaxPacking:
    def test_c5_orbits(self):
        size, witness = exact_max_packing(cycle_graph(5), 3, Fraction(1, 5))
        assert size == 5
        assert verify_delta_distinct(witness).ok

    def test_k3_single_orbit(self):
        size, _ = exact_max_packing(complete_graph(3), 3, Fraction(1, 3))
        assert size == 1

    def test_c5_high_delta_singleton(self):
        size, _ = exact_max_packing(cycle_graph(5), 3, Fraction(7, 10))
        assert size == 1

    def test_no_colorings(self):
        size, witness = exact_max_packing(complete_graph(4), 3, Fraction(1, 2))
        assert size == 0 and len(witness) == 0

    def test_delta_zero_counts_colorings(self):
        size, _ = exact_max_packing(cycle_graph(5), 3, Fraction(0))
        assert size == 30

    def test_monotone_in_delta(self):
        prev = None
        for delta in (Fraction(0), Fraction(1, 5), Fraction(2, 5), Fraction(3, 5)):
            size, _ = exact_max_packing(cycle_graph(5), 3, delta)
            if prev is not None:
                assert size <= prev
            prev = size

    def test_exact_dominates_greedy_on_enumerated_stream(self):
        G = cycle_graph(5)
        stream = enumerate_proper(G, 3)

        def sampler(s):
            i = s[1]
            return stream[i] if i < len(stream) else None

        delta = Fraction(1, 5)
        greedy = greedy_pack(G, sampler, delta, target=100, budget=100, seed=0)
        exact, _ = exact_max_packing(G, 3, delta)
        assert exact >= len(greedy)

    def test_clique_cap(self, monkeypatch):
        monkeypatch.setattr(codes, "CLIQUE_CAP", 10)
        with pytest.raises(TooLarge):
            exact_max_packing(cycle_graph(7), 3, Fraction(0))

    def test_threshold_above_the_bound_needs_no_clique_search(self, monkeypatch):
        # 126 colorings exceed the cap, but at 2/3 no pair of C7 can qualify
        monkeypatch.setattr(codes, "CLIQUE_CAP", 10)
        monkeypatch.setattr(codes, "_max_clique", None)
        G = cycle_graph(7)
        size, witness = exact_max_packing(G, 3, Fraction(2, 3))
        assert (size, witness.min_dist) == (1, None)
        assert "dist" not in codes._oracle_table(G, 3).__dict__  # no distance matrix
        assert witness.rows.tolist() == col._proper_rows(G, 3)[-1:].tolist()
        assert witness.provenance == {"method": "exact", "colorings": 126}
        with pytest.raises(TooLarge):
            exact_max_packing(G, 3, Fraction(1, 7))

    def test_size_table(self, fixture_graphs):
        # q = 3, every delta = k/n below 2/3, then 2/3 itself
        table = {
            "C5": [30, 5, 2, 1, 1],
            "C6": [66, 11, 5, 3, 2],
            "C7": [126, 21, 10, 4, 2, 1],
            "prism": [12, 2, 2, 2, 1],
            "K33": [42, 7, 2, 1, 1],
            "petersen": [120, 20, 10, 5, 4, 2, 1, 1],
        }
        for name, want in table.items():
            G = fixture_graphs[name]
            deltas = [Fraction(k, G.n) for k in range(G.n) if Fraction(k, G.n) < Fraction(2, 3)]
            got = [exact_max_packing(G, 3, d)[0] for d in deltas + [Fraction(2, 3)]]
            assert got == want, name

    def test_witness_is_canonical(self):
        _, witness = exact_max_packing(cycle_graph(6), 3, Fraction(1, 3))
        for X in witness.members:
            first_seen = list(dict.fromkeys(X.colors.tolist()))
            assert first_seen == list(range(len(first_seen)))


EXACT_F_GRAPHS = ["C5", "C6", "C7", "prism", "K33", "petersen"]


def _exact_f_deltas(G):
    """Every delta = k/n below 2/3, then 2/3 itself, ascending."""
    return [Fraction(k, G.n) for k in range(G.n) if Fraction(k, G.n) < Fraction(2, 3)] + [
        Fraction(2, 3)
    ]


def _oracle_result(G, q, delta):
    size, code = exact_max_packing(G, q, delta)
    return size, [X.colors.tolist() for X in code.members], code.min_dist, dict(code.provenance)


class TestOracleTables:
    """The canonical rows and the distance matrix are made once per (G, q)."""

    @pytest.fixture
    def table_work(self, monkeypatch):
        calls = Counter()
        rows, matrix = col._proper_rows, col._distance_matrix

        def counted_rows(G, q):
            calls["canonical rows"] += 1
            return rows(G, q)

        def counted_matrix(reps, q):
            calls["distance matrix"] += 1
            return matrix(reps, q)

        monkeypatch.setattr(col, "_proper_rows", counted_rows)
        monkeypatch.setattr(col, "_distance_matrix", counted_matrix)
        return calls

    def test_one_table_for_every_delta(self, fixture_graphs, table_work):
        G = fixture_graphs["petersen"]
        # equal in content, another object: the same table
        twin = graphs.RegularGraph(G.n, G.d, G.adjacency.copy(), G.part_labels)
        for k in range(G.n + 1):
            exact_max_packing(G, 3, Fraction(k, G.n))
            exact_max_packing(twin, 3, Fraction(k, G.n))
        assert table_work == {"canonical rows": 1, "distance matrix": 1}

    def test_delta_zero_builds_no_matrix(self, fixture_graphs, table_work):
        exact_max_packing(fixture_graphs["petersen"], 3, Fraction(0))
        assert table_work == {"canonical rows": 1}

    def test_call_order_does_not_matter(self, fixture_graphs):
        per_graph = [
            [(G, d) for d in _exact_f_deltas(G)] for G in map(fixture_graphs.get, EXACT_F_GRAPHS)
        ]
        ascending = list(chain(*per_graph))
        cold = {}
        for G, d in ascending:
            codes._oracle_table.cache_clear()
            cold[G.graph_key, d] = _oracle_result(G, 3, d)
        twins = [
            (graphs.RegularGraph(G.n, G.d, G.adjacency.copy(), G.part_labels), d)
            for G, d in ascending
        ]
        orders = {
            "ascending": ascending,
            "descending": [c for run in per_graph for c in reversed(run)],
            "interleaved": [c for c in chain(*zip_longest(*per_graph)) if c],
            "other objects": twins,
        }
        for name, order in orders.items():
            codes._oracle_table.cache_clear()
            for G, d in order:
                assert _oracle_result(G, 3, d) == cold[G.graph_key, d], (name, d)

    def test_caps_checked_after_a_cached_call(self, monkeypatch):
        C7 = cycle_graph(7)
        exact_max_packing(C7, 3, Fraction(1, 7))
        monkeypatch.setattr(codes, "CLIQUE_CAP", 10)
        for delta in (Fraction(0), Fraction(1, 7)):
            with pytest.raises(TooLarge, match="126 colorings exceed the clique cap 10"):
                exact_max_packing(C7, 3, delta)
        monkeypatch.setattr(col, "ENUM_CAP", 6)
        with pytest.raises(TooLarge, match="n=7 exceeds enumeration cap 6"):
            exact_max_packing(C7, 3, Fraction(1, 7))

    def test_cached_arrays_are_read_only(self, fixture_graphs):
        G = fixture_graphs["C6"]
        exact_max_packing(G, 3, Fraction(1, 3))
        table = codes._oracle_table(G, 3)
        for arr in (table.reps, table.dist):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 1


def test_no_masked_array_import(fixture_graphs):
    # np.unique imports numpy.ma on first use, which cost the exact_f
    # benchmark about 0.8 MB of peak RSS and doubled its wall time
    graphs_json = json.dumps([
        [G.n, [list(e) for e in G.edges()]] for G in map(fixture_graphs.get, EXACT_F_GRAPHS)
    ])
    code = (
        "import json, sys\n"
        "from fractions import Fraction\n"
        "from chromacode import codes, graphs, regimes\n"
        "for n, edges in json.loads(sys.argv[1]):\n"
        "    G = graphs.build_from_edges(n, [tuple(e) for e in edges])\n"
        "    for k in range(n + 1):\n"
        "        codes.exact_max_packing(G, 3, Fraction(k, n))\n"
        "families = (codes.SweepFamily('layered-pair', {'d': 4, 'm': 100}),\n"
        "            codes.SweepFamily('biased', {'d': 3, 'half': 40}),\n"
        "            codes.SweepFamily('gadget', {'base_half': 4}),\n"
        "            codes.SweepFamily('tensor-lift', {'restarts': 2}))\n"
        "config = regimes.SweepConfig(3, ('1/4', '2/3'), ('2/5', '9/10'), families, budget=50)\n"
        "assert len(list(regimes.regime_map_sweep(config))) == 4\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(codes.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code, graphs_json], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# (graph, q) cases whose full-enumeration reference stays well under a second
ORACLE_CASES = [
    ("C4", 3), ("C5", 3), ("C6", 3), ("K4", 3), ("prism", 3), ("K33", 3),
    ("C4", 4), ("C5", 4), ("K4", 4),
]
_FULL_DISTANCES: dict = {}


def _full_reference(G, q, delta):
    """Max clique over all proper colorings, relabeling twins included."""
    key = (G.graph_key, q)
    if key not in _FULL_DISTANCES:
        cols = enumerate_proper(G, q)
        dist = {(i, j): col.distance(cols[i], cols[j])[0]
                for i in range(len(cols)) for j in range(i + 1, len(cols))}
        _FULL_DISTANCES[key] = (len(cols), dist)
    k, dist = _FULL_DISTANCES[key]
    thr = distance_threshold(delta, G.n)
    adj = [0] * k
    for (i, j), d in dist.items():
        if d >= thr:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return len(codes._max_clique(adj, k))


@pytest.fixture(scope="module")
def oracle_graphs(fixture_graphs):
    return {**fixture_graphs, "C4": cycle_graph(4)}


class TestQuotientOracle:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(ORACLE_CASES), st.data())
    def test_matches_full_enumeration(self, oracle_graphs, case, data):
        name, q = case
        G = oracle_graphs[name]
        delta = Fraction(data.draw(st.integers(0, G.n)), G.n)
        size, witness = exact_max_packing(G, q, delta)
        assert size == _full_reference(G, q, delta) == len(witness)
        if size:
            assert verify_delta_distinct(witness).ok

    @pytest.mark.parametrize("name,q", ORACLE_CASES)
    def test_delta_zero_returns_every_coloring(self, oracle_graphs, name, q):
        G = oracle_graphs[name]
        cols = enumerate_proper(G, q)
        size, witness = exact_max_packing(G, q, Fraction(0))
        assert size == len(cols) == witness.provenance["colorings"]
        assert list(witness.members) == cols
        assert witness.min_dist == (0 if cols else None)


class TestRowCodes:
    """The oracle's codes hold their members as rows and build no Coloring;
    a code built from the same Colorings behaves the same in every use."""

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(ORACLE_CASES), st.data())
    def test_rows_and_colorings_agree(self, oracle_graphs, case, data):
        name, q = case
        G = oracle_graphs[name]
        delta = Fraction(data.draw(st.integers(0, G.n)), G.n)
        _, from_rows = exact_max_packing(G, q, delta)
        colored = tuple(make_coloring(G, q, row) for row in from_rows.rows.tolist())
        from_colorings = CodeSet(colored, delta, from_rows.min_dist, from_rows.provenance)
        assert from_colorings.members is colored
        assert from_rows.members == colored and len(from_rows) == len(colored)
        if colored:
            assert verify_delta_distinct(from_rows) == verify_delta_distinct(from_colorings)
        else:
            for C in (from_rows, from_colorings):
                with pytest.raises(PreconditionFail, match="at least one member"):
                    verify_delta_distinct(C)
        payloads = [json.dumps(fileio.codeset_payload(C, G.graph_key), indent=2, sort_keys=True)
                    for C in (from_rows, from_colorings)]
        assert payloads[0] == payloads[1]

    def test_oracle_builds_no_coloring(self, fixture_graphs, monkeypatch):
        built = Counter()
        post_init = col.Coloring.__post_init__

        def counted(self):
            built["colorings"] += 1
            post_init(self)

        monkeypatch.setattr(col.Coloring, "__post_init__", counted)
        G = fixture_graphs["C6"]
        witnesses = [exact_max_packing(G, 3, Fraction(k, G.n))[1] for k in range(G.n + 1)]
        assert built == {}
        # a witness's Colorings are built when first read, once
        assert witnesses[0].members is witnesses[0].members
        assert len(witnesses[0]) == 66 and built == {"colorings": 66}

    def test_rows_are_read_only(self):
        _, witness = exact_max_packing(cycle_graph(5), 3, Fraction(1, 5))
        with pytest.raises(ValueError, match="read-only"):
            witness.rows[0, 0] = 1


class TestEmpiricalF:
    """Lower bounds on f along one family: the member whose size param is
    ``size`` is built from seed (seed, size), packed, and its lambda2 measured."""

    @staticmethod
    def member(kind, params, size_key, size, delta, seed, budget=2000, target=64):
        fam = SweepFamily(kind, {**params, size_key: size})
        G, code = build_family_instance(3, fam, (seed, size), delta, target, budget)
        return G, code, spectral.lambda2(G)

    def test_gadget_family_passes_lambda_cap(self):
        for size in (4, 6):
            G, code, lam2 = self.member(
                "gadget", {}, "base_half", size, Fraction(1, 2), seed=12, budget=300, target=8
            )
            assert G.n == 20 * size  # 10x blowup of a 2*size base
            assert lam2 <= 1 - 1e-4
            assert len(code) >= 2

    def test_tensor_lift_family(self):
        G, code, lam2 = self.member(
            "tensor-lift", {"restarts": 10}, "lifts", 1, Fraction(2, 3), seed=3
        )
        assert G.n == 18
        assert len(code) == 2
        assert code.min_dist == 12
        assert lam2 < 1.0

    def test_biased_family_records_lambda(self):
        G, code, lam2 = self.member(
            "biased", {"d": 4}, "half", 40, Fraction(1, 5), seed=4, budget=200, target=4
        )
        assert G.n == 80
        assert 0 < lam2 < 1
        assert len(code) >= 2


class TestCliqueOracle:
    def test_matches_subset_enumeration(self):
        import numpy as np
        from chromacode.codes import _max_clique

        rng = np.random.default_rng(31)
        for trial in range(60):
            n = int(rng.integers(1, 13))
            p = float(rng.random())
            adj = [0] * n
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < p:
                        adj[i] |= 1 << j
                        adj[j] |= 1 << i
            best = 0
            for mask in range(1, 1 << n):
                members = [v for v in range(n) if (mask >> v) & 1]
                if all(
                    (adj[u] >> v) & 1 for k, u in enumerate(members) for v in members[k + 1:]
                ):
                    best = max(best, len(members))
            clique = _max_clique(adj, n)
            assert len(clique) == best
            for k, u in enumerate(clique):
                for v in clique[k + 1:]:
                    assert (adj[u] >> v) & 1
