from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromacode import codes
from chromacode import colorings as col
from chromacode.codes import (
    CodeSet,
    SweepFamily,
    distance_threshold,
    empirical_f,
    exact_max_packing,
    greedy_pack,
    verify_delta_distinct,
)
from chromacode.colorings import coordinate_colorings, enumerate_proper, make_coloring
from chromacode.errors import MixedBinding, TooLarge
from chromacode.graphs import complete_graph, cycle_graph, gadget_expand


class TestThreshold:
    @pytest.mark.parametrize(
        "delta,n,want",
        [
            (Fraction(1, 5), 5, 1),
            (Fraction(0), 9, 0),
            (Fraction(2, 3), 9, 6),
            (Fraction(11, 20), 40, 22),
            (Fraction(1, 3), 10, 4),  # ceil(10/3)
        ],
    )
    def test_ceiling(self, delta, n, want):
        assert distance_threshold(delta, n) == want


class TestVerify:
    def test_coordinate_pair(self):
        members = tuple(coordinate_colorings(3, 2))
        res = verify_delta_distinct(CodeSet(members, Fraction(2, 3)))
        assert res.ok and res.min_dist == 6

    def test_delta_too_high(self):
        members = tuple(coordinate_colorings(3, 2))
        res = verify_delta_distinct(CodeSet(members, Fraction(7, 10)))
        assert not res.ok  # 6 < ceil(0.7 * 9) = 7

    def test_singleton_vacuous(self):
        X = coordinate_colorings(3, 2)[0]
        res = verify_delta_distinct(CodeSet((X,), Fraction(1)))
        assert res.ok and res.min_dist is None

    def test_mixed_binding(self):
        X = coordinate_colorings(3, 2)[0]
        C5 = cycle_graph(5)
        Y = make_coloring(C5, 3, [0, 1, 0, 1, 2])
        with pytest.raises(MixedBinding):
            verify_delta_distinct(CodeSet((X, Y), Fraction(0)))


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
        assert C.provenance["budget_exhausted"]

    def test_target_one(self):
        G = gadget_expand(complete_graph(4))
        sampler = lambda s: col.sample_gadget_coloring(G, 3, s)
        C = greedy_pack(G, sampler, Fraction(1, 2), target=1, budget=100, seed=0)
        assert len(C) == 1 and C.provenance["draws_used"] == 1

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


class TestQuotientOracle:
    @pytest.fixture(scope="class")
    def oracle_graphs(self, fixture_graphs):
        return {**fixture_graphs, "C4": cycle_graph(4)}

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


class TestEmpiricalF:
    def test_gadget_family_passes_lambda_cap(self):
        sizes = (4, 6)
        rows = empirical_f(
            3, SweepFamily("gadget"), sizes, Fraction(1, 2), lambda_cap=1 - 1e-4,
            seed=12, budget=300, target=8,
        )
        assert len(rows) == 2
        for row, size in zip(rows, sizes):
            assert row.n == 20 * size  # 10x blowup of a 2*size base
            assert not row.rejected
            assert row.code_size >= 2

    def test_tensor_lift_family(self):
        rows = empirical_f(
            3, SweepFamily("tensor-lift", {"restarts": 10}), (1,), Fraction(2, 3),
            lambda_cap=1.0, seed=3,
        )
        (row,) = rows
        assert row.n == 18
        assert row.code_size == 2
        assert row.min_dist == 12
        assert row.lambda2 < 1.0

    def test_biased_family_records_lambda(self):
        (row,) = empirical_f(
            3, SweepFamily("biased", {"d": 4}), (40,), Fraction(1, 5),
            lambda_cap=0.999, seed=4, budget=200, target=4,
        )
        assert row.n == 80
        assert 0 < row.lambda2 < 1
        assert row.code_size >= 2


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
