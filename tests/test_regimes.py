from fractions import Fraction

import numpy as np
import pytest

from chromacode import colorings as col
from chromacode.codes import CodeSet
from chromacode.colorings import Coloring, coordinate_colorings, enumerate_proper
from chromacode.errors import ChromaError, OutOfRange
from chromacode.graphs import (
    complete_graph,
    cycle_graph,
    random_regular_bipartite,
    tensor_power,
)
from chromacode.regimes import (
    CERTIFIED,
    COUNTEREXAMPLE,
    UNKNOWN,
    SweepConfig,
    SweepFamily,
    regime_map_sweep,
    regime_point_csv,
    unique_regime_certificate,
)
from chromacode.spectral import lambda2
from lemmas import overlap_cut_holds, size_bound_holds


class TestCertificate:
    def test_certified_point(self):
        res = unique_regime_certificate(3, Fraction(2, 3), Fraction(1, 5))
        assert res.certified
        assert res.lhs == Fraction(1, 3)
        assert res.rhs == Fraction(3, 8)

    def test_boundary_not_certified(self):
        res = unique_regime_certificate(3, Fraction(2, 3), Fraction(1, 4))
        assert not res.certified
        assert res.lhs == res.rhs == Fraction(1, 3)

    def test_lower_delta_never_certified(self):
        res = unique_regime_certificate(3, Fraction(1, 2), Fraction(1, 100))
        assert not res.certified
        assert res.lhs == Fraction(1, 2)
        assert res.rhs == Fraction(49, 99)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            unique_regime_certificate(3, Fraction(1, 4), Fraction(1, 5))
        with pytest.raises(OutOfRange):
            unique_regime_certificate(3, Fraction(2, 3), Fraction(1))

    def test_monotone_on_grid(self):
        # certified(delta, lam) implies certified at larger delta / smaller lam
        q = 3
        deltas = [Fraction(1, 2) + Fraction(k, 60) for k in range(0, 11)]
        lams = [Fraction(k, 40) for k in range(1, 16)]
        table = {
            (d, l): unique_regime_certificate(q, d, l).certified
            for d in deltas
            for l in lams
        }
        for d, l in table:
            if table[(d, l)]:
                for d2 in deltas:
                    for l2 in lams:
                        if d2 >= d and l2 <= l:
                            assert table[(d2, l2)]


class TestSigmaProfile:
    def test_identity_pair(self):
        C5 = cycle_graph(5)
        X = Coloring(3, [0, 1, 0, 1, 2], C5)
        assert overlap_cut_holds(X, X, lambda2(C5))

    def test_layered_pair_max_overlap(self):
        G = random_regular_bipartite(10, 3, seed=2)
        X, Y = col.layered_bipartite_pair(G, 3)
        # the check asserts d(X, Y) = n (1 - max_sigma w), so max_sigma w = 1/2
        assert overlap_cut_holds(X, Y, lambda2(G)) and col.distance(X, Y)[0] == G.n // 2

    def test_random_pairs_on_tensor(self):
        T = tensor_power(3, 2)
        cols = enumerate_proper(T, 3)
        rng = np.random.default_rng(1)
        for _ in range(20):
            i, j = rng.integers(0, len(cols), size=2)
            assert overlap_cut_holds(cols[i], cols[j], lambda2(T))


class TestIndependentSizeBound:
    def test_bipartite_part_equality(self, fixture_graphs):
        assert size_bound_holds(fixture_graphs["K33"], [0, 1, 2])  # w = 1/2, e = 0

    def test_whole_vertex_set(self, fixture_graphs):
        assert size_bound_holds(fixture_graphs["petersen"], range(10))  # w = e = 1

    def test_k4_triangle(self):
        assert size_bound_holds(complete_graph(4), [0, 1, 2])  # w = 3/4, e = 1/2

    def test_random_subsets(self, fixture_graphs):
        rng = np.random.default_rng(17)
        for G in fixture_graphs.values():
            for _ in range(200):
                size = int(rng.integers(0, G.n + 1))
                assert size_bound_holds(G, rng.choice(G.n, size=size, replace=False))


class TestSweep:
    def test_smoke_grid_counts(self):
        config = SweepConfig(
            q=3,
            delta_grid=(Fraction(1, 4), Fraction(1, 2), Fraction(2, 3)),
            lambda_grid=(Fraction(1, 5), Fraction(2, 5), Fraction(9, 10)),
            families=(),
        )
        rows = list(regime_map_sweep(config))
        assert len(rows) == 9

    def test_certified_point_in_grid(self):
        config = SweepConfig(
            q=3,
            delta_grid=(Fraction(2, 3),),
            lambda_grid=(Fraction(1, 5),),
            families=(),
        )
        (row,) = list(regime_map_sweep(config))
        assert row.classification == CERTIFIED

    def test_counterexample_via_layered_pair(self):
        config = SweepConfig(
            q=3,
            delta_grid=(Fraction(1, 2),),
            lambda_grid=(Fraction(9, 10),),
            families=(SweepFamily("layered-pair", {"d": 6, "m": 10}),),
            seed=5,
        )
        (row,) = list(regime_map_sweep(config))
        assert row.classification == COUNTEREXAMPLE
        assert row.evidence["min_dist"] == row.evidence["n"] // 2

    def test_unknown_without_evidence(self):
        config = SweepConfig(
            q=3,
            delta_grid=(Fraction(13, 24),),
            lambda_grid=(Fraction(1, 2),),
            families=(),
        )
        (row,) = list(regime_map_sweep(config))
        assert row.classification == UNKNOWN

    def test_csv_shape(self):
        config = SweepConfig(
            q=3,
            delta_grid=(Fraction(2, 3),),
            lambda_grid=(Fraction(1, 5), Fraction(1, 2)),
            families=(),
        )
        for row in regime_map_sweep(config):
            line = regime_point_csv(row)
            assert len(line.split(",")) == 9

    def test_config_normalises_grids(self):
        config = SweepConfig(q=3, delta_grid=["1/2"], lambda_grid=[1, "-1"])
        assert config.delta_grid == (Fraction(1, 2),) and config.lambda_grid == (1, -1)
        assert all(type(x) is Fraction for x in config.lambda_grid)
        assert config.families == ()

    @pytest.mark.parametrize(
        "value,want",
        [(0, Fraction(0)), ("1/2", Fraction(1, 2)), (Fraction(2, 5), Fraction(2, 5)),
         (False, None), (True, None), (0.5, None), (None, None)],
        ids=["int", "str", "fraction", "false", "true", "float", "none"],
    )
    @pytest.mark.parametrize("grid", ["delta_grid", "lambda_grid"])
    def test_grid_value_types(self, grid, value, want):
        # a JSON false read as Fraction(False) ran the sweep at delta = 0
        other = "lambda_grid" if grid == "delta_grid" else "delta_grid"
        kwargs = {grid: ["1/2", value], other: ["1/2"]}
        if want is None:
            with pytest.raises(ChromaError, match=f'"{grid}" values must be ints, strings or'):
                SweepConfig(q=3, **kwargs)
        else:
            assert getattr(SweepConfig(q=3, **kwargs), grid) == (Fraction(1, 2), want)

    # the paper's sharp transition at delta = 1 - 1/q: just below
    # lambda2(K_q^2) = 1/(q-1)^2 the point is certified unique, at it the
    # dense eigenvalue (within the 1e-12 slack) backs a counterexample
    @pytest.mark.parametrize(
        "q,want",
        [(3, ["3,2/3,249/1000,certified-unique,certificate,,,,",
              "3,2/3,1/4,counterexample-exists,tensor-lift(N=2,lifts=0),9,0.25,2,6"]),
         (4, ["4,3/4,991/9000,certified-unique,certificate,,,,",
              "4,3/4,1/9,counterexample-exists,tensor-lift(N=2,lifts=0),16,0.1111111111,2,12"]),
         (5, ["5,4/5,123/2000,certified-unique,certificate,,,,",
              "5,4/5,1/16,counterexample-exists,tensor-lift(N=2,lifts=0),25,0.0625,2,20"])],
    )
    def test_sharp_transition(self, q, want):
        lam = Fraction(1, (q - 1) ** 2)
        config = SweepConfig(
            q=q,
            delta_grid=(1 - Fraction(1, q),),
            lambda_grid=(lam - Fraction(1, 1000), lam),
            families=(SweepFamily("tensor-lift", {"N": 2, "lifts": 0}),),
            seed=7,
        )
        assert [regime_point_csv(pt) for pt in regime_map_sweep(config)] == want

    # one family kind each; pins the graph, sampler and pack seed derivations
    @pytest.mark.parametrize(
        "kind,params,want",
        [
            ("layered-pair", {"d": 6, "m": 10}, [
                "3,1/4,1,counterexample-exists,layered-pair(d=6,m=10),40,0.6064186645,2,20",
                "3,1/2,1,counterexample-exists,layered-pair(d=6,m=10),40,0.6064186645,2,20",
                "3,2/3,1,unknown,,,,,",
            ]),
            ("biased", {"d": 4, "half": 50}, [
                "3,1/4,1,counterexample-exists,biased(d=4,half=50),100,0.8412158614,4,25",
                "3,1/2,1,unknown,,,,,",
                "3,2/3,1,unknown,,,,,",
            ]),
            ("gadget", {"base_half": 4}, [
                "3,1/4,1,counterexample-exists,gadget(base_half=4),80,0.9775613165,4,23",
                "3,1/2,1,counterexample-exists,gadget(base_half=4),80,0.9775613165,4,41",
                "3,2/3,1,unknown,,,,,",
            ]),
            ("tensor-lift", {"N": 2, "lifts": 1, "restarts": 5}, [
                "3,1/4,1,counterexample-exists,tensor-lift(N=2,lifts=1),18,0.5,2,12",
                "3,1/2,1,counterexample-exists,tensor-lift(N=2,lifts=1),18,0.5,2,12",
                "3,2/3,1,counterexample-exists,tensor-lift(N=2,lifts=1),18,0.5,2,12",
            ]),
        ],
    )
    def test_rows_per_family_kind(self, kind, params, want):
        config = SweepConfig(
            q=3,
            delta_grid=(Fraction(1, 4), Fraction(1, 2), Fraction(2, 3)),
            lambda_grid=(Fraction(1),),
            families=(SweepFamily(kind, params),),
            seed=3,
            budget=60,
            target=4,
        )
        assert [regime_point_csv(pt) for pt in regime_map_sweep(config)] == want
