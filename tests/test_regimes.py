from fractions import Fraction

import numpy as np
import pytest

from chromacode import colorings as col
from chromacode.codes import CodeSet
from chromacode.colorings import coordinate_colorings, enumerate_proper, make_coloring
from chromacode.errors import ChromaError, OutOfRange, PreconditionFail, QTooLarge
from chromacode.graphs import (
    build_from_edges,
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
    bipartite_threshold,
    hoffman_bound,
    independent_size_bound,
    regime_map_sweep,
    regime_point_csv,
    sigma_profile,
    unique_regime_certificate,
)


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


class TestBipartiteThreshold:
    @pytest.mark.parametrize(
        "q,want",
        [(3, Fraction(1, 4)), (4, Fraction(1, 2)), (5, Fraction(7, 12))],
    )
    def test_values(self, q, want):
        assert bipartite_threshold(q) == want


class TestSigmaProfile:
    def test_identity_pair(self):
        C5 = cycle_graph(5)
        X = make_coloring(C5, 3, [0, 1, 0, 1, 2])
        prof = sigma_profile(C5, X, X)
        idx = prof.sigmas.index((0, 1, 2))
        assert prof.w[idx] == 1.0
        assert prof.e_cross[idx] == 0.0

    def test_layered_pair_max_overlap(self):
        G = random_regular_bipartite(10, 3, seed=2)
        X, Y = col.layered_bipartite_pair(G, 3)
        prof = sigma_profile(G, X, Y)
        assert max(prof.w) == pytest.approx(0.5)

    def test_random_pairs_on_tensor(self):
        T = tensor_power(3, 2)
        cols = enumerate_proper(T, 3)
        rng = np.random.default_rng(1)
        for _ in range(20):
            i, j = rng.integers(0, len(cols), size=2)
            sigma_profile(T, cols[i], cols[j])  # raises on any violation

    def test_q_cap(self):
        G = random_regular_bipartite(9, 2, seed=0)
        X = col.sample_bipartite_biased(G, 9, 0.0, seed=1)
        with pytest.raises(QTooLarge):
            sigma_profile(G, X, X)


class TestIndependentSizeBound:
    def test_bipartite_part_equality(self, fixture_graphs):
        G = fixture_graphs["K33"]
        w, e, ok = independent_size_bound(G, [0, 1, 2])
        assert ok and w == pytest.approx(0.5) and e == 0.0

    def test_whole_vertex_set(self, fixture_graphs):
        G = fixture_graphs["petersen"]
        w, e, ok = independent_size_bound(G, range(G.n))
        assert ok and w == 1.0 and e == 1.0

    def test_k4_triangle(self):
        w, e, ok = independent_size_bound(complete_graph(4), [0, 1, 2])
        assert ok and w == pytest.approx(0.75) and e == pytest.approx(0.5)

    def test_random_subsets(self, fixture_graphs):
        rng = np.random.default_rng(17)
        for G in fixture_graphs.values():
            if G.d == 0:
                continue
            for _ in range(200):
                size = int(rng.integers(0, G.n + 1))
                A = rng.choice(G.n, size=size, replace=False)
                assert independent_size_bound(G, A)[2]


class TestHoffman:
    def test_complete_graphs_tight(self):
        for q in (3, 4, 5, 6):
            assert hoffman_bound(complete_graph(q)) == pytest.approx(q, abs=1e-8)

    def test_bipartite_two(self, fixture_graphs):
        assert hoffman_bound(fixture_graphs["K33"]) == pytest.approx(2.0, abs=1e-8)

    def test_c5(self):
        assert hoffman_bound(cycle_graph(5)) == pytest.approx(2.2360679, abs=1e-6)


@pytest.mark.parametrize(
    "call,error",
    [
        (lambda zoo: bipartite_threshold(2), OutOfRange),
        (lambda zoo: independent_size_bound(build_from_edges(3, []), [0]), PreconditionFail),
        (lambda zoo: hoffman_bound(build_from_edges(3, [])), PreconditionFail),
        (lambda zoo: hoffman_bound(zoo["twin_triangles"]), PreconditionFail),
    ],
    ids=["threshold-q2", "size-bound-d0", "hoffman-d0", "hoffman-disconnected"],
)
def test_bad_input_raises_typed_error(fixture_graphs, call, error):
    with pytest.raises(error):
        call(fixture_graphs)


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

    def test_skip_resume_keys(self):
        config = SweepConfig(
            q=3,
            delta_grid=(Fraction(1, 2), Fraction(2, 3)),
            lambda_grid=(Fraction(1, 5),),
            families=(),
        )
        full = list(regime_map_sweep(config))
        rest = list(regime_map_sweep(config, skip={("1/2", "1/5")}))
        assert len(full) == 2 and len(rest) == 1
        assert regime_point_csv(rest[0]) == regime_point_csv(full[1])

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
