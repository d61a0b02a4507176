import json
from pathlib import Path

import pytest

from chromacode import colorings, fileio, graphs
from chromacode.cli import _load_sweep_config, main
from chromacode.colorings import coordinate_colorings, is_proper, make_coloring
from chromacode.graphs import Signing, complete_graph, gadget_expand, tensor_power, two_lift


EXPECTED = Path(__file__).parent / "expected"
ROOT = Path(__file__).parent.parent


def run(args):
    return main([str(a) for a in args])


@pytest.fixture()
def tensor_file(tmp_path):
    path = tmp_path / "t32.graph"
    assert run(["construct", "tensor", "--q", 3, "--N", 2, "--out", path]) == 0
    return str(path)


class TestConstruct:
    def test_tensor_roundtrip(self, tensor_file):
        G = fileio.read_graph(tensor_file)
        T = tensor_power(3, 2)
        assert G.adjacency.tolist() == T.adjacency.tolist()
        assert G.graph_key == T.graph_key
        assert G.meta["kind"] == "tensor"  # restored from the sidecar

    def test_gadget_base_k4(self, tmp_path):
        out = tmp_path / "g.graph"
        assert run(["construct", "gadget", "--base", "k4", "--out", out]) == 0
        G = fileio.read_graph(str(out))
        assert (G.n, G.d) == (40, 3)

    def test_random_bipartite_deterministic(self, tmp_path):
        a, b = tmp_path / "a.graph", tmp_path / "b.graph"
        for out in (a, b):
            assert run(
                ["construct", "random-bipartite", "--half", 100, "--d", 3,
                 "--seed", 7, "--out", out]
            ) == 0
        assert a.read_text() == b.read_text()

    def test_two_lift_search(self, tmp_path, tensor_file):
        out = tmp_path / "lift.graph"
        code = run(
            ["construct", "two-lift", "--graph", tensor_file, "--search",
             "--restarts", 5, "--seed", 1, "--out", out, "--with-spectrum"]
        )
        assert code == 0
        G = fileio.read_graph(str(out))
        assert (G.n, G.d) == (18, 4)
        sidecar = json.loads((tmp_path / "lift.graph.json").read_text())
        assert "lambda2" in sidecar

    def test_complete_to_stdout(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["construct", "complete", "--q", 4]) == 0
        assert capsys.readouterr().out == fileio.graph_to_text(complete_graph(4))
        assert list(tmp_path.iterdir()) == []  # no sidecar without --out

    def test_gadget_base_file(self, tmp_path, fixture_graphs):
        base, out = tmp_path / "petersen.graph", tmp_path / "g.graph"
        fileio.write_graph(str(base), fixture_graphs["petersen"])
        assert run(["construct", "gadget", "--base", base, "--out", out]) == 0
        G, want = fileio.read_graph(str(out)), gadget_expand(fixture_graphs["petersen"])
        assert G == want and G.meta == want.meta

    def test_two_lift_signing_file_and_all_plus_default(self, tmp_path, tensor_file):
        base = fileio.read_graph(tensor_file)
        signing = Signing.random(base, seed=3)
        spath, out = tmp_path / "s.txt", tmp_path / "lift.graph"
        fileio.write_signing(str(spath), signing)
        assert run(["construct", "two-lift", "--graph", tensor_file, "--signing", spath,
                    "--out", out]) == 0
        assert fileio.read_graph(str(out)) == two_lift(base, signing)
        assert run(["construct", "two-lift", "--graph", tensor_file, "--out", out]) == 0
        assert fileio.read_graph(str(out)) == two_lift(base, Signing.all_plus(base))

    def test_bad_params_exit_2(self, tmp_path):
        assert run(["construct", "tensor", "--q", 3]) == 2  # missing --N
        assert run(
            ["construct", "random-bipartite", "--half", 2, "--d", 5,
             "--out", tmp_path / "x.graph"]
        ) == 2


class TestSpectrum:
    def test_k4_json(self, tmp_path, capsys):
        path = tmp_path / "k4.graph"
        fileio.write_graph(str(path), complete_graph(4))
        assert run(["spectrum", "--graph", path]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lambda2"] == pytest.approx(-1 / 3, abs=1e-9)
        assert payload["lambda_min"] == pytest.approx(-1 / 3, abs=1e-9)
        assert payload["residual"] < 1e-8
        assert len(payload["eigenvalues"]) == 4


class TestDistance:
    def test_coordinate_pair(self, tmp_path, tensor_file, capsys):
        G = fileio.read_graph(tensor_file)
        X, Y = coordinate_colorings(3, 2, G)
        xp, yp = tmp_path / "x.json", tmp_path / "y.json"
        fileio.write_coloring(str(xp), X)
        fileio.write_coloring(str(yp), Y)
        assert run(["distance", "--graph", tensor_file, xp, yp]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["distance"] == 6
        assert len(payload["sigma"]) == 3


class TestVerify:
    def test_proper_set_passes(self, tmp_path, tensor_file):
        G = fileio.read_graph(tensor_file)
        X, Y = coordinate_colorings(3, 2, G)
        xp, yp = tmp_path / "x.json", tmp_path / "y.json"
        fileio.write_coloring(str(xp), X)
        fileio.write_coloring(str(yp), Y)
        assert run(
            ["verify", "--graph", tensor_file, xp, yp, "--delta", "2/3"]
        ) == 0

    def test_improper_fails(self, tmp_path, tensor_file, capsys):
        G = fileio.read_graph(tensor_file)
        bad = make_coloring(G, 3, [0] * G.n)
        bp = tmp_path / "bad.json"
        fileio.write_coloring(str(bp), bad)
        assert run(["verify", "--graph", tensor_file, bp]) == 1
        assert "IMPROPER" in capsys.readouterr().out

    def test_delta_failure(self, tmp_path, tensor_file):
        G = fileio.read_graph(tensor_file)
        X, Y = coordinate_colorings(3, 2, G)
        xp, yp = tmp_path / "x.json", tmp_path / "y.json"
        fileio.write_coloring(str(xp), X)
        fileio.write_coloring(str(yp), Y)
        assert run(
            ["verify", "--graph", tensor_file, xp, yp, "--delta", "7/10"]
        ) == 1

    def test_json_format(self, tmp_path, tensor_file, capsys):
        G = fileio.read_graph(tensor_file)
        X, Y = coordinate_colorings(3, 2, G)
        xp, yp = tmp_path / "x.json", tmp_path / "y.json"
        fileio.write_coloring(str(xp), X)
        fileio.write_coloring(str(yp), Y)
        assert run(["verify", "--graph", tensor_file, xp, yp, "--delta", "2/3",
                    "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "graph": G.graph_key, "n": 9, "colorings": 2,
            "proper": [{"index": i, "proper": True, "violating_edge": None} for i in (0, 1)],
            "distances": [{"pair": [0, 1], "distance": 6}],
            "delta": "2/3", "threshold": 6, "min_dist": 6, "delta_distinct": True, "ok": True,
        }

    def test_each_pair_distance_computed_once(self, tmp_path, tensor_file, monkeypatch, capsys):
        G = fileio.read_graph(tensor_file)
        X, Y = coordinate_colorings(3, 2, G)
        paths = [tmp_path / f"c{k}.json" for k in range(3)]
        for path, Z in zip(paths, (X, Y, X.relabeled((1, 2, 0)))):
            fileio.write_coloring(str(path), Z)
        calls = []
        distance = colorings.distance
        monkeypatch.setattr(colorings, "distance", lambda A, B: calls.append(1) or distance(A, B))
        assert run(["verify", "--graph", tensor_file, *paths, "--delta", "2/3"]) == 1
        assert len(calls) == 3
        assert "min distance 0 below threshold at pair (0, 2)" in capsys.readouterr().out

    def test_mismatched_n_exit_2(self, tmp_path, tensor_file):
        C5 = graphs.cycle_graph(5)
        X = make_coloring(C5, 3, [0, 1, 0, 1, 2])
        xp = tmp_path / "x5.json"
        fileio.write_coloring(str(xp), X)
        assert run(["verify", "--graph", tensor_file, xp]) == 2


class TestPack:
    def test_gadget_pack(self, tmp_path, capsys):
        gpath = tmp_path / "g.graph"
        run(["construct", "gadget", "--base", "k4", "--out", gpath])
        out = tmp_path / "code.json"
        assert run(
            ["pack", "--graph", gpath, "--q", 3, "--delta", "11/20",
             "--sampler", "gadget", "--budget", 2000, "--target", 4,
             "--seed", 5, "--out", out]
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["size"] >= 2
        assert payload["min_dist"] >= 22
        G = fileio.read_graph(str(gpath))
        code = fileio.read_codeset(str(out), G)
        assert len(code) == payload["size"]

    @pytest.mark.parametrize(
        "sampler,construct",
        [("gadget", ["gadget", "--base", "k4"]), ("enumerated", ["cycle", "--n", 5])],
    )
    def test_tau_with_another_sampler_exit_2(self, tmp_path, capsys, sampler, construct):
        gpath = tmp_path / "g.graph"
        assert run(["construct", *construct, "--out", gpath]) == 0
        out = tmp_path / "code.json"
        assert run(
            ["pack", "--graph", gpath, "--q", 3, "--delta", "1/2",
             "--sampler", sampler, "--tau", "1/2", "--out", out]
        ) == 2
        assert not out.exists()
        assert "--tau" in capsys.readouterr().err

    def test_biased_default_tau(self, tmp_path):
        # d=3: the default tau is 1/(8 d^2) = 1/72
        gpath = tmp_path / "b.graph"
        run(["construct", "random-bipartite", "--half", 20, "--d", 3, "--out", gpath])
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["pack", "--graph", gpath, "--q", 3, "--delta", "1/4",
                "--sampler", "biased", "--budget", 50, "--target", 4, "--seed", 2]
        assert run([*argv, "--out", a]) == 0
        assert run([*argv, "--tau", "1/72", "--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestExactF:
    def test_c5(self, tmp_path, capsys):
        path = tmp_path / "c5.graph"
        fileio.write_graph(str(path), graphs.cycle_graph(5))
        assert run(["exact-f", "--graph", path, "--q", 3, "--delta", "1/5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["size"] == 5
        assert payload["proper_colorings"] == 30
        assert "witness" not in payload

    def test_with_witness(self, tmp_path, capsys):
        path = tmp_path / "c5.graph"
        G = graphs.cycle_graph(5)
        fileio.write_graph(str(path), G)
        assert run(["exact-f", "--graph", path, "--q", 3, "--delta", "2/5",
                    "--with-witness"]) == 0
        payload = json.loads(capsys.readouterr().out)
        members = [make_coloring(G, 3, colors) for colors in payload["witness"]]
        assert len(members) == payload["size"] >= 2
        assert all(is_proper(G, X)[0] for X in members)
        # canonical representatives: colors first appear as 0, 1, 2
        assert all(list(dict.fromkeys(X.colors.tolist())) == [0, 1, 2] for X in members)


class TestCertify:
    def test_certified(self, capsys):
        assert run(["certify", "--q", 3, "--delta", "2/3", "--lambda", "1/5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["certified"] is True
        assert payload["lhs"] == "1/3" and payload["rhs"] == "3/8"

    def test_boundary(self, capsys):
        assert run(["certify", "--q", 3, "--delta", "2/3", "--lambda", "1/4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["certified"] is False

    def test_out_of_range_exit_2(self):
        assert run(["certify", "--q", 3, "--delta", "1/10", "--lambda", "1/4"]) == 2


class TestRegimeMap:
    def write_config(self, tmp_path, families=(), **override):
        cfg = {
            "q": 3,
            "delta_grid": ["1/4", "1/2", "2/3"],
            "lambda_grid": ["1/5", "2/5", "9/10"],
            "families": list(families),
            "seed": 5,
            "budget": 150,
            "target": 4,
            **override,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_smoke_grid(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "map.csv"
        assert run(["regime-map", "--config", cfg, "--out", out]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("q,delta,lambda,classification")
        assert len(lines) == 10  # header + 9 grid points
        certified = [ln for ln in lines if "certified-unique" in ln]
        assert any(ln.startswith("3,2/3,1/5") for ln in certified)

    def test_empty_grid_header_only(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"q": 3, "delta_grid": [], "lambda_grid": []}))
        out = tmp_path / "map.csv"
        assert run(["regime-map", "--config", str(cfg), "--out", out]) == 0
        assert out.read_text().strip().splitlines() == [
            "q,delta,lambda,classification,evidence_kind,n,lambda2_measured,code_size,min_dist"
        ]

    def test_resume_completes_identically(self, tmp_path):
        cfg = self.write_config(
            tmp_path, families=[{"kind": "layered-pair", "d": 6, "m": 10}]
        )
        full = tmp_path / "full.csv"
        assert run(["regime-map", "--config", cfg, "--out", full]) == 0
        want = full.read_bytes()
        # an interrupted sweep leaves any prefix, possibly ending mid-row
        prefix = b"".join(want.splitlines(keepends=True)[:5])
        partial = tmp_path / "partial.csv"
        for cut in range(len(prefix) + 1):
            partial.write_bytes(prefix[:cut])
            assert run(["regime-map", "--config", cfg, "--out", partial, "--resume"]) == 0
            assert partial.read_bytes() == want, cut

    def test_bad_config_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run(["regime-map", "--config", str(bad)]) == 2

    @pytest.mark.parametrize(
        "family,named",
        [({"kind": "gadget", "base-half": 4}, "base_half"),
         ({"kind": "random-bipartite"}, "biased"),
         ({"kind": "layered-pair", "d": 6.9, "m": 10}, "'d' must be an integer, got 6.9"),
         ({"kind": "layered-pair", "d": True, "m": 10}, "'d' must be an integer, got True"),
         ({"kind": "tensor-lift", "lifts": "x"}, "'lifts' must be an integer, got 'x'")],
    )
    def test_bad_family_exit_2_before_output(self, tmp_path, capsys, family, named):
        cfg = self.write_config(tmp_path, families=[family])
        out = tmp_path / "map.csv"
        assert run(["regime-map", "--config", cfg, "--out", out]) == 2
        assert not out.exists()
        assert named in capsys.readouterr().err

    def test_unknown_config_key_exit_2_before_output(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "q": 3, "delta_grid": ["1/2"], "lambda_grid": ["9/10"],
            "famillies": [{"kind": "gadget"}], "budgte": 5,
        }))
        out = tmp_path / "map.csv"
        assert run(["regime-map", "--config", cfg, "--out", out]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        for key in ("famillies", "budgte", "families", "budget", "lambda_grid"):
            assert key in err

    def test_top_level_list_exit_2_before_output(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        out = tmp_path / "map.csv"
        assert run(["regime-map", "--config", cfg, "--out", out]) == 2
        assert not out.exists()
        assert "must be a JSON object" in capsys.readouterr().err

    def test_family_not_object_exit_2_before_output(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, families=["gadget"])
        out = tmp_path / "map.csv"
        assert run(["regime-map", "--config", cfg, "--out", out]) == 2
        assert not out.exists()
        assert "family 0 must be an object" in capsys.readouterr().err

    def test_delta_out_of_range_exit_2_before_output(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"q": 3, "delta_grid": ["1/2", "9/10"], "lambda_grid": ["1/5"]}))
        out = tmp_path / "map.csv"
        assert run(["regime-map", "--config", cfg, "--out", out]) == 2
        assert not out.exists()
        assert "9/10" in capsys.readouterr().err

    def test_tau_out_of_range_exit_2(self, tmp_path, capsys):
        # the biased graph's lambda2 is above 1/2, so no point ever samples it
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "q": 3, "delta_grid": ["1/4"], "lambda_grid": ["1/2"],
            "families": [{"kind": "biased", "tau": "2"}],
        }))
        out = tmp_path / "map.csv"
        assert run(["regime-map", "--config", cfg, "--out", out]) == 2
        assert not out.exists()
        assert "tau=2.0 outside [0, 1]" in capsys.readouterr().err

    # every value error exits before any output, whichever check finds it
    @pytest.mark.parametrize(
        "override,named",
        [({"q": 3.7}, '"q"'),
         ({"budget": True}, '"budget"'),
         ({"seed": 7.9}, '"seed"'),
         ({"seed": -1}, '"seed"'),
         ({"lambda_grid": ["3"]}, '"lambda_grid" value 3 outside [-1, 1]'),
         ({"delta_grid": "12"}, '"delta_grid" must be a list'),
         ({"delta_grid": [0.5, False]}, '"delta_grid" values must be ints, strings or'),
         ({"families": [{"kind": "biased", "tau": "2"}]}, "tau=2.0"),
         ({"families": [{"kind": "layered-pair", "d": 30, "m": 10}]}, "d=30, half=20"),
         ({"families": [{"kind": "tensor-lift", "restarts": 0}]}, "restarts"),
         ],
        ids=["q-float", "budget-bool", "seed-float", "seed-negative", "lambda-3",
             "delta-grid-string", "delta-grid-float-bool", "tau-2", "d-above-half", "restarts-0"],
    )
    def test_bad_value_exit_2_before_output(self, tmp_path, capsys, override, named):
        cfg = self.write_config(tmp_path, **override)
        out = tmp_path / "map.csv"
        assert run(["regime-map", "--config", cfg, "--out", out]) == 2
        assert not out.exists()
        assert run(["regime-map", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert named in captured.err

    def test_stdout_matches_out_file(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, families=[{"kind": "layered-pair", "d": 6, "m": 10}])
        out = tmp_path / "map.csv"
        assert run(["regime-map", "--config", cfg, "--out", out]) == 0
        assert run(["regime-map", "--config", cfg]) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()

    def test_readme_config_is_the_benchmark_config(self, tmp_path):
        readme = (ROOT / "README.md").read_text()
        block = readme.split("Regime sweep config (JSON):")[1].split("```json\n")[1].split("```")[0]
        cfg = tmp_path / "readme.json"
        cfg.write_text(block)
        want = _load_sweep_config(str(ROOT / "perfbench" / "regime_map.json"), 0)
        assert _load_sweep_config(str(cfg), 0) == want

    @pytest.mark.parametrize("q", [None, 2, 1], ids=["missing", "q2", "q1"])
    def test_bad_q_exit_2_before_output(self, tmp_path, capsys, q):
        cfg = {"delta_grid": ["1/2"], "lambda_grid": ["9/10"]}
        if q is not None:
            cfg["q"] = q
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "map.csv"
        assert run(["regime-map", "--config", path, "--out", out]) == 2
        assert not out.exists()
        assert '"q"' in capsys.readouterr().err


class TestPinnedBytes:
    """Outputs pinned byte for byte; a change to them must be deliberate."""

    def test_random_bipartite_sidecar(self, tmp_path):
        out = tmp_path / "rb.graph"
        assert run(["construct", "random-bipartite", "--half", 100, "--d", 4,
                    "--seed", 3, "--out", out]) == 0
        want = (EXPECTED / "random_bipartite_h100_d4_s3.graph.json").read_bytes()
        assert (tmp_path / "rb.graph.json").read_bytes() == want

    def test_pack_biased(self, tmp_path):
        graph, out = tmp_path / "rb.graph", tmp_path / "code.json"
        assert run(["construct", "random-bipartite", "--half", 12, "--d", 3,
                    "--seed", 5, "--out", graph]) == 0
        assert run(["pack", "--graph", graph, "--q", 3, "--delta", "1/4", "--sampler",
                    "biased", "--budget", 50, "--target", 4, "--seed", 2, "--out", out]) == 0
        assert out.read_bytes() == (EXPECTED / "pack_biased.json").read_bytes()

    def test_pack_gadget(self, tmp_path):
        graph, out = tmp_path / "g.graph", tmp_path / "code.json"
        assert run(["construct", "gadget", "--base", "k4", "--out", graph]) == 0
        assert run(["pack", "--graph", graph, "--q", 3, "--delta", "1/2", "--sampler",
                    "gadget", "--budget", 200, "--target", 4, "--seed", 1, "--out", out]) == 0
        assert out.read_bytes() == (EXPECTED / "pack_gadget.json").read_bytes()

class TestParsing:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            run(["no-such-command"])
        assert err.value.code == 2

    def test_missing_file_exit_2(self):
        assert run(["spectrum", "--graph", "/nonexistent/path.graph"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [["verify", "--graph", "g.graph", "x.json", "--format", "csv"],
         ["certify", "--q", 3, "--delta", "2/3", "--lambda", "1/5",
          "--threads", 9, "--seed", 4, "--format", "csv"]],
    )
    def test_flag_of_another_subcommand_exits_2(self, argv):
        with pytest.raises(SystemExit) as err:
            run(argv)
        assert err.value.code == 2

    def test_bad_fraction_exit_2(self):
        with pytest.raises(SystemExit) as err:
            run(["certify", "--q", 3, "--delta", "abc", "--lambda", "1/4"])
        assert err.value.code == 2
