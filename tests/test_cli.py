import argparse
import ast
import json
from pathlib import Path

import numpy as np
import pytest

from chromacode import colorings, fileio, graphs
from chromacode.cli import _load_sweep_config, build_parser, main
from chromacode.colorings import Coloring, coordinate_colorings, is_proper
from chromacode.graphs import complete_graph, gadget_expand, tensor_power, two_lift
from conftest import gadget_blocks, petersen


EXPECTED = Path(__file__).parent / "expected"
ROOT = Path(__file__).parent.parent
BENCH_CONFIG = ROOT / "perfbench" / "regime_map.json"
BENCH_CSV = ROOT / "perfbench" / "expected" / "regime_map.csv"


def run(args):
    return main([str(a) for a in args])


def _close(got, want) -> bool:
    """Equal, floats to 1e-9, tuples item by item."""
    if isinstance(want, tuple):
        return isinstance(got, tuple) and len(got) == len(want) and all(map(_close, got, want))
    if isinstance(want, float):
        return abs(got - want) <= 1e-9
    return got == want


@pytest.fixture()
def tensor_file(tmp_path):
    path = tmp_path / "t32.graph"
    assert run(["construct", "tensor", "--q", 3, "--N", 2, "--out", path]) == 0
    return str(path)


class TestConstruct:
    def test_tensor_roundtrip(self, tensor_file):
        assert fileio.read_graph(tensor_file) == tensor_power(3, 2)

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
        assert G == want

    @pytest.mark.parametrize("kind,options,build,base", [
        ("complete", ["--q", 4], lambda: complete_graph(4), None),
        ("cycle", ["--n", 7], lambda: graphs.cycle_graph(7), None),
        ("tensor", ["--q", 3, "--N", 2], lambda: tensor_power(3, 2), None),
        ("gadget", ["--base", "k4"], lambda: gadget_expand(complete_graph(4)), complete_graph(4)),
        ("random-bipartite", ["--half", 10, "--d", 3],
         lambda: graphs.random_regular_bipartite(10, 3, seed=2), None),
        ("two-lift", ["--graph", "BASE"],
         lambda: two_lift(tensor_power(3, 2), np.ones(18, dtype=int)), tensor_power(3, 2)),
    ], ids=["complete", "cycle", "tensor", "gadget", "random-bipartite", "two-lift"])
    def test_sidecar_content(self, tmp_path, tensor_file, kind, options, build, base):
        out = tmp_path / "g.graph"
        options = [tensor_file if o == "BASE" else o for o in options]
        assert run(["construct", kind, *options, "--seed", 2, "--out", out]) == 0
        G = build()
        sidecar = json.loads((tmp_path / "g.graph.json").read_text())
        want = {"graph_key": G.graph_key, "n": G.n, "d": G.d, "construct": kind, "seed": 2}
        if base is not None:
            want["base_key"] = base.graph_key
        assert sidecar == want  # no "meta"
        assert fileio.read_graph(str(out)) == G

    def test_two_lift_signing_file_and_all_plus_default(self, tmp_path, tensor_file):
        base = fileio.read_graph(tensor_file)
        signing = np.random.default_rng(3).choice((-1, 1), size=base.m)
        spath, out = tmp_path / "s.txt", tmp_path / "lift.graph"
        fileio.write_signing(str(spath), base, signing)
        assert run(["construct", "two-lift", "--graph", tensor_file, "--signing", spath,
                    "--out", out]) == 0
        assert fileio.read_graph(str(out)) == two_lift(base, signing)
        assert run(["construct", "two-lift", "--graph", tensor_file, "--out", out]) == 0
        assert fileio.read_graph(str(out)) == two_lift(base, np.ones(base.m, dtype=int))

    @pytest.mark.parametrize(
        "line,named", [("5 9 -1", "(5, 9)"), ("0 1 -1", "(0, 1)")],
        ids=["not-an-edge", "conflicting-repeat"],
    )
    def test_bad_signing_line_exit_2(self, tmp_path, capsys, line, named):
        K4 = complete_graph(4)
        base, spath, out = tmp_path / "k4.graph", tmp_path / "s.txt", tmp_path / "lift.graph"
        fileio.write_graph(str(base), K4)
        fileio.write_signing(str(spath), K4, np.ones(K4.m, dtype=int))
        spath.write_text(spath.read_text() + line + "\n")
        assert run(["construct", "two-lift", "--graph", base, "--signing", spath,
                    "--out", out]) == 2
        assert not out.exists()
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["0 1", "0 1 x", "0 1 -1 1"],
                             ids=["two-fields", "not-an-integer", "four-fields"])
    def test_malformed_signing_line_exit_2(self, tmp_path, capsys, line):
        K4 = complete_graph(4)
        base, spath, out = tmp_path / "k4.graph", tmp_path / "s.txt", tmp_path / "lift.graph"
        fileio.write_graph(str(base), K4)
        fileio.write_signing(str(spath), K4, np.ones(K4.m, dtype=int))
        spath.write_text(spath.read_text() + "\n" + line + "\n")  # a blank line 7 counts
        assert run(["construct", "two-lift", "--graph", base, "--signing", spath,
                    "--out", out]) == 2
        assert not out.exists()
        assert f"error: line 8: expected 3 integers, got {line!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "lineno,line,want",
        [(1, "4", "2 integers"), (1, "4 x", "2 integers"),
         (2, "parts: 0 1 z 1", "integers"),
         (4, "0 2 7", "2 integers"), (5, "1 y", "2 integers")],
        ids=["short-header", "bad-header", "bad-parts", "three-fields", "not-an-integer"],
    )
    def test_malformed_graph_line_exit_2(self, tmp_path, capsys, lineno, line, want):
        lines = ["4 2", "parts: 0 1 0 1", "0 1", "1 2", "2 3", "0 3"]
        lines[lineno - 1] = line
        path = tmp_path / "c4.graph"
        path.write_text("\n".join(lines) + "\n")
        assert run(["spectrum", "--graph", path]) == 2
        assert f"error: line {lineno}: expected {want}, got {line!r}" in capsys.readouterr().err

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
        bad = Coloring(3, [0] * G.n, G)
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
        matrix = colorings._distance_matrix
        monkeypatch.setattr(colorings, "distance", lambda A, B: calls.append("distance"))
        monkeypatch.setattr(colorings, "_distance_matrix",
                            lambda rows, q: calls.append("matrix") or matrix(rows, q))
        assert run(["verify", "--graph", tensor_file, *paths, "--delta", "2/3"]) == 1
        assert calls == ["matrix"]
        assert "min distance 0 below threshold at pair (0, 2)" in capsys.readouterr().out

    def test_mismatched_n_exit_2(self, tmp_path, tensor_file):
        C5 = graphs.cycle_graph(5)
        X = Coloring(3, [0, 1, 0, 1, 2], C5)
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
        assert payload["graph"] == G.graph_key
        members = [Coloring(payload["q"], row, G) for row in payload["members"]]
        assert len(members) == payload["size"]
        assert all(is_proper(G, X)[0] for X in members)

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

    def test_target_zero_packs_nothing(self, tmp_path, capsys):
        argv = _enumerated_pack(3, "--target", 0, "--budget", 5)(tmp_path)
        assert run(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["size"] == 0 and payload["provenance"]["draws_used"] == 0


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
        members = [Coloring(3, colors, G) for colors in payload["witness"]]
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

    def test_resume_other_q_exit_2(self, tmp_path, capsys):
        out = tmp_path / "map.csv"
        assert run(["regime-map", "--config", self.write_config(tmp_path), "--out", out]) == 0
        before = out.read_bytes()
        cfg = self.write_config(tmp_path, q=4)
        assert run(["regime-map", "--config", cfg, "--out", out, "--resume"]) == 2
        assert out.read_bytes() == before
        err = capsys.readouterr().err
        # the first differing line, quoted as the file holds it and as the config writes it
        assert "map.csv line 2 is '3,1/4,1/5,unknown,,,,,'" in err
        assert "'4,1/4,1/5,unknown,,,,,'" in err

    def test_benchmark_config_writes_its_pinned_bytes(self, tmp_path):
        # the benchmark's own config and CSV, read and never written
        assert_writes_and_resumes(tmp_path, BENCH_CONFIG, BENCH_CSV.read_bytes())

    @pytest.mark.parametrize("seed", [3, 11])
    def test_benchmark_config_at_other_seeds(self, tmp_path, seed):
        # a copy of that config under its own "seed" (which wins over --seed),
        # against a CSV pinned in tests/expected
        config = tmp_path / f"seed{seed}.json"
        config.write_text(json.dumps({**json.loads(BENCH_CONFIG.read_text()), "seed": seed}))
        want = (EXPECTED / f"regime_map_seed{seed}.csv").read_bytes()
        assert_writes_and_resumes(tmp_path, config, want)

    def test_resume_under_another_seed_exit_2(self, tmp_path, capsys):
        # a seed-7 run cut mid-file, resumed by a seed-6 copy of the config
        cfg = tmp_path / "seed6.json"
        cfg.write_text(json.dumps({**json.loads(BENCH_CONFIG.read_text()), "seed": 6}))
        out = tmp_path / "map.csv"
        prefix = b"".join(BENCH_CSV.read_bytes().splitlines(keepends=True)[:5])
        out.write_bytes(prefix)
        assert run(["regime-map", "--config", cfg, "--out", out, "--resume"]) == 2
        assert out.read_bytes() == prefix
        assert "map.csv line 3 is '3,1/4,2/5,counterexample-exists," in capsys.readouterr().err

    def test_resume_other_file_exit_2(self, tmp_path, capsys):
        out = tmp_path / "notes.txt"
        out.write_text("shopping list\neggs\n")
        assert run(["regime-map", "--config", BENCH_CONFIG, "--out", out, "--resume"]) == 2
        assert out.read_text() == "shopping list\neggs\n"
        err = capsys.readouterr().err
        assert "notes.txt line 1 is 'shopping list', but this config writes 'q,delta," in err

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
         ({"families": [{"kind": "biased", "tau": "abc"}]}, "tau='abc' is not a rational"),
         ({"families": [{"kind": "layered-pair", "d": 30, "m": 10}]}, "d=30, half=20"),
         ({"families": [{"kind": "tensor-lift", "restarts": 0}]}, "restarts"),
         ],
        ids=["q-float", "budget-bool", "seed-float", "seed-negative", "lambda-3",
             "delta-grid-string", "delta-grid-float-bool", "tau-2", "tau-not-rational",
             "d-above-half", "restarts-0"],
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

    def test_readme_quick_start_values(self):
        # each expression line of the quick start ends in "# <its value>"
        readme = (ROOT / "README.md").read_text()
        block = readme.split("## Library quick start")[1].split("```python\n")[1].split("```")[0]
        lines, scope, checked = block.splitlines(), {}, 0
        for stmt in ast.parse(block).body:
            if not isinstance(stmt, ast.Expr):
                exec(compile(ast.Module([stmt], []), "README.md", "exec"), scope)
                continue
            want = ast.literal_eval(lines[stmt.end_lineno - 1].partition("#")[2].strip())
            got = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), scope)
            assert _close(got, want), f"{ast.unparse(stmt)} gives {got!r}, README says {want!r}"
            checked += 1
        assert checked

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


def _edit_meta(sidecar, **changes):
    payload = json.loads(sidecar.read_text())
    payload.setdefault("meta", {}).update(changes)
    sidecar.write_text(json.dumps(payload))


def _swapped_k4_table():
    """The block table of gadget_expand(K4) as the sidecar once stored it, with
    the x of blocks 0 and 3 swapped: a pack that trusted it kept an improper member."""
    table = [[x, y, xpart, ypart] for x, y, xpart, ypart in gadget_blocks(complete_graph(4))]
    table[0][0], table[3][0] = table[3][0], table[0][0]
    return table


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

    @pytest.mark.parametrize("edit", [
        lambda sidecar: sidecar.write_text('{"meta": {"kind": "gadget"}}'),
        lambda sidecar: sidecar.write_text(
            json.dumps({"meta": {"kind": "gadget", "base_n": 4, "gadgets": [[0]]}})),
        lambda sidecar: _edit_meta(sidecar, base_n=1000),
        lambda sidecar: _edit_meta(sidecar, gadgets=_swapped_k4_table()),
        lambda sidecar: sidecar.write_text('{"meta": 5}'),
        lambda sidecar: sidecar.unlink(),
    ], ids=["gadget-meta-without-table", "gadget-table-short-row", "gadget-base-n-too-large",
            "gadget-table-swapped", "gadget-meta-not-object", "no-sidecar"])
    def test_pack_gadget_reads_no_sidecar(self, tmp_path, edit):
        # the sampler reads the blocks from the graph and nothing is restored
        # from the sidecar: a missing, short, stale or malformed one packs the
        # same proper members
        graph, out = tmp_path / "g.graph", tmp_path / "code.json"
        assert run(["construct", "gadget", "--base", "k4", "--out", graph]) == 0
        edit(tmp_path / "g.graph.json")
        assert run(["pack", "--graph", graph, "--q", 3, "--delta", "1/2", "--sampler",
                    "gadget", "--budget", 200, "--target", 4, "--seed", 1, "--out", out]) == 0
        assert out.read_bytes() == (EXPECTED / "pack_gadget.json").read_bytes()
        G = gadget_expand(complete_graph(4))
        assert all(is_proper(G, Coloring(3, row, G))[0]
                   for row in json.loads(out.read_text())["members"])

    def test_pack_stopped_by_max_distance(self, tmp_path):
        graph, out = tmp_path / "g.graph", tmp_path / "code.json"
        assert run(["construct", "gadget", "--base", "k4", "--out", graph]) == 0
        assert run(["pack", "--graph", graph, "--q", 3, "--delta", "7/10", "--sampler",
                    "gadget", "--budget", 200, "--target", 4, "--seed", 1, "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert payload["size"] == 1  # ceil(7/10 * 40) = 28 > 40 - ceil(40/3) = 26
        assert payload["provenance"] == {"sampler": "gadget", "seed": "1", "budget": 200,
                                         "draws_used": 1, "budget_exhausted": False,
                                         "max_distance": 26}

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


def assert_writes_and_resumes(tmp_path, config, want: bytes) -> None:
    """``regime-map`` on ``config`` writes ``want``, and resuming it from
    four cuts (after the header, mid-row, after four rows, whole) ends with
    ``want`` too."""
    out = tmp_path / "map.csv"
    assert run(["regime-map", "--config", config, "--out", out]) == 0
    assert out.read_bytes() == want
    lines = want.splitlines(keepends=True)
    header = len(lines[0])
    for cut in (header, header + 10, len(b"".join(lines[:5])), len(want)):
        out.write_bytes(want[:cut])
        assert run(["regime-map", "--config", config, "--out", out, "--resume"]) == 0
        assert out.read_bytes() == want, cut


def _c4(tmp_path) -> Path:
    path = tmp_path / "c4.graph"
    fileio.write_graph(str(path), graphs.cycle_graph(4))
    return path


def _distance_to(text):
    """argv for `distance` on C4 between a coloring file holding ``text`` and a good one."""
    def argv(tmp_path):
        bad, good = tmp_path / "bad.json", tmp_path / "good.json"
        bad.write_text(text)
        good.write_text(json.dumps({"q": 3, "colors": [0, 1, 0, 1]}))
        return ["distance", "--graph", _c4(tmp_path), bad, good]
    return argv


def _exact_f_c5(delta, q=3):
    """argv for `exact-f` on C5 at q (default 3)."""
    def argv(tmp_path):
        path = tmp_path / "c5.graph"
        fileio.write_graph(str(path), graphs.cycle_graph(5))
        return ["exact-f", "--graph", path, "--q", q, f"--delta={delta}"]
    return argv


def _construct_tensor(N, q=3):
    return lambda tmp_path: ["construct", "tensor", "--q", q, "--N", N,
                             "--out", tmp_path / "t.graph"]


def _verify_c4(*colorings_q, delta=None):
    """argv for `verify` on C4 of one coloring [0, 1, 0, 1] per q given."""
    def argv(tmp_path):
        paths = []
        for k, q in enumerate(colorings_q):
            paths.append(tmp_path / f"x{k}.json")
            paths[-1].write_text(json.dumps({"q": q, "colors": [0, 1, 0, 1]}))
        extra = [] if delta is None else [f"--delta={delta}"]
        return ["verify", "--graph", _c4(tmp_path), *paths, *extra]
    return argv


def _huge_q_c5(command):
    """argv for ``command`` on C5 between two colorings at q = 10^6."""
    def argv(tmp_path):
        path = tmp_path / "c5.graph"
        fileio.write_graph(str(path), graphs.cycle_graph(5))
        paths = [tmp_path / "x.json", tmp_path / "y.json"]
        for p, colors in zip(paths, ([0, 1, 0, 1, 2], [1, 0, 1, 0, 2])):
            p.write_text(json.dumps({"q": 10**6, "colors": colors}))
        return [command, "--graph", path, *paths]
    return argv


def _binary_graph(tmp_path):
    path = tmp_path / "bin.graph"
    path.write_bytes(b"\xff\xfe4 2\n")
    return ["spectrum", "--graph", path]


def _sidecar_not_json(tmp_path):
    path = _c4(tmp_path)
    (tmp_path / "c4.graph.json").write_text("{not json")
    return ["spectrum", "--graph", path]


def _parts_0_2(tmp_path):
    path = tmp_path / "m.graph"
    path.write_text("4 1\nparts: 0 2 0 2\n0 1\n2 3\n")
    return ["pack", "--graph", path, "--q", 3, "--delta", "1/4", "--sampler", "biased"]


def _resume_binary_out(tmp_path):
    cfg, out = tmp_path / "cfg.json", tmp_path / "map.csv"
    cfg.write_text(json.dumps({"q": 3, "delta_grid": ["1/2"], "lambda_grid": ["9/10"]}))
    out.write_bytes(b"\xff\xfe\n")
    return ["regime-map", "--config", cfg, "--out", out, "--resume"]


def _resume_without_out(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"q": 3, "delta_grid": ["1/2"], "lambda_grid": ["9/10"]}))
    return ["regime-map", "--config", cfg, "--resume"]


def _gadget_pack(tmp_path, q=3, delta="1/2") -> list:
    path = tmp_path / "g.graph"
    assert run(["construct", "gadget", "--base", "k4", "--out", path]) == 0
    return ["pack", "--graph", path, "--q", q, "--delta", delta, "--sampler", "gadget"]


def _gadget_ids_swapped(tmp_path):
    # gadget_expand(K4) with u and u2 of the first block (ids 4 and 5) swapped:
    # the same graph up to isomorphism, but not in the layout the sampler reads
    swap = np.arange(40)
    swap[[4, 5]] = [5, 4]
    edges = np.column_stack(gadget_expand(complete_graph(4)).edge_arrays())
    G = graphs.build_from_edges(40, swap[edges])
    return _on_graph(G, "pack", "--q", 3, "--delta", "1/2", "--sampler", "gadget")(tmp_path)


def _foreign_sidecar(tmp_path):
    # C9(1,2) with the sidecar of K3^2, which has the same n and d
    c9 = graphs.build_from_edges(9, [(i, (i + s) % 9) for s in (1, 2) for i in range(9)])
    argv = _on_graph(c9, "spectrum")(tmp_path)
    fileio.write_graph(str(tmp_path / "t.graph"), tensor_power(3, 2))
    (tmp_path / "g.graph.json").write_bytes((tmp_path / "t.graph.json").read_bytes())
    return argv


def _graph_text(text):
    def argv(tmp_path):
        path = tmp_path / "g.graph"
        path.write_text(text)
        return ["spectrum", "--graph", path]
    return argv


def _k4_signing(edit):
    """argv for `construct two-lift` of K4 by the all +1 signing file after ``edit``."""
    def argv(tmp_path):
        K4 = complete_graph(4)
        base, spath = tmp_path / "k4.graph", tmp_path / "s.txt"
        fileio.write_graph(str(base), K4)
        fileio.write_signing(str(spath), K4, np.ones(K4.m, dtype=int))
        spath.write_text(edit(spath.read_text()))
        return ["construct", "two-lift", "--graph", base, "--signing", spath,
                "--out", tmp_path / "lift.graph"]
    return argv


def _lift_search(half):
    """argv for `construct two-lift --search` of a random cubic bipartite graph on 2 half vertices."""
    def argv(tmp_path):
        path = tmp_path / "b.graph"
        fileio.write_graph(str(path), graphs.random_regular_bipartite(half, 3, seed=1))
        return ["construct", "two-lift", "--graph", path, "--search", "--restarts", 1,
                "--out", tmp_path / "lift.graph"]
    return argv


def _sweep_config(**config):
    def argv(tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"q": 3, **config}))
        return ["regime-map", "--config", cfg, "--out", tmp_path / "map.csv"]
    return argv


def _on_graph(G, command, *options):
    """argv for ``command`` on a file holding G, then ``options``."""
    def argv(tmp_path):
        path = tmp_path / "g.graph"
        fileio.write_graph(str(path), G)
        return [command, "--graph", path, *options]
    return argv


def _enumerated_pack(q, *options):
    return _on_graph(graphs.cycle_graph(6), "pack", "--sampler", "enumerated",
                     "--q", q, "--delta", "1/2", *options)


def _biased_default_tau_d0(tmp_path):
    path = tmp_path / "empty.graph"
    path.write_text("2 0\nparts: 0 1\n")
    return ["pack", "--graph", path, "--q", 3, "--delta", "1/2", "--sampler", "biased"]


class TestErrorContract:
    """Bad input exits 2 naming what is wrong; anything else is a bug and raises."""

    @pytest.mark.parametrize(
        "make_argv,named",
        [(_distance_to("{not json"), "bad.json: Expecting"),
         (_distance_to("[0, 1, 0, 1]"), "bad.json: must be a JSON object, not list"),
         (_distance_to('{"colors": [0, 1, 0, 1]}'), '"q" must be an integer, got None'),
         (_distance_to('{"q": 3.9, "colors": [0, 1, 0, 1]}'), '"q" must be an integer, got 3.9'),
         (_distance_to('{"q": 3, "colors": [0.7, 1.2, 0.1, 1.9]}'),
          '"colors" must be a list of integers'),
         (_distance_to('{"q": 3, "colors": null}'), '"colors" must be a list of integers'),
         (_binary_graph, "bin.graph: 'utf-8' codec can't decode"),
         (_sidecar_not_json, "c4.graph.json: Expecting"),
         (_parts_0_2, "vertex 1 has part label 2, not 0 or 1"),
         (_resume_binary_out, "map.csv: 'utf-8' codec can't decode"),
         (_resume_without_out, "regime-map --resume needs --out"),
         (lambda tmp_path: _gadget_pack(tmp_path, q=2), "gadget coloring needs q >= 3"),
         (_on_graph(petersen(), "pack", "--q", 3, "--delta", "1/2", "--sampler", "gadget"),
          "graph was not built by gadget_expand"),
         (_gadget_ids_swapped, "graph was not built by gadget_expand"),
         (_foreign_sidecar, f"describes graph '{tensor_power(3, 2).graph_key}', loaded graph"),
         (_graph_text("\n\n"), "empty graph file"),
         (_graph_text("4 3\n0 1\n1 2\n2 3\n0 3\n"), "header says d=3 but edges give d=2"),
         (_k4_signing(lambda text: text.replace("0 1 +1", "0 1 2")),
          "signing gives edge (0, 1) sign 2, not +1 or -1"),
         (_k4_signing(lambda text: text.replace("2 3 +1\n", "")), "signing missing edge (2, 3)"),
         (lambda tmp_path: [*_k4_signing(lambda text: text)(tmp_path), "--search"],
          "construct two-lift takes --signing or --search, not both"),
         (_sweep_config(families={"kind": "gadget"}),
          'sweep config "families" must be a list of objects'),
         (_sweep_config(delta_grid=["1/x"]), 'sweep config "delta_grid" holds a non-rational'),
         (_graph_text("2 1\n0 99999999999999999999\n"), "line 2: integer outside int64"),
         (_k4_signing(lambda text: text + "0 99999999999999999999 1\n"),
          "line 7: integer outside int64"),
         # int() alone reads these as a 3-cycle and a +1 sign
         (_graph_text("3 2\n0 1\n1 2\n0 0_2\n"), "line 4: expected 2 integers, got '0 0_2'"),
         (_k4_signing(lambda text: text.replace("0 1 +1", "0 1 +0_1")),
          "line 1: expected 3 integers, got '0 1 +0_1'"),
         (_biased_default_tau_d0, "default tau 1/(8 d^2) needs d >= 1"),
         (lambda tmp_path: _gadget_pack(tmp_path, delta="3/2"), "delta=3/2 outside [0, 1]"),
         (_exact_f_c5("-1/2"), "delta=-1/2 outside [0, 1]"),
         (_exact_f_c5("3/2"), "delta=3/2 outside [0, 1]"),
         (_verify_c4(3, 3, delta="3/2"), "delta=3/2 outside [0, 1]"),
         (_verify_c4(3, delta="-1/4"), "delta=-1/4 outside [0, 1]"),
         (_verify_c4(3, 4), "members bound to different graphs or q values"),
         *[(_on_graph(graphs.cycle_graph(6), "exact-f", "--q", q, "--delta", "1/2"),
            "need q >= 2") for q in (-1, 0, 1)],
         (_on_graph(graphs.build_from_edges(2, []), "exact-f", "--q", 1, "--delta", "1/2"),
          "need q >= 2"),
         *[(_enumerated_pack(q), "need q >= 2") for q in (-1, 0, 1)],
         (_enumerated_pack(3, "--budget", -4), "budget=-4 is negative"),
         (_enumerated_pack(3, "--target", -1), "target=-1 is negative"),
         *[(_exact_f_c5(delta, q=10**12), "colorings exceed the clique cap 2000")
           for delta in ("1/5", "0")],
         (_enumerated_pack(10**12), "q^n = 1000000000000^6 colorings cannot be held"),
         (_enumerated_pack(1000), f"bytes, above the cap {colorings.ENUM_BYTES_CAP}"),
         *[(_on_graph(graphs.cycle_graph(16), command, *options, "--q", 5, "--delta", "1/4"),
            "partial colorings of 14 vertices take 313404112 bytes, above the cap "
            f"{colorings.ENUM_BYTES_CAP}")
           for command, options in (("exact-f", ()), ("pack", ("--sampler", "enumerated")))],
         *[(_construct_tensor(N), f"q^N = 3^{N} exceeds cap 4096") for N in (10000, 30000000)],
         (_construct_tensor(2, q=64), "64^2 vertices of degree 3969 make 16257024 adjacency "
          f"entries, above the cap {graphs.TENSOR_WORK_CAP}"),
         (_sweep_config(delta_grid=["1/2"], lambda_grid=["9/10"],
                        families=[{"kind": "tensor-lift", "N": 10000}]),
          "q^N = 3^10000 exceeds cap 4096"),
         (_sweep_config(delta_grid=["1/2"], lambda_grid=["9/10"],
                        families=[{"kind": "tensor-lift", "lifts": -1}]),
          "tensor-lift lifts=-1 is negative"),
         (_sweep_config(delta_grid=["1/2"], lambda_grid=["9/10"],
                        families=[{"kind": "tensor-lift", "lifts": 10}]),
          "signing search on 288 vertices of degree 4: m n^3 = 13759414272 dense work per "
          f"pass, above the cap {graphs.SEARCH_WORK_CAP}"),
         (_lift_search(10000), "signing search on 20000 vertices of degree 3: m n^3 = "
          f"240000000000000000 dense work per pass, above the cap {graphs.SEARCH_WORK_CAP}"),
         *[(_sweep_config(delta_grid=["1/2"], lambda_grid=["9/10"],
                          families=[{"kind": "biased", "tau": tau}]), named)
           for tau, named in ((float("inf"), "tau=inf is not a rational in [0, 1]"),
                              ("1e400", "tau='1e400' is not a rational in [0, 1]"),
                              (True, "tau=True is not a rational in [0, 1]"))],
         (lambda tmp_path: ["construct", "complete", "--q", 20000, "--out", tmp_path / "k.graph"],
          "q^N = 20000^1 exceeds cap 4096"),
         (lambda tmp_path: ["construct", "cycle", "--n", 10**20, "--out", tmp_path / "c.graph"],
          f"{10**20} vertices of degree 2 exceed the cap of {graphs.GRAPH_ENTRIES_CAP} "
          "adjacency entries"),
         (lambda tmp_path: ["construct", "random-bipartite", "--half", 10**20, "--d", 3,
                            "--out", tmp_path / "b.graph"],
          f"{2 * 10**20} vertices of degree 3 exceed the cap of {graphs.GRAPH_ENTRIES_CAP} "
          "adjacency entries"),
         *[(_huge_q_c5(command), "q=1000000 exceeds the distance cap 128")
           for command in ("distance", "verify")],
         (lambda tmp_path: _gadget_pack(tmp_path, q=10**6),
          "q=1000000 exceeds the distance cap 128"),
         # Fraction alone reads these as 11/20, 1/5, 1/2 and 10/128
         (_sweep_config(delta_grid=["1_1/2_0"]), 'sweep config "delta_grid" holds a non-rational'),
         (_sweep_config(lambda_grid=["١/٥"]), 'sweep config "lambda_grid" holds a non-rational'),
         (_sweep_config(lambda_grid=["0.5"]), 'sweep config "lambda_grid" holds a non-rational'),
         (_sweep_config(delta_grid=["1/2"], lambda_grid=["9/10"],
                        families=[{"kind": "biased", "tau": "1_0/1_28"}]),
          "tau='1_0/1_28' is not a rational in [0, 1]")],
        ids=["coloring-not-json", "coloring-list", "coloring-no-q", "coloring-float-q",
             "coloring-float-colors", "coloring-null-colors", "binary-graph",
             "sidecar-not-json", "parts-0-2-biased", "resume-binary-out", "resume-without-out",
             "gadget-q2", "gadget-petersen", "gadget-ids-swapped",
             "foreign-sidecar", "empty-graph-file", "header-d-mismatch", "signing-sign-2",
             "signing-missing-edge", "two-lift-signing-and-search", "sweep-families-not-list",
             "sweep-grid-non-rational",
             "graph-above-int64", "signing-above-int64", "graph-underscore", "signing-underscore",
             "biased-default-tau-d0", "pack-delta-above-1", "exact-f-delta-below-0",
             "exact-f-delta-above-1", "verify-delta-above-1", "verify-one-delta-below-0",
             "verify-mixed-q", "exact-f-c6-q-1", "exact-f-c6-q0", "exact-f-c6-q1",
             "exact-f-edgeless-q1", "pack-enumerated-q-1", "pack-enumerated-q0",
             "pack-enumerated-q1", "pack-budget-negative", "pack-target-negative",
             "exact-f-c5-huge-q", "exact-f-c5-huge-q-delta0", "pack-enumerated-huge-q",
             "pack-enumerated-q1000", "exact-f-c16-q5", "pack-enumerated-c16-q5",
             "tensor-N10000", "tensor-N30000000", "tensor-q64-N2", "sweep-tensor-lift-N10000",
             "sweep-tensor-lift-lifts-negative", "sweep-tensor-lift-lifts10",
             "two-lift-search-too-large", "sweep-tau-infinity", "sweep-tau-1e400",
             "sweep-tau-bool",
             "complete-q20000", "cycle-n1e20", "random-bipartite-half1e20",
             "distance-huge-q", "verify-huge-q", "pack-gadget-huge-q",
             "sweep-grid-underscore", "sweep-grid-arabic-indic", "sweep-grid-decimal",
             "sweep-tau-underscore"],
    )
    def test_bad_input_exit_2(self, tmp_path, capsys, make_argv, named):
        argv = make_argv(tmp_path)
        capsys.readouterr()
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert named in captured.err

    @pytest.mark.parametrize(
        "argv",
        [["construct", "random-bipartite", "--half", 5, "--d", 2],
         ["construct", "two-lift", "--graph", "g.graph", "--search"],
         *[["pack", "--graph", "g.graph", "--q", 3, "--delta", "1/2", "--sampler", sampler]
           for sampler in ("biased", "gadget")],
         ["regime-map", "--config", "cfg.json"]],
        ids=["random-bipartite", "two-lift-search", "pack-biased", "pack-gadget", "regime-map"],
    )
    def test_negative_seed_exit_2(self, capsys, argv):
        # numpy's generators refuse a negative seed; argparse refuses it first
        with pytest.raises(SystemExit) as err:
            run([*argv, "--seed", -1])
        assert err.value.code == 2
        assert "argument --seed: not a non-negative integer: '-1'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,named",
        [(["construct", "cycle", "--n", 5, "--seed", "٣"],
          "argument --seed: not a non-negative integer: '٣'"),
         (["certify", "--q", 3, "--delta", "1_1/2_0", "--lambda", "1/5"],
          "argument --delta: not a rational: '1_1/2_0'"),
         (["certify", "--q", 3, "--delta", "2/3", "--lambda", "١/٥"],
          "argument --lambda: not a rational: '١/٥'"),
         (["pack", "--graph", "g.graph", "--q", 3, "--delta", "1/2", "--sampler", "biased",
           "--tau", "1/1_28"], "argument --tau: not a rational: '1/1_28'")],
        ids=["seed-arabic-indic", "delta-underscore", "lambda-arabic-indic", "tau-underscore"],
    )
    def test_number_outside_ascii_exit_2(self, capsys, argv, named):
        # str.isdecimal and Fraction accept these; a number is ASCII digits,
        # as in the files fileio reads
        with pytest.raises(SystemExit) as err:
            run(argv)
        assert err.value.code == 2
        assert named in capsys.readouterr().err

    def test_every_seeded_subcommand_refuses_a_negative_seed(self, capsys):
        parser = build_parser()
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        seeded = [name for name, sub in commands.choices.items()
                  if any("--seed" in a.option_strings for a in sub._actions)]
        assert {"construct", "pack", "regime-map"} <= set(seeded)
        for name in seeded:
            with pytest.raises(SystemExit) as err:
                parser.parse_args([name, "--seed", "-1"])
            assert err.value.code == 2
            assert "argument --seed: not a non-negative integer: '-1'" in capsys.readouterr().err

    def test_bug_is_not_masked(self, monkeypatch):
        def broken(n):
            raise ValueError("a bug inside the library")

        monkeypatch.setattr(graphs, "cycle_graph", broken)
        with pytest.raises(ValueError, match="a bug inside the library"):
            main(["construct", "cycle", "--n", "5"])
