"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

The slow tests run ``run.py`` once per mode on every workload with the
shortest run length (about two minutes in all on a 2-CPU machine).
"""
from __future__ import annotations

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from chromacode import codes, colorings, graphs, regimes, spectral  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

LAYERS = [graphs, spectral, colorings, codes, regimes]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _snapshot():
    return {(m.__name__, name): obj for m in LAYERS for name, obj in vars(m).items()}


def test_wrap_then_unwrap_restores_every_original():
    before = _snapshot()
    found: dict[str, list] = {}
    patcher = spans.Patcher()
    spans.capture(patcher, LAYERS, workloads.CAPTURED, found)
    tracer = spans.Tracer("t")
    tracer.wrap(LAYERS)
    assert codes.greedy_pack is not before[("chromacode.codes", "greedy_pack")]
    assert colorings.layered_bipartite_pair is not before[
        ("chromacode.colorings", "layered_bipartite_pair")
    ]
    assert spectral.lambda2 is not before[("chromacode.spectral", "lambda2")]
    tracer.unwrap()
    patcher.restore()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_time_excludes_children_and_sums_to_top_level():
    mod = types.ModuleType("fake")
    exec(
        "import time\n"
        "def inner():\n    time.sleep(0.01)\n"
        "def outer():\n    time.sleep(0.01)\n    inner()\n    inner()\n"
        "def gen():\n    yield inner()\n    yield 2\n",
        mod.__dict__,
    )
    mod.__dict__["__name__"] = "fake"
    for fn in ("inner", "outer", "gen"):
        getattr(mod, fn).__module__ = "fake"
    tracer = spans.Tracer("t")
    tracer.wrap([mod])
    mod.outer()
    assert list(mod.gen()) == [None, 2]
    tracer.unwrap()
    agg = tracer.aggregate()
    assert agg["fake.inner"]["calls"] == 3
    assert agg["fake.outer"]["self_s"] < agg["fake.outer"]["incl_s"]
    assert agg["fake.outer"]["self_s"] == pytest.approx(0.01, abs=0.008)
    assert agg["fake.gen"]["points"] == 2 and agg["fake.gen"]["calls"] == 3
    total_self = sum(a["self_s"] for a in agg.values())
    assert total_self == pytest.approx(tracer.self_total(), rel=1e-9)


def test_layer_map_names_every_per_layer_metric_once():
    groups = json.loads((BENCH / "layers.json").read_text())
    mapped = [m for g in groups for m in g["metrics"]]
    assert sorted(mapped) == sorted(m["name"] for m in SPEC["per_layer"])
    names = set(workloads.WORKLOADS)
    for g in groups:
        assert set(g["moves"]) <= names and set(g["no_change_on"]) <= names


def _run_all(trace: int) -> tuple[dict, dict[str, dict]]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--seed",
         str(workloads.DEFAULT_SEED), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    results = {
        w["name"]: json.loads(
            (BENCH / "out" / f"results_{w['name']}_seed{workloads.DEFAULT_SEED}_trace{trace}.json").read_text()
        )
        for w in SPEC["workloads"]
    }
    return last, results


@pytest.fixture(scope="module")
def traced():
    return _run_all(1)


@pytest.mark.parametrize("mode", ["end_to_end", "per_layer"])
def test_every_named_metric_is_emitted_for_every_workload(mode, traced):
    last, results = traced if mode == "per_layer" else _run_all(0)
    for w in SPEC["workloads"]:
        for m in SPEC[mode]:
            key = f"{w['name']}.{m['name']}"
            assert last["metrics"][key]["unit"] == m["unit"], key
    assert last["correct"] and last["failed"] == 0
    for res in results.values():
        assert res["summary"]["correct"], res["summary"]["problems"]
        assert res["machine"]["nproc"] and res["machine"]["loadavg_after"]


def test_traced_outputs_equal_untraced(traced):
    for name, res in traced[1].items():
        reps = res["repetitions"]
        plain = [r["output"] for r in reps if not r["traced"]]
        with_trace = [r["output"] for r in reps if r["traced"]]
        assert plain and with_trace, name
        assert all(out == plain[0] for out in plain + with_trace), name


def test_self_times_sum_within_wall(traced):
    for name, res in traced[1].items():
        for rep in res["repetitions"]:
            if rep["traced"]:
                self_sum = sum(a["self_s"] for a in rep["layers"].values())
                assert self_sum <= rep["wall_s"], name


def test_greedy_pack_draws_match_provenance(traced):
    for name, res in traced[1].items():
        for rep in res["repetitions"]:
            if rep["traced"]:
                draws = rep["layers"].get("codes.greedy_pack", {}).get("draws", 0)
                assert draws == rep["draws_used"], name
    assert traced[1]["regime_map"]["repetitions"][-1]["draws_used"] > 0
