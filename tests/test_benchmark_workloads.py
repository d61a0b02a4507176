"""The benchmark's workloads run in-process and pass their own checks.

``perfbench/workloads.py`` relies on the package's ``CodeSet(members,
delta)``, ``.members``, ``.min_dist`` and ``provenance["draws_used"]``; a
break of that contract would otherwise surface only in ``perfbench/tests``.
Each workload runs at the benchmark's default seed, with the calls captured
as ``perfbench/worker.py`` captures them. The perfbench modules are imported,
never changed.
"""
import sys
from pathlib import Path

import pytest

from chromacode import codes, colorings

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))
    try:
        import spans
        import workloads
    finally:
        sys.path.remove(str(BENCH))
    return spans, workloads


@pytest.mark.parametrize("name", ["exact_f", "regime_map"])
def test_workload_passes_its_check(bench, name):
    spans, workloads = bench
    wl = workloads.WORKLOADS[name]
    seed = workloads.DEFAULT_SEED
    inputs = wl.make_inputs(seed)
    found: dict[str, list] = {}
    patcher = spans.Patcher()
    spans.capture(patcher, [codes, colorings], workloads.CAPTURED, found)
    try:
        result = wl.run(inputs)
    finally:
        patcher.restore()
    problems = wl.check(inputs, result, found, seed)
    assert (result.errors, problems) == ({}, [])
    assert workloads.failed_items(result, problems) == 0
    # worker.py reports the draws of every greedy pack; only the sweep packs
    packs = found["codes.greedy_pack"]
    assert bool(packs) == (name == "regime_map")
    # at delta = 2/3 max_distance ends the layered-pair and biased packs
    # after one draw each; without it the packs drew 408 times
    draws = sum(C.provenance["draws_used"] for _, C in packs)
    assert draws == (8 if name == "regime_map" else 0)
