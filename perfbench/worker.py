"""One repetition of one workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --t0 MONOTONIC
        [--trace-file PATH] [--facts]

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process, so set-up time covers interpreter start, ``import chromacode`` and
input generation. Prints one JSON object on its last line of standard output.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import chromacode  # noqa: E402
from chromacode import codes, colorings, graphs, regimes, spectral  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def peak_rss_mb() -> float:
    """High-water resident set of this process image (VmHWM), in MB."""
    with open("/proc/self/status") as fh:
        line = next(line for line in fh if line.startswith("VmHWM:"))
    return int(line.split()[1]) / 1024.0


def blas_facts() -> dict:
    """The BLAS numpy was built with, and its thread count as the library reports it."""
    import ctypes

    import numpy
    import scipy

    facts = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    facts["blas_threads"] = None
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.restype = ctypes.c_int
                facts["blas_threads"] = fn()
                return facts
    return facts


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--trace-file", default=None)
    ap.add_argument("--facts", action="store_true")
    args = ap.parse_args()
    if not Path(chromacode.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"chromacode imported from {chromacode.__file__}, not {ROOT / 'src'}")

    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.make_inputs(args.seed)

    found: dict[str, list] = {}
    patcher = spans.Patcher()
    spans.capture(patcher, [codes, colorings], workloads.CAPTURED, found)
    tracer = None
    if args.trace_file:
        tracer = spans.Tracer(f"{args.workload}-{args.seed}-{os.getpid()}")
        tracer.wrap([graphs, spectral, colorings, codes, regimes])

    body_start = time.monotonic()
    cpu0 = cpu_seconds()
    w0 = time.perf_counter()
    result = wl.run(inputs)
    wall = time.perf_counter() - w0
    cpu = cpu_seconds() - cpu0
    rss = peak_rss_mb()

    if tracer is not None:
        tracer.unwrap()
    patcher.restore()

    problems = wl.check(inputs, result, found, args.seed)
    out = {
        "setup_s": body_start - args.t0,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": rss,
        "attempted": result.items,
        "failed": workloads.failed_items(result, problems),
        "problems": [msg for _, msg in problems] + list(result.errors.values()),
        "output": result.output,
        "draws_used": sum(C.provenance["draws_used"] for _, C in found["codes.greedy_pack"]),
    }
    if tracer is not None:
        out["layers"] = tracer.aggregate()
        out["self_total_s"] = tracer.self_total()
        tracer.write_jsonl(args.trace_file)
    if args.facts:
        out["facts"] = blas_facts()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
