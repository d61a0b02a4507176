"""chromacode benchmark: batch workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

``all`` runs every workload ``BENCHMARK.json`` lists, one after the other.
Run from the repository root. Each repetition of a workload runs in a fresh
process (``worker.py``) with one caller in a closed loop and ``threads=1``;
BLAS keeps its default thread count. A run ends at the repetition boundary
nearest to ``--seconds``, and every metric is the median over its repetitions.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics, including ``trace.overhead_frac``.

Every repetition's outputs are checked (see ``workloads.py``) and must be
identical across repetitions, traced or not. Human-readable lines come first;
the last line of standard output is one JSON object. A results file with the
machine facts and every repetition is written to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("regime_map", "exact_f")
DEFAULT_SEED = 7
MIN_REPS = 2      # untraced repetitions per run, at least
EXIT_BY = 170.0   # seconds into a run after which a repetition is killed


class BenchError(Exception):
    pass


def machine_facts() -> dict:
    model = None
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "CHROMA_THREADS": os.environ.get("CHROMA_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def loadavg() -> str:
    with open("/proc/loadavg") as fh:
        return fh.read().strip()


def repetition(workload: str, seed: int, trace_file: Path | None, facts: bool,
               timeout: float) -> dict:
    env = dict(os.environ)
    env.pop("CHROMA_THREADS", None)  # the library runs with threads=1
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    if trace_file is not None:
        cmd += ["--trace-file", str(trace_file)]
    if facts:
        cmd.append("--facts")
    t0 = time.monotonic()
    proc = subprocess.run(
        cmd + ["--t0", repr(t0)], capture_output=True, text=True,
        timeout=timeout, env=env, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise BenchError(f"{workload} repetition exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["traced"] = trace_file is not None
    return rep


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Repeat the workload for about ``seconds`` and collect every repetition."""
    trace_file = OUT / f"trace_{workload}_seed{seed}.jsonl" if trace else None
    reps: list[dict] = []
    start = time.monotonic()
    rounds = 0
    deadline = start + EXIT_BY
    while True:
        reps.append(repetition(workload, seed, None, not reps, deadline - time.monotonic()))
        if trace:
            reps.append(repetition(workload, seed, trace_file, False, deadline - time.monotonic()))
        rounds += 1
        elapsed = time.monotonic() - start
        per_round = elapsed / rounds
        enough = rounds >= (1 if trace else MIN_REPS)
        # another round only if it would end nearer to ``seconds`` than this one
        if (enough and elapsed + per_round / 2 > seconds) or elapsed + per_round > EXIT_BY:
            break
    return {"reps": reps, "elapsed_s": time.monotonic() - start}


def per_layer_value(name: str, layers: dict, untraced_wall: float, traced_wall: float) -> float:
    if name == "trace.overhead_frac":
        return traced_wall / untraced_wall - 1.0
    func, stat = name.rsplit(".", 1)
    return layers.get(func, {}).get(stat, 0)


def summarize(workload: str, seed: int, run: dict, trace: bool, bench: dict) -> dict:
    reps = run["reps"]
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    problems = sorted({p for r in reps for p in r["problems"]})
    outputs = {json.dumps(r["output"], sort_keys=True) for r in reps}
    if len(outputs) != 1:
        problems.append("outputs differ between repetitions (traced or not) of one seed")
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    if trace:
        wall = statistics.median(r["wall_s"] for r in plain)
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        metrics = {}
        for m in bench["per_layer"]:
            values = [per_layer_value(m["name"], r["layers"], wall, traced_wall) for r in traced]
            metrics[m["name"]] = {"value": statistics.median(values), "unit": m["unit"]}
        for r in traced:
            if r["self_total_s"] > r["wall_s"]:
                problems.append(f"sum of self times {r['self_total_s']} exceeds wall {r['wall_s']}")
    else:
        metrics = {
            m["name"]: {"value": statistics.median(r[m["name"]] for r in plain), "unit": m["unit"]}
            for m in bench["end_to_end"]
        }
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "ops_failed_frac": failed / attempted,
        "problems": problems,
        "metrics": metrics,
        "repetitions": len(plain),
        "traced_repetitions": len(traced),
    }


def report(summary: dict) -> None:
    print(f"{summary['workload']}  seed={summary['seed']}  trace={summary['trace']}  "
          f"repetitions={summary['repetitions']} untraced, {summary['traced_repetitions']} traced")
    for name, m in summary["metrics"].items():
        print(f"  {name:48s} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'ops_failed_frac':48s} {summary['ops_failed_frac']:>16.6g} fraction "
          f"({summary['failed']}/{summary['attempted']} items)")
    for p in summary["problems"]:
        print(f"  PROBLEM: {p}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "chromacode" / "__init__.py").is_file():
        print(f"no chromacode sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)

    facts = machine_facts()
    facts["loadavg_before"] = loadavg()
    if args.workload == "all":
        names = [w["name"] for w in bench["workloads"]]
    else:
        names = [args.workload]
    summaries = []
    try:
        for name in names:
            run = run_workload(name, args.seed, args.seconds, bool(args.trace))
            facts.update(run["reps"][0].get("facts", {}))
            summary = summarize(name, args.seed, run, bool(args.trace), bench)
            summaries.append(summary)
            report(summary)
            facts["loadavg_after"] = loadavg()
            results = {"machine": facts, "summary": summary, "elapsed_s": run["elapsed_s"],
                       "repetitions": run["reps"]}
            path = OUT / f"results_{name}_seed{args.seed}_trace{args.trace}.json"
            path.write_text(json.dumps(results, indent=1) + "\n")
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(exc, file=sys.stderr)
        return 1
    print("machine: " + json.dumps(facts))

    if len(summaries) == 1:
        metrics = summaries[0]["metrics"]
    else:
        metrics = {f"{s['workload']}.{k}": v for s in summaries for k, v in s["metrics"].items()}
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
