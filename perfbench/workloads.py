"""The benchmark's batch workloads.

Each workload has three parts, called in this order by ``worker.py`` in a
fresh process:

- ``make_inputs(seed)`` builds the inputs; it counts towards set-up time;
- ``run(inputs)`` is the timed body: one caller, items in a closed loop,
  ``threads=1``;
- ``check(inputs, result, found, seed)`` validates the outputs and returns the
  problems found, each tied to one item or (``None``) to all of them. ``found``
  maps each function in ``CAPTURED`` to the (graph, code set) of each of its
  calls, in call order.

The program only ever receives the generated inputs; the seed stays here.
Calls go through module attributes (``codes.exact_max_packing``), never names
bound with ``from ... import``, so that the tracer's wrappers see them.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from chromacode import codes, graphs, regimes

DEFAULT_SEED = 7
HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected"
LAMBDA2_TOL = 1e-8   # CSV lambda2 has 10 significant digits
DENSE_CHECK_N = 64   # independent lambda2: dense below this many vertices


# functions whose results the checks inspect, and the (graph, code set) each
# call yields; the program passes the graph first and positionally
CAPTURED = {
    "codes.greedy_pack": lambda a, k, out: (a[0], out),
    "codes.build_family_instance": lambda a, k, out: out,
    "codes.exact_max_packing": lambda a, k, out: (a[0], out[1]),
    "colorings.layered_bipartite_pair": lambda a, k, out: (
        a[0], codes.CodeSet(out, Fraction(0), None, {"family": "layered-pair"})
    ),
}


@dataclass
class Result:
    """What one run of a workload body produced."""

    output: object                       # JSON-able, compared across runs
    items: int                           # items attempted
    errors: dict[int, str] = field(default_factory=dict)  # item -> exception


def failed_items(result: Result, problems: list[tuple[int | None, str]]) -> int:
    """Items that raised or have a problem; an item-less problem fails every item."""
    bad = [i for i, _ in problems] + list(result.errors)
    return result.items if None in bad else len(set(bad))


def _verify_codes(found) -> list[tuple[int | None, str]]:
    """Every code the program returned must be delta-distinct as claimed."""
    problems = []
    unique = {id(C): C for _, C in found}
    for C in unique.values():
        if len(C.members) < 1:
            continue
        res = codes.verify_delta_distinct(C)
        if not res.ok:
            problems.append((None, f"code of size {len(C)} fails delta={C.delta}"))
        if len(C.members) > 1 and C.min_dist is not None and res.min_dist != C.min_dist:
            problems.append((None, f"code claims min_dist {C.min_dist}, measured {res.min_dist}"))
    return problems


def independent_lambda2(G: graphs.RegularGraph) -> float:
    """Second-largest eigenvalue of the normalized adjacency, from the
    adjacency lists alone and without the program's spectral layer."""
    from scipy.sparse import csr_matrix  # imported here to keep it out of set-up time
    from scipy.sparse.linalg import eigsh

    rows = np.repeat(np.arange(G.n), [len(nb) for nb in G.adjacency])
    cols = np.fromiter((u for nb in G.adjacency for u in nb), dtype=np.int64, count=len(rows))
    A = csr_matrix((np.full(len(rows), 1.0 / G.d), (rows, cols)), shape=(G.n, G.n))
    if G.n <= DENSE_CHECK_N:
        return float(np.linalg.eigvalsh(A.toarray())[-2])
    return float(np.sort(eigsh(A, k=2, which="LA", return_eigenvectors=False))[0])


# -- regime_map ---------------------------------------------------------------

def regime_inputs(seed: int) -> regimes.SweepConfig:
    """The README sweep config, verbatim except for its seed."""
    raw = json.loads((HERE / "regime_map.json").read_text())
    return regimes.SweepConfig(
        q=int(raw["q"]),
        delta_grid=tuple(Fraction(x) for x in raw["delta_grid"]),
        lambda_grid=tuple(Fraction(x) for x in raw["lambda_grid"]),
        families=tuple(
            regimes.SweepFamily(kind=f["kind"], params={k: v for k, v in f.items() if k != "kind"})
            for f in raw["families"]
        ),
        seed=seed,
        budget=int(raw["budget"]),
        target=int(raw["target"]),
    )


def regime_run(cfg: regimes.SweepConfig) -> Result:
    items = len(cfg.delta_grid) * len(cfg.lambda_grid)
    lines = [regimes.CSV_HEADER]
    errors = {}
    try:
        for pt in regimes.regime_map_sweep(cfg, threads=1):
            lines.append(regimes.regime_point_csv(pt))
    except Exception as exc:  # the item being computed and every later one failed
        for i in range(len(lines) - 1, items):
            errors[i] = repr(exc)
    return Result("\n".join(lines) + "\n", items, errors)


def _backing_code(evidence, delta: Fraction, n: int, lam2: float, size: int, dist: int,
                  lambda2_of) -> bool:
    """Whether some captured code on an n-vertex graph of measured lambda2
    ``lam2`` has ``size`` members, is delta-distinct and has min distance ``dist``."""
    for G, C in evidence:
        if G.n != n or len(C) != size:
            continue
        res = codes.verify_delta_distinct(codes.CodeSet(C.members, delta))
        if res.ok and res.min_dist == dist and abs(lambda2_of(G) - lam2) <= LAMBDA2_TOL:
            return True
    return False


def regime_check(cfg, result: Result, found, seed) -> list[tuple[int | None, str]]:
    evidence = [
        pair for name in ("colorings.layered_bipartite_pair", "codes.build_family_instance",
                          "codes.greedy_pack")
        for pair in found[name]
    ]
    problems = _verify_codes(evidence)
    lambda2_cache: dict[int, float] = {}

    def lambda2_of(G):
        if id(G) not in lambda2_cache:
            lambda2_cache[id(G)] = independent_lambda2(G)
        return lambda2_cache[id(G)]

    lines = result.output.splitlines()
    if lines[0] != regimes.CSV_HEADER:
        problems.append((None, "CSV header differs"))
    # evidence_kind may itself hold commas: q,delta,lambda,class lead, four numbers trail
    rows = [line.split(",", 4)[:4] + line.rsplit(",", 4)[1:] for line in lines[1:]]
    grid = [(d, lam) for d in cfg.delta_grid for lam in cfg.lambda_grid]
    if len(rows) != len(grid):
        problems.append((None, f"{len(rows)} rows for {len(grid)} grid points"))
    q = cfg.q
    lo, hi = 1 - Fraction(1, q - 1), 1 - Fraction(1, q)
    for i, (row, (delta, lam)) in enumerate(zip(rows, grid)):
        if (int(row[0]), Fraction(row[1]), Fraction(row[2])) != (q, delta, lam):
            problems.append((i, f"row {i} is out of grid order"))
            continue
        cls = row[3]
        in_range = lo <= delta <= hi and 0 < lam < 1
        certified = in_range and regimes.unique_regime_certificate(q, delta, lam).certified
        if (cls == regimes.CERTIFIED) != certified:
            problems.append((i, f"row {i}: {cls} disagrees with the certificate"))
        if cls == regimes.COUNTEREXAMPLE:
            n, lam2, size, dist = int(row[4]), float(row[5]), int(row[6]), int(row[7])
            if lam2 > float(lam) + 1e-12:
                problems.append((i, f"row {i}: measured lambda2 {lam2} > {lam}"))
            if size < 2 or dist < codes.distance_threshold(delta, n):
                problems.append((i, f"row {i}: min_dist {dist} below ceil(delta n)"))
            elif not _backing_code(evidence, delta, n, lam2, size, dist, lambda2_of):
                problems.append((i, f"row {i}: no code the program built backs it"))
    if seed == DEFAULT_SEED:
        want = (EXPECTED / "regime_map.csv").read_text().splitlines()
        if len(want) != len(lines) or want[0] != lines[0]:
            problems.append((None, "CSV shape differs from expected/regime_map.csv"))
        for i, (got, exp) in enumerate(zip(lines[1:], want[1:])):
            if got != exp:
                problems.append((i, f"row {i} differs from expected: {got!r} != {exp!r}"))
    return problems


# -- exact_f --------------------------------------------------------------------

def _named_graphs() -> dict[str, graphs.RegularGraph]:
    prism = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    k33 = [(i, 3 + j) for i in range(3) for j in range(3)]
    petersen = (
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    )
    return {
        "C5": graphs.cycle_graph(5),
        "C6": graphs.cycle_graph(6),
        "C7": graphs.cycle_graph(7),
        "prism": graphs.build_from_edges(6, prism),
        "K33": graphs.build_from_edges(6, k33, part_labels=[0, 0, 0, 1, 1, 1]),
        "petersen": graphs.build_from_edges(10, petersen),
    }


EXACT_Q = 3
EXACT_TOP = Fraction(2, 3)


def exact_inputs(seed: int):
    """Every delta = k/n below 2/3, then 2/3 itself; the seed is not used."""
    out = []
    for name, G in _named_graphs().items():
        deltas = [Fraction(k, G.n) for k in range(G.n) if Fraction(k, G.n) < EXACT_TOP]
        out.append((name, G, deltas + [EXACT_TOP]))
    return out


def exact_run(inputs) -> Result:
    sizes: dict[str, list[int | None]] = {}
    errors = {}
    item = 0
    for name, G, deltas in inputs:
        sizes[name] = []
        for delta in deltas:
            try:
                sizes[name].append(codes.exact_max_packing(G, EXACT_Q, delta)[0])
            except Exception as exc:
                sizes[name].append(None)
                errors[item] = repr(exc)
            item += 1
    return Result(sizes, item, errors)


def exact_check(inputs, result: Result, found, seed) -> list[tuple[int | None, str]]:
    problems = []
    witnesses = iter(found["codes.exact_max_packing"])
    sizes = [s for name, _, _ in inputs for s in result.output[name]]
    for item, size in enumerate(sizes):
        if size is None:
            continue
        witness = next(witnesses)
        if len(witness[1]) != size:
            problems.append((item, f"witness has {len(witness[1])} members for size {size}"))
        problems += [(item, msg) for _, msg in _verify_codes([witness])]
    item = 0
    want = json.loads((EXPECTED / "exact_f.json").read_text())
    for name, G, deltas in inputs:
        got = result.output[name]
        for k, size in enumerate(got):
            if k and size is not None and got[k - 1] is not None and size > got[k - 1]:
                problems.append((item + k, f"{name}: size grows from {got[k - 1]} to {size}"))
            if k >= len(want[name]) or size != want[name][k]:
                problems.append((item + k, f"{name} delta={deltas[k]}: size {size} not as expected"))
        if len(got) != len(want[name]):
            problems.append((None, f"{name}: {len(got)} sizes, expected {len(want[name])}"))
        item += len(deltas)
    return problems


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable[[int], object]
    run: Callable[[object], Result]
    check: Callable[..., list[tuple[int | None, str]]]


WORKLOADS = {
    "regime_map": Workload(regime_inputs, regime_run, regime_check),
    "exact_f": Workload(exact_inputs, exact_run, exact_check),
}
