"""Regime certificates and structural lemma checks.

Classification is evidence-based and finite: "certified-unique" means the
exact rational certificate inequality holds, "counterexample-exists" means a
concrete graph with measured lambda2 <= lambda carries >= 2 colorings at the
required distance, and "unknown" is an honest third state. The exhaustive
sigma_profile check reads its cap, SIGMA_Q_CAP (q! permutations), from this
module at call time.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations
from typing import Iterator, Mapping, Sequence

import numpy as np

from . import codes, colorings as col, graphs, spectral
from .codes import CodeSet, SweepFamily
from .colorings import Coloring
from .errors import ChromaError, OutOfRange, PreconditionFail, QTooLarge
from .graphs import RegularGraph

SIGMA_Q_CAP = 8

CERTIFIED = "certified-unique"
COUNTEREXAMPLE = "counterexample-exists"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class RegimePoint:
    delta: Fraction
    lam: Fraction
    q: int
    classification: str
    evidence: Mapping = field(default_factory=dict)


@dataclass(frozen=True)
class CertificateResult:
    certified: bool
    lhs: Fraction
    rhs: Fraction


def unique_regime_certificate(q: int, delta, lam) -> CertificateResult:
    """Exact-arithmetic membership certificate for the unique regime.

    Certifies (delta, lambda) when
        (q-1)(1-delta)^2 + (1 - (q-1)(1-delta))^2 < 1 - (1 - 1/(q-1)) / (1 - lambda),
    for 1 - 1/(q-1) <= delta <= 1 - 1/q and 0 < lambda < 1 (strict inequality:
    both boundary constructions sit exactly on equality).
    """
    if q < 3:
        raise OutOfRange("certificate needs q >= 3")
    delta = Fraction(delta)
    lam = Fraction(lam)
    lo = 1 - Fraction(1, q - 1)
    hi = 1 - Fraction(1, q)
    if not (lo <= delta <= hi):
        raise OutOfRange(f"delta={delta} outside [{lo}, {hi}] for q={q}")
    if not (0 < lam < 1):
        raise OutOfRange(f"lambda={lam} outside (0, 1)")
    gap = 1 - delta
    lhs = (q - 1) * gap * gap + (1 - (q - 1) * gap) ** 2
    rhs = 1 - (1 - Fraction(1, q - 1)) / (1 - lam)
    return CertificateResult(lhs < rhs, lhs, rhs)


def bipartite_threshold(q: int) -> Fraction:
    """1 - (1/floor(q/2) + 1/ceil(q/2)) / 2, the bipartite construction's distance."""
    if q < 3:
        raise OutOfRange("threshold defined for q >= 3")
    return 1 - Fraction(1, 2) * (Fraction(1, q // 2) + Fraction(1, (q + 1) // 2))


@dataclass(frozen=True)
class SigmaProfile:
    """Per-permutation overlap profile of a coloring pair.

    For each sigma, V_sigma = {v : X(v) = sigma(Y(v))}; stores w(V_sigma) and
    e(V_sigma, complement), plus the lambda2 the inequality was checked at.
    """

    sigmas: tuple[tuple[int, ...], ...]
    w: tuple[float, ...]
    e_cross: tuple[float, ...]
    lambda2: float


def sigma_profile(
    G: RegularGraph, X: Coloring, Y: Coloring, lam: float | None = None
) -> SigmaProfile:
    """Compute all q! overlap sets and check the spectral cut inequality.

    Verifies e(V_sigma, complement) >= 2 (1 - lambda2) (w - w^2) for every
    sigma (tolerance 1e-9), that the cyclic-shift orbit of every sigma covers
    V exactly once, and that d(X, Y) = n (1 - max_sigma w).
    """
    q = X.q
    if q > SIGMA_Q_CAP:
        raise QTooLarge(f"q={q} enumerates {q}! permutations; cap is {SIGMA_Q_CAP}")
    col._check_pair(X, Y)
    if lam is None:
        lam = spectral.lambda2(G)
    eu, ev = G.edge_arrays()
    n, m = G.n, G.m
    sigmas = []
    ws = []
    crosses = []
    sizes = {}
    for sigma in permutations(range(q)):
        sig = np.array(sigma, dtype=np.int64)
        mask = X.colors == sig[Y.colors]
        size = int(mask.sum())
        cross = int((mask[eu] != mask[ev]).sum())
        w = size / n
        e_cross = cross / m if m else 0.0
        if e_cross < 2.0 * (1.0 - lam) * (w - w * w) - 1e-9:
            raise AssertionError(
                f"cut inequality violated at sigma={sigma}: "
                f"{e_cross} < 2(1-{lam})({w}-{w}^2)"
            )
        sigmas.append(sigma)
        ws.append(w)
        crosses.append(e_cross)
        sizes[sigma] = size
    # every cyclic-shift orbit covers V exactly once
    for sigma in sizes:
        total = sum(
            sizes[tuple((c + i) % q for c in sigma)] for i in range(q)
        )
        if total != n:
            raise AssertionError(f"orbit of {sigma} covers {total} != {n} vertices")
    dist, _ = col.distance(X, Y)
    if dist != n - max(sizes.values()):
        raise AssertionError("distance disagrees with 1 - max_sigma w(V_sigma)")
    return SigmaProfile(tuple(sigmas), tuple(ws), tuple(crosses), lam)


def independent_size_bound(
    G: RegularGraph, A: Sequence[int]
) -> tuple[float, float, bool]:
    """w(A) <= (1 + e(A)) / 2, checked in exact integer arithmetic.

    Returns (w, e_within, ok).
    """
    if G.d < 1:
        raise PreconditionFail("bound needs d >= 1")
    meas = graphs.subset_measures(G, A)
    # w <= (1 + e)/2  <=>  2 |A| m <= n (m + |E(A)|)
    ok = 2 * meas.size * G.m <= G.n * (G.m + meas.inner_edges)
    return meas.w, meas.e_within, ok


def hoffman_bound(G: RegularGraph) -> float:
    """Chromatic-number lower bound 1 - 1/lambda_min."""
    if G.d < 1:
        raise PreconditionFail("Hoffman bound needs d >= 1")
    if not spectral.is_connected(G):
        raise PreconditionFail("Hoffman bound needs a connected graph")
    return 1.0 - 1.0 / spectral.lambda_min(G)


# -- regime map sweep ---------------------------------------------------------

@dataclass(frozen=True)
class SweepConfig:
    """A (delta, lambda) sweep, checked and normalised when made.

    ``q``, ``seed``, ``budget`` and ``target`` must be ints (not bools), at
    least 3 for ``q`` and 0 for the rest. Each grid is a list or tuple of
    rationals, each an int (not a bool), a string such as "2/3" or a
    Fraction; a float is refused, as its binary value is not the rational
    meant. The grids are stored as tuples of Fractions: delta in
    [0, 1 - 1/q], where distances stop, and lambda in [-1, 1], where
    normalized eigenvalues lie.
    """

    q: int
    delta_grid: tuple[Fraction, ...] = ()
    lambda_grid: tuple[Fraction, ...] = ()
    families: tuple[SweepFamily, ...] = ()
    seed: int = 0
    budget: int = 400
    target: int = 8

    def __post_init__(self):
        for name, low in (("q", 3), ("seed", 0), ("budget", 0), ("target", 0)):
            v = getattr(self, name)
            if type(v) is bool or not isinstance(v, int) or v < low:
                raise ChromaError(f'sweep config "{name}" must be an integer >= {low}, got {v!r}')
        for name, lo, hi in (("delta_grid", 0, 1 - Fraction(1, self.q)), ("lambda_grid", -1, 1)):
            grid = getattr(self, name)
            if not isinstance(grid, (list, tuple)):
                raise ChromaError(f'sweep config "{name}" must be a list, got {grid!r}')
            for x in grid:
                if type(x) is bool or not isinstance(x, (int, str, Fraction)):
                    raise ChromaError(
                        f'sweep config "{name}" values must be ints, strings or Fractions, '
                        f'got {x!r}'
                    )
            try:
                values = tuple(map(Fraction, grid))
            except (ValueError, ZeroDivisionError) as exc:
                raise ChromaError(f'sweep config "{name}" holds a non-rational: {exc}') from None
            for x in values:
                if not lo <= x <= hi:
                    raise OutOfRange(f'sweep config "{name}" value {x} outside [{lo}, {hi}]')
            object.__setattr__(self, name, values)
        object.__setattr__(self, "families", tuple(self.families))


CSV_HEADER = "q,delta,lambda,classification,evidence_kind,n,lambda2_measured,code_size,min_dist"


def regime_map_sweep(
    config: SweepConfig,
    skip: set[tuple[str, str]] | None = None,
    threads: int = 1,  # unused; still passed by perfbench/workloads.py (regime_run)
) -> Iterator[RegimePoint]:
    """Classify every grid point, yielding rows in canonical grid order.

    ``skip`` holds (delta, lambda) string keys already present in a resumed
    output. Family instances are built once, each from its own derived seed,
    and reused; greedy packs are cached per (family, delta).
    """
    q = config.q
    instances = []
    for idx, fam in enumerate(config.families):
        G, sampler = fam.build(q, (config.seed, idx))
        instances.append((G, sampler, spectral.lambda2(G)))
    pack_cache: dict[tuple[int, Fraction], CodeSet] = {}
    lo = 1 - Fraction(1, q - 1)
    hi = 1 - Fraction(1, q)
    for delta in config.delta_grid:
        for lam in config.lambda_grid:
            if skip and (str(delta), str(lam)) in skip:
                continue
            if lo <= delta <= hi and 0 < lam < 1:
                cert = unique_regime_certificate(q, delta, lam)
                if cert.certified:
                    yield RegimePoint(
                        delta, lam, q, CERTIFIED,
                        {"kind": "certificate", "lhs": cert.lhs, "rhs": cert.rhs},
                    )
                    continue
            for idx, (G, sampler, lam2) in enumerate(instances):
                if lam2 > float(lam) + 1e-12:
                    continue
                key = (idx, delta)
                if key not in pack_cache:
                    pack_cache[key] = codes.greedy_pack(
                        G, sampler, delta, config.target, config.budget, (config.seed, idx),
                    )
                code = pack_cache[key]
                if len(code) >= 2:
                    yield RegimePoint(
                        delta, lam, q, COUNTEREXAMPLE,
                        {
                            "kind": config.families[idx].label(),
                            "n": G.n,
                            "lambda2": lam2,
                            "code_size": len(code),
                            "min_dist": code.min_dist,
                        },
                    )
                    break
            else:
                yield RegimePoint(delta, lam, q, UNKNOWN, {})


def regime_point_csv(pt: RegimePoint) -> str:
    ev = pt.evidence
    if pt.classification == COUNTEREXAMPLE:
        return ",".join(
            [
                str(pt.q), str(pt.delta), str(pt.lam), pt.classification,
                str(ev.get("kind", "")), str(ev.get("n", "")),
                f"{ev.get('lambda2'):.10g}" if ev.get("lambda2") is not None else "",
                str(ev.get("code_size", "")), str(ev.get("min_dist", "")),
            ]
        )
    kind = ev.get("kind", "") if pt.classification == CERTIFIED else ""
    return ",".join(
        [str(pt.q), str(pt.delta), str(pt.lam), pt.classification, kind, "", "", "", ""]
    )
