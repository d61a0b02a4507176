"""Regime certificates and the (delta, lambda) regime-map sweep.

Classification is evidence-based and finite: "certified-unique" means the
exact rational certificate inequality holds, "counterexample-exists" means a
concrete graph with measured lambda2 <= lambda carries >= 2 colorings at the
required distance, and "unknown" is an honest third state.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Mapping

from . import codes, spectral
from .codes import CodeSet, SweepFamily
from .errors import ChromaError, OutOfRange

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


# -- regime map sweep ---------------------------------------------------------

@dataclass(frozen=True)
class SweepConfig:
    """A (delta, lambda) sweep, checked and normalised when made.

    ``q``, ``seed``, ``budget`` and ``target`` must be ints (not bools), at
    least 3 for ``q`` and 0 for the rest. Each grid is a list or tuple of
    rationals, each an int (not a bool), a string such as "2/3" or "-1" in
    ASCII digits (``codes.parse_rational``) or a Fraction; a float is
    refused, as its binary value is not the rational meant. The grids are
    stored as tuples of Fractions: delta in [0, 1 - 1/q], where distances
    stop, and lambda in [-1, 1], where normalized eigenvalues lie.
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
                values = tuple(map(codes.parse_rational, grid))
            except (ChromaError, ZeroDivisionError) as exc:
                raise ChromaError(f'sweep config "{name}" holds a non-rational: {exc}') from None
            for x in values:
                if not lo <= x <= hi:
                    raise OutOfRange(f'sweep config "{name}" value {x} outside [{lo}, {hi}]')
            object.__setattr__(self, name, values)
        object.__setattr__(self, "families", tuple(self.families))


CSV_HEADER = "q,delta,lambda,classification,evidence_kind,n,lambda2_measured,code_size,min_dist"


def regime_map_sweep(
    config: SweepConfig,
    threads: int = 1,  # unused; still passed by perfbench/workloads.py (regime_run)
) -> Iterator[RegimePoint]:
    """Classify every grid point, yielding rows in canonical grid order.

    Family instances are built once, each from its own derived seed, and
    reused; greedy packs are cached per (family, delta).
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
    ev = pt.evidence  # only counterexamples carry n, lambda2, code_size, min_dist
    lam2 = ev.get("lambda2")
    return ",".join(
        [
            str(pt.q), str(pt.delta), str(pt.lam), pt.classification,
            str(ev.get("kind", "")), str(ev.get("n", "")),
            "" if lam2 is None else f"{lam2:.10g}",
            str(ev.get("code_size", "")), str(ev.get("min_dist", "")),
        ]
    )
