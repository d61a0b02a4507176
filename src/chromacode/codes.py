"""Delta-distinct sets of colorings: verification, packing, and exact tiny-case bounds.

The distance threshold "at least delta * n" is evaluated as an exact integer:
a pair is allowed iff distance >= ceil(delta * n) with delta a Fraction, so no
float comparison ever decides membership.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Mapping, Sequence

import numpy as np

from . import colorings as col
from . import graphs
from .colorings import Coloring
from .errors import BindingMismatch, ChromaError, OutOfRange, PreconditionFail, TooLarge
from .graphs import RegularGraph

CLIQUE_CAP = 2000


def distance_threshold(delta: Fraction, n: int) -> int:
    """ceil(delta * n) in exact integer arithmetic; delta must lie in [0, 1]."""
    delta = Fraction(delta)
    if not 0 <= delta <= 1:
        raise OutOfRange(f"delta={delta} outside [0, 1]")
    return -((-delta.numerator * n) // delta.denominator)


@dataclass(frozen=True)
class CodeSet:
    """A set of colorings of one graph with a promised pairwise distance fraction."""

    members: tuple[Coloring, ...]
    delta: Fraction
    min_dist: int | None = None
    provenance: Mapping = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    min_dist: int | None
    worst_pair: tuple[int, int] | None
    distances: tuple[int, ...] = ()  # every pair's, in itertools.combinations order


def _check_members(members: Sequence[Coloring]) -> None:
    if not members:
        raise PreconditionFail("code set needs at least one member")
    key, q = members[0].graph_key, members[0].q
    for X in members[1:]:
        if X.graph_key != key or X.q != q:
            raise BindingMismatch("members bound to different graphs or q values")


def verify_delta_distinct(C: CodeSet) -> VerifyResult:
    """Exact all-pairs check that every distance reaches ceil(delta * n).

    ``min_dist`` and ``worst_pair`` come from the first closest pair in
    (i, j) order; a single member passes with neither.
    """
    _check_members(C.members)
    thr = distance_threshold(C.delta, C.members[0].n)
    pairs = list(itertools.combinations(range(len(C.members)), 2))
    dists = tuple(col.distance(C.members[i], C.members[j])[0] for i, j in pairs)
    if not dists:
        return VerifyResult(True, None, None)
    k = dists.index(min(dists))
    return VerifyResult(dists[k] >= thr, dists[k], pairs[k], dists)


def greedy_pack(
    G: RegularGraph,
    sampler: Callable[[object], Coloring | None],
    delta: Fraction,
    target: int,
    budget: int,
    seed,
    provenance: Mapping | None = None,
) -> CodeSet:
    """Draw samples and keep those at threshold distance from everything kept.

    ``sampler(seed_i)`` must return a proper coloring of G (or None when its
    stream is exhausted); draw i uses the derived seed (seed, i), so the
    result depends only on (sampler, delta, target, budget, seed). Stops at
    ``target`` members, before any draw when ``target`` is 0; a partial set
    is returned with ``provenance['budget_exhausted'] = True``.
    """
    delta = Fraction(delta)
    thr = distance_threshold(delta, G.n)
    for name, value in (("budget", budget), ("target", target)):
        if value < 0:
            raise OutOfRange(f"{name}={value} is negative")
    kept: list[Coloring] = []
    min_dist: int | None = None
    draws = 0
    for i in range(budget):
        if len(kept) >= target:
            break
        X = sampler((seed, i))
        if X is None:
            break
        draws += 1
        if X.graph_key != G.graph_key:
            raise BindingMismatch("sampler returned a coloring of a different graph")
        dists = [col.distance(X, Y)[0] for Y in kept]
        if all(d >= thr for d in dists):
            kept.append(X)
            for d in dists:
                if min_dist is None or d < min_dist:
                    min_dist = d
    prov = dict(provenance or {})
    prov.update(
        {
            "seed": graphs._seed_repr(seed),
            "budget": budget,
            "draws_used": draws,
            "budget_exhausted": len(kept) < target,
        }
    )
    return CodeSet(tuple(kept), delta, min_dist, prov)


# -- exact maximum packing on tiny graphs ------------------------------------

def _max_clique(adj: list[int], n: int) -> list[int]:
    """Exact maximum clique, branch and bound with a greedy coloring bound."""
    best: list[int] = []

    def expand(r: list[int], cand: int) -> None:
        nonlocal best
        if cand == 0:
            if len(r) > len(best):
                best = r.copy()
            return
        # greedy coloring of the candidates: bound[i] = color class index
        seq: list[int] = []
        bound: list[int] = []
        rest = cand
        c = 0
        while rest:
            c += 1
            avail = rest
            while avail:
                v = (avail & -avail).bit_length() - 1
                seq.append(v)
                bound.append(c)
                rest &= ~(1 << v)
                avail &= ~(adj[v])
                avail &= rest
        sub = cand
        for i in range(len(seq) - 1, -1, -1):
            if len(r) + bound[i] <= len(best):
                return
            v = seq[i]
            r.append(v)
            expand(r, sub & adj[v])
            r.pop()
            sub &= ~(1 << v)

    expand([], (1 << n) - 1)
    return sorted(best)


class _OracleTable:
    """What the oracle needs of one (G, q) at every delta: the canonical rows
    ``reps``, the count ``k`` of all proper colorings and, built on first
    use, the representatives' distance matrix ``dist``. Arrays are read-only."""

    def __init__(self, G: RegularGraph, q: int):
        self.q = q
        self.reps = col._proper_rows(G, q, canonical=True)
        self.reps.setflags(write=False)
        # used[c]: representatives using c colors; each stands for q!/(q-c)! colorings
        used = np.bincount(self.reps.max(axis=1) + 1)
        self.k = sum(math.perm(q, c) * count for c, count in enumerate(used.tolist()))

    @cached_property
    def dist(self) -> np.ndarray:
        dist = col._distance_matrix(self.reps, self.q)
        dist.setflags(write=False)
        return dist


@lru_cache(maxsize=1, typed=True)
def _oracle_table(G: RegularGraph, q: int) -> _OracleTable:
    """The table of the last (G, q) asked for; a profile over delta reuses it.
    Typed, so a q of another type (3.0 for 3) is enumerated afresh."""
    return _OracleTable(G, q)


def exact_max_packing(G: RegularGraph, q: int, delta: Fraction) -> tuple[int, CodeSet]:
    """Exact maximum delta-distinct set over *all* proper q-colorings of G.

    Distance is invariant under relabeling, so for delta > 0 a code holds at
    most one coloring per relabeling orbit, and any member may stand for its
    orbit. The clique search therefore runs on the canonical colorings only
    (colors first appear in the order 0, 1, 2, ...), which are the only ones
    enumerated: compatibility edge iff distance >= ceil(delta * n). When that
    threshold is 0 every coloring is compatible and the answer is their count
    k, witnessed by all of them. Returns 0 with an empty witness when G has no
    proper q-coloring.

    The enumeration and the distance matrix are made once per (G, q) and
    reused by later calls on an equal graph; the caps are checked every call.
    """
    delta = Fraction(delta)
    thr = distance_threshold(delta, G.n)
    col._check_enumerable(G, q)
    table = _oracle_table(G, q)
    k = table.k
    prov = {"method": "exact", "colorings": k}
    if not k:
        return 0, CodeSet((), delta, None, prov)
    if k > CLIQUE_CAP:
        raise TooLarge(f"{k} colorings exceed the clique cap {CLIQUE_CAP}")
    if thr <= 0:
        # every relabeling orbit holds at least two colorings at distance 0
        return k, CodeSet(tuple(col.enumerate_proper(G, q)), delta, 0 if k > 1 else None, prov)
    reps, dist = table.reps, table.dist
    bits = np.packbits(dist >= thr, axis=1, bitorder="little")
    adj = [int.from_bytes(row.tobytes(), "little") for row in bits]
    clique = _max_clique(adj, len(reps))
    members = tuple(Coloring(q, reps[i], G.graph_key) for i in clique)
    pair_dists = dist[np.ix_(clique, clique)][np.triu_indices(len(clique), 1)]
    min_dist = int(pair_dists.min()) if pair_dists.size else None
    return len(members), CodeSet(members, delta, min_dist, prov)


# -- the family table: graph families and their samplers ----------------------

Sampler = Callable[[object], Coloring | None]


def list_sampler(members: Sequence[Coloring]) -> Sampler:
    """Draw i is members[i]; None once the list is exhausted."""

    def sampler(s):
        i = s[1]
        return members[i] if i < len(members) else None

    return sampler


def _biased_sampler(G: RegularGraph, q: int, tau=None) -> Sampler:
    if tau is None:
        if G.d == 0:
            raise PreconditionFail("the default tau 1/(8 d^2) needs d >= 1")
        tau = 1.0 / (8 * G.d * G.d)
    else:
        try:
            tau = float(Fraction(tau))
        except (TypeError, ValueError, ZeroDivisionError):
            raise ChromaError(f"tau={tau!r} is not a rational") from None
    if not 0.0 <= tau <= 1.0:
        raise OutOfRange(f"tau={tau} outside [0, 1]")
    return lambda s: col.sample_bipartite_biased(G, q, tau, s)


# the pack samplers, by name: (G, q, tau) -> sampler; only "biased" reads tau
SAMPLERS: dict[str, Callable[[RegularGraph, int, object], Sampler]] = {
    "gadget": lambda G, q, tau=None: lambda s: col.sample_gadget_coloring(G, q, s),
    "biased": _biased_sampler,
    "enumerated": lambda G, q, tau=None: list_sampler(col.enumerate_proper(G, q)),
}


def _build_layered_pair(q: int, p: Mapping, seed) -> tuple[RegularGraph, Sampler]:
    G = graphs.random_regular_bipartite((q - 1) * p["m"], p["d"], seed=seed)
    return G, list_sampler(col.layered_bipartite_pair(G, q))


def _build_biased(q: int, p: Mapping, seed) -> tuple[RegularGraph, Sampler]:
    G = graphs.random_regular_bipartite(p["half"], p["d"], seed=seed)
    return G, _biased_sampler(G, q, p["tau"])


def _build_gadget(q: int, p: Mapping, seed) -> tuple[RegularGraph, Sampler]:
    G = graphs.gadget_expand(graphs.random_regular_bipartite(p["base_half"], 3, seed=seed))
    return G, SAMPLERS["gadget"](G, q)


def _build_tensor_lift(q: int, p: Mapping, seed) -> tuple[RegularGraph, Sampler]:
    """K_q^N lifted ``lifts`` times by low-lambda2 signings; lift k searches
    from seed (*seed, k). Its members are the lifted coordinate colorings."""
    G = graphs.tensor_power(q, p["N"])
    members = col.coordinate_colorings(q, p["N"], G)
    for k in range(p["lifts"]):
        signs, _ = graphs.search_low_lambda_signing(G, p["restarts"], seed=(*seed, k))
        G = graphs.two_lift(G, signs)
        members = [col.lift_coloring(X, G) for X in members]
    return G, list_sampler(members)


@dataclass(frozen=True)
class FamilySpec:
    params: Mapping[str, object]  # allowed keys and defaults; an integer default demands an int
    label: str                    # format string over the params
    build: Callable[[int, Mapping, tuple], tuple[RegularGraph, Sampler]]


FAMILIES: dict[str, FamilySpec] = {
    "layered-pair": FamilySpec(
        {"d": 25, "m": 50}, "layered-pair(d={d},m={m})", _build_layered_pair),
    "biased": FamilySpec(  # tau None: _biased_sampler's default
        {"d": 4, "half": 500, "tau": None}, "biased(d={d},half={half})", _build_biased),
    "gadget": FamilySpec(
        {"base_half": 8}, "gadget(base_half={base_half})", _build_gadget),
    "tensor-lift": FamilySpec(
        {"N": 2, "lifts": 1, "restarts": 30}, "tensor-lift(N={N},lifts={lifts})",
        _build_tensor_lift),
}


@dataclass(frozen=True)
class SweepFamily:
    """One graph family from FAMILIES; ``params`` override its defaults.

    Once made, ``params`` holds every param of the family. A param whose
    default is an integer must be given as an int (not a bool); any other
    key or value raises ChromaError naming the kind, the param and the value.
    """

    kind: str
    params: Mapping = field(default_factory=dict)

    def __post_init__(self):
        spec = FAMILIES.get(self.kind)
        if spec is None:
            raise ChromaError(
                f"unknown family kind {self.kind!r}; known kinds: {', '.join(FAMILIES)}"
            )
        unknown = sorted(set(self.params) - set(spec.params))
        if unknown:
            raise ChromaError(
                f"family {self.kind!r} has no param {', '.join(map(repr, unknown))}; "
                f"allowed: {', '.join(spec.params)}"
            )
        values = {**spec.params, **self.params}
        for k, v in values.items():
            if isinstance(spec.params[k], int) and (type(v) is bool or not isinstance(v, int)):
                raise ChromaError(f"family {self.kind!r} param {k!r} must be an integer, got {v!r}")
        object.__setattr__(self, "params", values)

    def label(self) -> str:
        return FAMILIES[self.kind].label.format(**self.params)

    def build(self, q: int, seed: tuple) -> tuple[RegularGraph, Sampler]:
        """The family member for ``seed`` (used unchanged for the graph) and
        its sampler."""
        return FAMILIES[self.kind].build(q, self.params, seed)


def build_family_instance(
    q: int, fam: SweepFamily, seed: tuple, delta: Fraction, target: int, budget: int
) -> tuple[RegularGraph, CodeSet]:
    """Build one family member and greedily pack its sampler's colorings.
    Uncalled in the package; ``perfbench/workloads.py`` captures it by name."""
    G, sampler = fam.build(q, seed)
    code = greedy_pack(G, sampler, delta, target, budget, seed,
                       provenance={"family": fam.label()})
    return G, code

