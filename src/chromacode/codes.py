"""Delta-distinct sets of colorings: verification, packing, and exact tiny-case bounds.

The distance threshold "at least delta * n" is evaluated as an exact integer:
a pair is allowed iff distance >= ceil(delta * n) with delta a Fraction, so no
float comparison ever decides membership.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np

from . import colorings as col
from . import graphs, spectral
from .colorings import Coloring
from .errors import BadTau, ChromaError, MixedBinding, TooLarge
from .graphs import RegularGraph

CLIQUE_CAP = 2000


def distance_threshold(delta: Fraction, n: int) -> int:
    """ceil(delta * n) in exact integer arithmetic."""
    delta = Fraction(delta)
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


def _check_members(members: Sequence[Coloring]) -> None:
    if not members:
        raise ValueError("code set needs at least one member")
    key, q = members[0].graph_key, members[0].q
    for X in members[1:]:
        if X.graph_key != key or X.q != q:
            raise MixedBinding("members bound to different graphs or q values")


def verify_delta_distinct(C: CodeSet) -> VerifyResult:
    """Exact all-pairs check that every distance reaches ceil(delta * n)."""
    _check_members(C.members)
    if len(C.members) == 1:
        return VerifyResult(True, None, None)
    n = C.members[0].n
    thr = distance_threshold(C.delta, n)
    min_dist = None
    worst = None
    for i in range(len(C.members)):
        for j in range(i + 1, len(C.members)):
            d, _ = col.distance(C.members[i], C.members[j])
            if min_dist is None or d < min_dist:
                min_dist = d
                worst = (i, j)
    return VerifyResult(min_dist >= thr, min_dist, worst)


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
    ``target`` members; a partial set is returned with
    ``provenance['budget_exhausted'] = True``.
    """
    delta = Fraction(delta)
    thr = distance_threshold(delta, G.n)
    kept: list[Coloring] = []
    min_dist: int | None = None
    draws = 0
    for i in range(budget):
        X = sampler((seed, i))
        if X is None:
            break
        draws += 1
        if X.graph_key != G.graph_key:
            raise MixedBinding("sampler returned a coloring of a different graph")
        dists = [col.distance(X, Y)[0] for Y in kept]
        if all(d >= thr for d in dists):
            kept.append(X)
            for d in dists:
                if min_dist is None or d < min_dist:
                    min_dist = d
        if len(kept) >= target:
            break
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


def exact_max_packing(G: RegularGraph, q: int, delta: Fraction) -> tuple[int, CodeSet]:
    """Exact maximum delta-distinct set over *all* proper q-colorings of G.

    Distance is invariant under relabeling, so for delta > 0 a code holds at
    most one coloring per relabeling orbit, and any member may stand for its
    orbit. The clique search therefore runs on the canonical colorings only
    (colors first appear in the order 0, 1, 2, ...): compatibility edge iff
    distance >= ceil(delta * n). When that threshold is 0 every coloring is
    compatible and the answer is their count k, witnessed by all of them.
    Returns 0 with an empty witness when G has no proper q-coloring.
    """
    delta = Fraction(delta)
    all_colorings = col.enumerate_proper(G, q)
    k = len(all_colorings)
    prov = {"method": "exact", "colorings": k}
    if not all_colorings:
        return 0, CodeSet((), delta, None, prov)
    if k > CLIQUE_CAP:
        raise TooLarge(f"{k} colorings exceed the clique cap {CLIQUE_CAP}")
    thr = distance_threshold(delta, G.n)
    if thr <= 0:
        # every relabeling orbit holds at least two colorings at distance 0
        return k, CodeSet(tuple(all_colorings), delta, 0 if k > 1 else None, prov)
    # canonical iff the running maximum of the colors grows by at most 1 per vertex
    running_max = np.maximum.accumulate(np.array([X.colors for X in all_colorings]), axis=1)
    canonical = (np.diff(running_max, axis=1, prepend=-1) <= 1).all(axis=1)
    reps = [X for X, keep in zip(all_colorings, canonical) if keep]
    r = len(reps)
    adj = [0] * r
    for i in range(r):
        for j in range(i + 1, r):
            d, _ = col.distance(reps[i], reps[j])
            if d >= thr:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    members = tuple(reps[i] for i in _max_clique(adj, r))
    res = verify_delta_distinct(CodeSet(members, delta))
    return len(members), CodeSet(members, delta, res.min_dist, prov)


# -- the family table: graph families and their samplers ----------------------

Sampler = Callable[[object], Coloring | None]


def list_sampler(members: Sequence[Coloring]) -> Sampler:
    """Draw i is members[i]; None once the list is exhausted."""

    def sampler(s):
        i = s[1]
        return members[i] if i < len(members) else None

    return sampler


def _biased_sampler(G: RegularGraph, q: int, tau=None) -> Sampler:
    tau = 1.0 / (8 * G.d * G.d) if tau is None else float(Fraction(tau))
    if not 0.0 <= tau <= 1.0:
        raise BadTau(f"tau={tau} outside [0, 1]")
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
        signing, _ = graphs.search_low_lambda_signing(G, p["restarts"], seed=(*seed, k))
        G = graphs.two_lift(G, signing)
        members = [col.lift_coloring(X, G) for X in members]
    return G, list_sampler(members)


@dataclass(frozen=True)
class FamilySpec:
    params: Mapping[str, object]  # allowed keys and defaults; an integer default demands an int
    size_key: str                 # the param that empirical_f's sizes set
    label: str                    # format string over the params
    build: Callable[[int, Mapping, tuple], tuple[RegularGraph, Sampler]]


FAMILIES: dict[str, FamilySpec] = {
    "layered-pair": FamilySpec(
        {"d": 25, "m": 50}, "m", "layered-pair(d={d},m={m})", _build_layered_pair),
    "biased": FamilySpec(  # tau None: _biased_sampler's default
        {"d": 4, "half": 500, "tau": None}, "half", "biased(d={d},half={half})", _build_biased),
    "gadget": FamilySpec(
        {"base_half": 8}, "base_half", "gadget(base_half={base_half})", _build_gadget),
    "tensor-lift": FamilySpec(
        {"N": 2, "lifts": 1, "restarts": 30}, "lifts", "tensor-lift(N={N},lifts={lifts})",
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


@dataclass(frozen=True)
class FamilyRow:
    n: int
    size_param: int
    code_size: int
    lambda2: float
    min_dist: int | None
    rejected: bool


def build_family_instance(
    q: int, fam: SweepFamily, seed: tuple, delta: Fraction, target: int, budget: int
) -> tuple[RegularGraph, CodeSet]:
    """Build one family member and greedily pack its sampler's colorings."""
    G, sampler = fam.build(q, seed)
    code = greedy_pack(G, sampler, delta, target, budget, seed,
                       provenance={"family": fam.label()})
    return G, code


def empirical_f(
    q: int,
    fam: SweepFamily,
    sizes: Sequence[int],
    delta: Fraction,
    lambda_cap: float,
    seed: int,
    budget: int = 2000,
    target: int = 64,
) -> list[FamilyRow]:
    """Lower-bound table for f along one family: build, verify lambda2, pack.

    Each size sets the family's size param (FAMILIES[kind].size_key) and
    seeds its instance with (seed, size). Graphs whose measured lambda2
    exceeds the cap are recorded as rejected, never silently dropped.
    """
    size_key = FAMILIES[fam.kind].size_key
    rows = []
    for size in sizes:
        sized = SweepFamily(fam.kind, {**fam.params, size_key: size})
        G, code = build_family_instance(q, sized, (seed, size), delta, target, budget)
        lam2 = spectral.lambda2(G)
        rows.append(
            FamilyRow(
                n=G.n,
                size_param=size,
                code_size=len(code),
                lambda2=lam2,
                min_dist=code.min_dist,
                rejected=lam2 > lambda_cap,
            )
        )
    return rows
