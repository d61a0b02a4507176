"""Delta-distinct sets of colorings: verification, packing, and exact tiny-case bounds.

The distance threshold "at least delta * n" is evaluated as an exact integer:
a pair is allowed iff distance >= ceil(delta * n) with delta a Fraction, so no
float comparison ever decides membership.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from . import colorings as col
from . import graphs, spectral
from .colorings import Coloring
from .errors import ChromaError, MixedBinding, TooLarge
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

def _degeneracy_order(adj: list[int], n: int) -> list[int]:
    order = []
    alive = (1 << n) - 1
    deg = [(adj[v] & alive).bit_count() for v in range(n)]
    for _ in range(n):
        v = min(
            (x for x in range(n) if (alive >> x) & 1),
            key=lambda x: (deg[x], x),
        )
        order.append(v)
        alive &= ~(1 << v)
        for u in range(n):
            if (alive >> u) & 1 and (adj[v] >> u) & 1:
                deg[u] -= 1
    return order


def _max_clique(adj: list[int], n: int) -> list[int]:
    """Exact maximum clique, branch and bound with a greedy coloring bound."""
    if n == 0:
        return []
    order = _degeneracy_order(adj, n)
    pos = {v: i for i, v in enumerate(order)}
    radj = [0] * n
    for i, v in enumerate(order):
        for u in range(n):
            if (adj[v] >> u) & 1:
                radj[i] |= 1 << pos[u]
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
                avail &= ~(radj[v])
                avail &= rest
        sub = cand
        for i in range(len(seq) - 1, -1, -1):
            if len(r) + bound[i] <= len(best):
                return
            v = seq[i]
            r.append(v)
            expand(r, sub & radj[v])
            r.pop()
            sub &= ~(1 << v)

    expand([], (1 << n) - 1)
    return sorted(order[i] for i in best)


def exact_max_packing(
    G: RegularGraph,
    q: int,
    delta: Fraction,
    enum_cap: int = col.ENUM_CAP,
    clique_cap: int = CLIQUE_CAP,
) -> tuple[int, CodeSet]:
    """Exact maximum delta-distinct set over *all* proper q-colorings of G.

    Enumerates the colorings, builds the compatibility graph (edge iff
    distance >= ceil(delta * n)), and solves maximum clique exactly. Returns
    0 with an empty witness when G has no proper q-coloring.
    """
    delta = Fraction(delta)
    all_colorings = col.enumerate_proper(G, q, cap=enum_cap)
    if not all_colorings:
        return 0, CodeSet((), delta, None, {"method": "exact", "colorings": 0})
    k = len(all_colorings)
    if k > clique_cap:
        raise TooLarge(f"{k} colorings exceed the clique cap {clique_cap}")
    thr = distance_threshold(delta, G.n)
    adj = [0] * k
    for i in range(k):
        for j in range(i + 1, k):
            d, _ = col.distance(all_colorings[i], all_colorings[j])
            if d >= thr:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    clique = _max_clique(adj, k)
    members = tuple(all_colorings[i] for i in clique)
    res = verify_delta_distinct(CodeSet(members, delta)) if members else None
    witness = CodeSet(
        members,
        delta,
        res.min_dist if res else None,
        {"method": "exact", "colorings": k},
    )
    return len(clique), witness


def empirical_rate(C: CodeSet) -> float:
    """log_q |C| / n."""
    if not C.members:
        raise ValueError("rate of an empty code set")
    q = C.members[0].q
    n = C.members[0].n
    return math.log(len(C.members), q) / n


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
    params: Mapping[str, object]  # allowed keys and defaults; integer defaults coerce
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
    """One graph family from FAMILIES; ``params`` override its defaults."""

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

    def values(self) -> dict:
        """Every param of the family: the table defaults overridden by ``params``."""
        defaults = FAMILIES[self.kind].params
        return {
            k: int(v) if isinstance(defaults[k], int) else v
            for k, v in {**defaults, **self.params}.items()
        }

    def label(self) -> str:
        return FAMILIES[self.kind].label.format(**self.values())

    def build(self, q: int, seed: tuple) -> tuple[RegularGraph, Sampler]:
        """The family member for ``seed`` (used unchanged for the graph) and
        its sampler."""
        return FAMILIES[self.kind].build(q, self.values(), seed)


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
