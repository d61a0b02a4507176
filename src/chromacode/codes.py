"""Delta-distinct sets of colorings: verification, packing, and exact tiny-case bounds.

The distance threshold "at least delta * n" is evaluated as an exact integer:
a pair is allowed iff distance >= ceil(delta * n) with delta a Fraction, so no
float comparison ever decides membership. A code set, like each coloring, is
bound to its graph object; its ``graph_key`` is read only for files and output.
"""
from __future__ import annotations

import re
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
# an optional sign, ASCII digits and an optional ASCII denominator, as
# fileio's integer fields: Fraction alone also reads "1_1/2_0" as 11/20, the
# digits of other scripts, decimals and exponents
_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_rational(x) -> Fraction:
    """``Fraction(x)``, where a string must be ``[+-]?[0-9]+(/[0-9]+)?`` in
    ASCII: another string raises ChromaError, a zero denominator
    ZeroDivisionError."""
    if isinstance(x, str) and not _RATIONAL.fullmatch(x):
        raise ChromaError(f"{x!r} is not an integer or p/q in ASCII digits")
    return Fraction(x)


def distance_threshold(delta: Fraction, n: int) -> int:
    """ceil(delta * n) in exact integer arithmetic; delta must lie in [0, 1]."""
    delta = Fraction(delta)
    if not 0 <= delta <= 1:
        raise OutOfRange(f"delta={delta} outside [0, 1]")
    return -((-delta.numerator * n) // delta.denominator)


def max_distance(n: int, q: int) -> int:
    """n - ceil(n/q), the paper's (1 - 1/q) n: no two q-colorings are farther
    apart. The q! relabelings agree with Y on n (q-1)! vertex slots in all,
    so some relabeling agrees on at least ceil(n/q) vertices (pigeonhole)."""
    return n - -(-n // q)


@dataclass(frozen=True, eq=False, init=False)
class CodeSet:
    """A set of colorings of one graph with a promised pairwise distance fraction.

    The members are the rows of one read-only (k, n) int64 array ``rows``,
    bound to ``q`` and the graph object ``graph`` (both None when the set is
    empty). ``members`` holds them as ``Coloring``s, built on first read; a
    set made from ``Coloring``s keeps those. Members bound to different
    graphs or q values raise BindingMismatch. Equality is identity.
    """

    rows: np.ndarray
    q: int | None
    graph: RegularGraph | None
    delta: Fraction
    min_dist: int | None
    provenance: Mapping

    def __init__(self, members: Sequence[Coloring], delta: Fraction,
                 min_dist: int | None = None, provenance: Mapping | None = None):
        members = tuple(members)
        if members:
            first = members[0]
            for X in members[1:]:
                if X.q != first.q or X.graph != first.graph:
                    raise BindingMismatch("members bound to different graphs or q values")
            rows, q, graph = np.stack([X.colors for X in members]), first.q, first.graph
        else:
            rows, q, graph = np.empty((0, 0), dtype=np.int64), None, None
        self._bind(rows, q, graph, delta, min_dist, provenance)
        self.__dict__["members"] = members  # the cache ``members`` reads

    @classmethod
    def _of_rows(cls, rows: np.ndarray, q: int, G: RegularGraph, delta: Fraction,
                 min_dist: int | None, provenance: Mapping) -> "CodeSet":
        """A set whose members are the rows of a fresh (k, G.n) int64 array
        of colors in [0, q), all bound to G; no Coloring is built."""
        code = object.__new__(cls)
        code._bind(rows, q, G, delta, min_dist, provenance)
        return code

    def _bind(self, rows, q, graph, delta, min_dist, provenance) -> None:
        rows.setflags(write=False)
        self.__dict__.update(rows=rows, q=q, graph=graph, delta=delta, min_dist=min_dist,
                             provenance={} if provenance is None else provenance)

    @cached_property
    def members(self) -> tuple[Coloring, ...]:
        return tuple(Coloring(self.q, row, self.graph) for row in self.rows)

    @property
    def graph_key(self) -> str | None:
        """The graph's file identity, None when the set is empty."""
        return None if self.graph is None else self.graph.graph_key

    def __len__(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    min_dist: int | None
    worst_pair: tuple[int, int] | None
    distances: tuple[int, ...] = ()  # every pair's, in itertools.combinations order


def verify_delta_distinct(C: CodeSet) -> VerifyResult:
    """Exact all-pairs check that every distance reaches ceil(delta * n).

    Every distance comes from one ``colorings._distance_matrix`` call on the
    code's rows. ``distances`` lists them in itertools.combinations order,
    and ``min_dist`` and ``worst_pair`` come from the first closest pair in
    that order; a single member passes with neither. Every field holds
    Python ints and bools.
    """
    if not len(C):
        raise PreconditionFail("code set needs at least one member")
    k, n = C.rows.shape
    thr = distance_threshold(C.delta, n)
    if k < 2:
        return VerifyResult(True, None, None)
    dist = col._distance_matrix(C.rows, C.q)
    i, j = np.triu_indices(k, 1)  # row-major: combinations order
    dists = dist[i, j].tolist()
    m = dists.index(min(dists))
    return VerifyResult(dists[m] >= thr, dists[m], (int(i[m]), int(j[m])), tuple(dists))


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
    ``target`` members, before any draw when ``target`` is 0.
    ``provenance['budget_exhausted']`` is True only when all ``budget`` draws
    were made and the set is still below ``target``; a stream that runs out
    first leaves it False. When the threshold exceeds ``max_distance(n, q)``
    no pair can join, so the pack stops right after its first member, below
    ``target``, recording that bound as ``provenance['max_distance']``.
    """
    delta = Fraction(delta)
    thr = distance_threshold(delta, G.n)
    for name, value in (("budget", budget), ("target", target)):
        if value < 0:
            raise OutOfRange(f"{name}={value} is negative")
    kept: list[Coloring] = []
    min_dist: int | None = None
    draws = 0
    bound = None  # max_distance(n, q) once it ends the pack
    for i in range(budget):
        if len(kept) >= target:
            break
        X = sampler((seed, i))
        if X is None:
            break
        draws += 1
        if X.graph != G:
            raise BindingMismatch("sampler returned a coloring of a different graph")
        dists = [col.distance(X, Y)[0] for Y in kept]
        if all(d >= thr for d in dists):
            kept.append(X)
            for d in dists:
                if min_dist is None or d < min_dist:
                    min_dist = d
            if len(kept) < target and thr > max_distance(G.n, X.q):
                bound = max_distance(G.n, X.q)
                break
    prov = dict(provenance or {})
    prov.update(
        {
            "seed": repr(tuple(seed)) if isinstance(seed, (tuple, list)) else repr(seed),
            "budget": budget,
            "draws_used": draws,
            "budget_exhausted": draws == budget and len(kept) < target and bound is None,
        }
    )
    if bound is not None:
        prov["max_distance"] = bound
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
        self.reps = col._proper_rows(G, q)
        self.reps.setflags(write=False)
        self.k = sum(col._orbit_sizes(self.reps, q))

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
    enumerated, at every delta: compatibility edge iff distance >=
    ceil(delta * n). When that threshold is 0 every coloring is compatible and
    the answer is their count k, witnessed by all of them, listed as the
    relabelings of the canonical rows. Returns 0 with an empty witness when G
    has no proper q-coloring. When the threshold exceeds ``max_distance(n, q)``
    no pair qualifies: the answer is 1, witnessed by the last canonical row,
    with no distance matrix, no clique search and no ``CLIQUE_CAP`` check.

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
    if thr > max_distance(G.n, q):  # the clique search would pick the last row
        return 1, CodeSet._of_rows(table.reps[-1:].copy(), q, G, delta, None, prov)
    if k > CLIQUE_CAP:
        raise TooLarge(f"{k} colorings exceed the clique cap {CLIQUE_CAP}")
    if thr <= 0:
        # every relabeling orbit holds at least two colorings at distance 0
        rows = col._relabelings(table.reps, q)
        return k, CodeSet._of_rows(rows, q, G, delta, 0 if k > 1 else None, prov)
    reps, dist = table.reps, table.dist
    bits = np.packbits(dist >= thr, axis=1, bitorder="little")
    adj = [int.from_bytes(row.tobytes(), "little") for row in bits]
    clique = _max_clique(adj, len(reps))
    c = np.asarray(clique)
    pair_dists = dist[c[:, None], c]
    np.fill_diagonal(pair_dists, G.n)  # no pair is farther apart than n
    min_dist = int(pair_dists.min()) if len(clique) > 1 else None
    return len(clique), CodeSet._of_rows(reps[clique], q, G, delta, min_dist, prov)


# -- the family table: graph families and their samplers ----------------------

Sampler = Callable[[object], Coloring | None]


def list_sampler(members: Sequence, make: Callable[[object], Coloring] = lambda X: X) -> Sampler:
    """Draw i is make(members[i]); None once the list is exhausted."""

    def sampler(s):
        i = s[1]
        return make(members[i]) if i < len(members) else None

    return sampler


def _biased_sampler(G: RegularGraph, q: int, tau=None) -> Sampler:
    if tau is None:
        if G.d == 0:
            raise PreconditionFail("the default tau 1/(8 d^2) needs d >= 1")
        tau = 1.0 / (8 * G.d * G.d)
    elif isinstance(tau, bool):
        raise ChromaError(f"tau={tau!r} is not a rational in [0, 1]")
    else:
        try:  # OverflowError: an infinite float, or a rational beyond every float
            tau = float(parse_rational(tau))
        except (ChromaError, TypeError, ValueError, ZeroDivisionError, OverflowError):
            raise ChromaError(f"tau={tau!r} is not a rational in [0, 1]") from None
    if not 0.0 <= tau <= 1.0:
        raise OutOfRange(f"tau={tau} outside [0, 1]")
    return lambda s: col.sample_bipartite_biased(G, q, tau, s)


# the pack samplers, by name: (G, q, tau) -> sampler; only "biased" reads tau
SAMPLERS: dict[str, Callable[[RegularGraph, int, object], Sampler]] = {
    "gadget": lambda G, q, tau=None: lambda s: col.sample_gadget_coloring(G, q, s),
    "biased": _biased_sampler,
    # every proper coloring's row, in lexicographic order; only drawn rows become Colorings
    "enumerated": lambda G, q, tau=None: list_sampler(
        col._relabelings(col._proper_rows(G, q), q), lambda row: Coloring(q, row, G)),
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
    if p["lifts"] < 0:
        raise OutOfRange(f"tensor-lift lifts={p['lifts']} is negative")
    G = graphs.tensor_power(q, p["N"])
    n = G.n
    for _ in range(p["lifts"]):  # refuse a too-large last search before the first runs
        graphs._check_search_work(n, G.d)
        n *= 2
    for k in range(p["lifts"]):
        signs, _ = graphs.search_low_lambda_signing(G, p["restarts"], seed=(*seed, k))
        G = graphs.two_lift(G, signs)
    return G, list_sampler(col.coordinate_colorings(q, p["N"], G))


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

