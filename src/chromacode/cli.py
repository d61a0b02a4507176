"""Command-line interface.

Subcommands: construct, spectrum, distance, pack, exact-f, certify,
regime-map, verify. Exit codes: 0 ok, 1 a verification check failed,
2 a ChromaError (bad input; see ``errors``) or an OSError (a file that
cannot be opened or written). Any other exception is a bug and shows as a
traceback. The randomized subcommands (construct, pack, regime-map) are
deterministic given --seed.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import json
import os
import sys
from fractions import Fraction

import numpy as np

from . import codes, colorings, fileio, graphs, regimes, spectral
from .errors import ChromaError, MalformedFile


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r} ({exc})")


def _seed(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"not a non-negative integer: {text!r}")
    return int(text)


def _emit(args, payload: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


NAMED_BASES = {
    "k4": lambda: graphs.complete_graph(4),
    "k33": lambda: graphs.build_from_edges(
        6, [(i, 3 + j) for i in range(3) for j in range(3)],
        part_labels=[0, 0, 0, 1, 1, 1],
    ),
    "petersen": lambda: graphs.build_from_edges(
        10,
        [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
         (5, 7), (7, 9), (6, 9), (6, 8), (5, 8),
         (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)],
    ),
}


def cmd_construct(args) -> int:
    kind = args.kind
    seed = args.seed
    if kind == "complete":
        G = graphs.complete_graph(_require(args, "q"))
    elif kind == "cycle":
        G = graphs.cycle_graph(_require(args, "n"))
    elif kind == "tensor":
        G = graphs.tensor_power(_require(args, "q"), _require(args, "N"))
    elif kind == "gadget":
        base_ref = _require(args, "base")
        if base_ref in NAMED_BASES:
            base = NAMED_BASES[base_ref]()
        else:
            base = fileio.read_graph(base_ref)
        G = graphs.gadget_expand(base)
    elif kind == "random-bipartite":
        G = graphs.random_regular_bipartite(
            _require(args, "half"), _require(args, "d"), seed=seed
        )
    elif kind == "two-lift":
        if args.signing and args.search:
            raise ChromaError("construct two-lift takes --signing or --search, not both")
        base = fileio.read_graph(_require(args, "graph"))
        if args.signing:
            signs = fileio.read_signing(args.signing, base)
        elif args.search:
            signs, _ = graphs.search_low_lambda_signing(
                base, restarts=args.restarts, seed=seed
            )
        else:
            signs = np.ones(base.m, dtype=np.int64)
        G = graphs.two_lift(base, signs)
    sidecar = {"construct": kind, "seed": seed}
    if kind in ("gadget", "two-lift"):
        sidecar["base_key"] = base.graph_key
    if args.with_spectrum:
        sidecar["lambda2"] = spectral.lambda2(G)
    if args.out:
        fileio.write_graph(args.out, G, sidecar=sidecar)
    else:
        sys.stdout.write(fileio.graph_to_text(G))
    return 0


def _require(args, name: str):
    val = getattr(args, name, None)
    if val is None:
        raise ChromaError(f"construct {args.kind} requires --{name.replace('_', '-')}")
    return val


def cmd_spectrum(args) -> int:
    G = fileio.read_graph(args.graph)
    spec = spectral.full_spectrum(G)
    _emit(args, _json({"eigenvalues": list(spec.eigenvalues), "lambda2": spec.lambda2,
                       "lambda_min": spec.lambda_min, "residual": spec.residual}))
    return 0


def cmd_distance(args) -> int:
    G = fileio.read_graph(args.graph)
    X = fileio.read_coloring(args.colorings[0], G, graph_path=args.graph)
    Y = fileio.read_coloring(args.colorings[1], G, graph_path=args.graph)
    dist, sigma = colorings.distance(X, Y)
    _emit(args, _json({"distance": dist, "sigma": list(sigma)}))
    return 0


def cmd_verify(args) -> int:
    G = fileio.read_graph(args.graph)
    members = [
        fileio.read_coloring(path, G, graph_path=args.graph)
        for path in args.colorings
    ]
    code = codes.CodeSet(members, args.delta or Fraction(0))
    failures = []
    report = {"graph": G.graph_key, "n": G.n, "colorings": len(code)}
    proper = []
    for idx, X in enumerate(code.members):
        ok, edge = colorings.is_proper(G, X)
        proper.append({"index": idx, "proper": ok, "violating_edge": edge})
        if not ok:
            failures.append(f"coloring {idx} improper at edge {edge}")
    report["proper"] = proper
    res = codes.verify_delta_distinct(code)
    if res.distances:
        pairs = itertools.combinations(range(len(code)), 2)
        report["distances"] = [
            {"pair": list(ij), "distance": d} for ij, d in zip(pairs, res.distances)
        ]
    if args.delta is not None:
        report["delta"] = str(args.delta)
        report["threshold"] = codes.distance_threshold(args.delta, G.n)
        report["min_dist"] = res.min_dist
        report["delta_distinct"] = res.ok
        if not res.ok:
            failures.append(f"min distance {res.min_dist} below threshold at pair {res.worst_pair}")
    report["ok"] = not failures
    if args.format == "json":
        _emit(args, _json(report))
    else:
        lines = [f"graph {G.graph_key}: n={G.n} d={G.d}"]
        for entry in report["proper"]:
            state = "proper" if entry["proper"] else f"IMPROPER at {entry['violating_edge']}"
            lines.append(f"coloring {entry['index']}: {state}")
        for entry in report.get("distances", []):
            lines.append(f"d(X{entry['pair'][0]}, X{entry['pair'][1]}) = {entry['distance']}")
        if args.delta is not None:
            lines.append(
                f"delta={report['delta']} threshold={report['threshold']} "
                f"min_dist={report['min_dist']} ok={report['delta_distinct']}"
            )
        lines.append("OK" if report["ok"] else "FAILED: " + "; ".join(failures))
        _emit(args, "\n".join(lines) + "\n")
    return 0 if report["ok"] else 1


def cmd_pack(args) -> int:
    if args.tau is not None and args.sampler != "biased":
        raise ChromaError(f"--tau applies to --sampler biased only, not {args.sampler}")
    G = fileio.read_graph(args.graph)
    sampler = codes.SAMPLERS[args.sampler](G, args.q, args.tau)
    code = codes.greedy_pack(
        G, sampler, args.delta, target=args.target, budget=args.budget,
        seed=args.seed, provenance={"sampler": args.sampler},
    )
    payload = fileio.codeset_payload(code, G.graph_key)
    _emit(args, _json(payload))
    return 0


def cmd_exact_f(args) -> int:
    G = fileio.read_graph(args.graph)
    size, witness = codes.exact_max_packing(G, args.q, args.delta)
    payload = {"size": size, "delta": str(args.delta), "q": args.q, "n": G.n,
               "proper_colorings": witness.provenance.get("colorings", 0),
               "witness_min_dist": witness.min_dist}
    if args.with_witness:
        payload["witness"] = witness.rows.tolist()
    _emit(args, _json(payload))
    return 0


def cmd_certify(args) -> int:
    res = regimes.unique_regime_certificate(args.q, args.delta, args.lam)
    _emit(args, _json({"q": args.q, "delta": str(args.delta), "lambda": str(Fraction(args.lam)),
                       "certified": res.certified, "lhs": str(res.lhs), "rhs": str(res.rhs)}))
    return 0


def _load_sweep_config(path: str, cli_seed: int) -> regimes.SweepConfig:
    """Config JSON drives the sweep; its own "seed" key wins over --seed.

    Only the JSON shape is checked here; SweepFamily and SweepConfig check
    the values.
    """
    raw = fileio.read_input(path, as_json=True)
    allowed = [f.name for f in dataclasses.fields(regimes.SweepConfig)]
    unknown = sorted(set(raw) - set(allowed))
    if unknown:
        raise ChromaError(
            f"unknown sweep config key(s) {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(allowed)}"
        )
    if "q" not in raw:
        raise ChromaError('sweep config needs "q", the number of colors (at least 3)')
    entries = raw.get("families", [])
    if not isinstance(entries, list):
        raise ChromaError("sweep config \"families\" must be a list of objects")
    for i, f in enumerate(entries):
        if not isinstance(f, dict) or not isinstance(f.get("kind"), str):
            raise ChromaError(
                f"sweep config family {i} must be an object with a string \"kind\", got {f!r}"
            )
    families = tuple(
        codes.SweepFamily(kind=f["kind"], params={k: v for k, v in f.items() if k != "kind"})
        for f in entries
    )
    return regimes.SweepConfig(**{"seed": cli_seed, **raw, "families": families})


def cmd_regime_map(args) -> int:
    if args.resume and not args.out:
        raise ChromaError("regime-map --resume needs --out, the file to resume")
    config = _load_sweep_config(args.config, args.seed)
    complete = b""
    if args.resume and os.path.exists(args.out):
        with open(args.out, "rb") as fh:
            data = fh.read()
        # only newline-terminated lines are complete; a cut-off tail is dropped
        complete = data[: data.rfind(b"\n") + 1]
    try:
        done = complete.decode().split("\n")[:-1]
    except UnicodeDecodeError as exc:
        raise MalformedFile(f"{args.out}: {exc}") from None
    points = regimes.regime_map_sweep(config)
    lines = itertools.chain([regimes.CSV_HEADER], map(regimes.regime_point_csv, points))
    # a resume replays the run: each complete line must be the one the config writes there
    for no, old in enumerate(done, 1):
        new = next(lines, None)
        if old != new:
            want = "no such line" if new is None else repr(new)
            raise ChromaError(f"{args.out} line {no} is {old!r}, but this config writes {want}; "
                              "the file is left as it was")
    # read ahead to the first row, which builds every family, so any error exits before output
    first = list(itertools.islice(lines, max(2 - len(done), 0)))
    out = open(args.out, "a") if args.out else contextlib.nullcontext(sys.stdout)
    with out as fh:
        if args.out:
            fh.truncate(len(complete))  # keep the matched lines, drop the rest
        # stream rows so an interrupted sweep can be resumed
        for line in itertools.chain(first, lines):
            fh.write(line + "\n")
            fh.flush()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chromacode",
        description="Expander-graph coloring codes: construction, distance, packing, regimes.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="output path (default stdout)")
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=_seed, default=0, help="RNG seed, at least 0 (default 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", parents=[seeded], help="build a graph file")
    p.add_argument("kind", choices=(
        "complete", "cycle", "tensor", "gadget", "random-bipartite", "two-lift"))
    p.add_argument("--q", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--N", type=int)
    p.add_argument("--base", help="gadget base: k4, k33, petersen, or a graph file")
    p.add_argument("--half", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--graph", help="base graph file for two-lift")
    p.add_argument("--signing", help="signing file for two-lift")
    p.add_argument("--search", action="store_true",
                   help="two-lift: search for a low-lambda2 signing")
    p.add_argument("--restarts", type=int, default=50)
    p.add_argument("--with-spectrum", action="store_true",
                   help="record lambda2 in the sidecar")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("spectrum", parents=[common], help="full normalized spectrum")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("distance", parents=[common],
                       help="permutation-invariant distance of two colorings")
    p.add_argument("--graph", required=True)
    p.add_argument("colorings", nargs=2)
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("verify", parents=[common],
                       help="check properness, distances, delta-distinctness")
    p.add_argument("--graph", required=True)
    p.add_argument("colorings", nargs="+")
    p.add_argument("--delta", type=_fraction, default=None)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("pack", parents=[seeded], help="greedy delta-distinct packing")
    p.add_argument("--graph", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--delta", type=_fraction, required=True)
    p.add_argument("--sampler", choices=tuple(codes.SAMPLERS), required=True)
    p.add_argument("--tau", type=_fraction, default=None)
    p.add_argument("--budget", type=int, default=2000)
    p.add_argument("--target", type=int, default=64)
    p.set_defaults(func=cmd_pack)

    p = sub.add_parser("exact-f", parents=[common],
                       help="exact maximum packing on a tiny graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--delta", type=_fraction, required=True)
    p.add_argument("--with-witness", action="store_true")
    p.set_defaults(func=cmd_exact_f)

    p = sub.add_parser("certify", parents=[common],
                       help="unique-regime certificate at a single point")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--delta", type=_fraction, required=True)
    p.add_argument("--lambda", dest="lam", type=_fraction, required=True)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("regime-map", parents=[seeded],
                       help="sweep a (delta, lambda) grid to CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--resume", action="store_true",
                   help="finish --out: append the rest of the run if its complete lines "
                        "start this config's run, else exit 2 and leave it as it was")
    p.set_defaults(func=cmd_regime_map)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ChromaError, OSError) as exc:  # anything else is a bug: let it show
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
