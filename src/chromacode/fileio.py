"""Text/JSON file formats for graphs, colorings, signings, and code sets.

Graph format: line 1 "n d", optional line 2 "parts: 0 1 0 ...", then one
"u v" edge per line, 0-indexed with u < v. A JSON sidecar "<path>.json"
written next to a graph carries construction provenance (gadget blocks,
tensor parameters, ...); ``read_graph`` always restores it as ``meta``, so
meta-dependent samplers keep working after a round trip. The constructions
store only JSON types there, so a reloaded meta equals the built one.
"""
from __future__ import annotations

import json
import os
from fractions import Fraction
from typing import Mapping

from . import graphs
from .codes import CodeSet
from .colorings import Coloring, make_coloring
from .errors import BindingMismatch
from .graphs import RegularGraph, Signing


def graph_to_text(G: RegularGraph) -> str:
    lines = [f"{G.n} {G.d}"]
    if G.part_labels is not None:
        lines.append("parts: " + " ".join(map(str, G.part_labels.tolist())))
    lines.extend(f"{u} {v}" for u, v in G.edges())
    return "\n".join(lines) + "\n"


def graph_from_text(text: str, meta: Mapping | None = None) -> RegularGraph:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty graph file")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"bad header {lines[0]!r}, expected 'n d'")
    n, d = int(head[0]), int(head[1])
    idx = 1
    parts = None
    if idx < len(lines) and lines[idx].startswith("parts:"):
        parts = [int(x) for x in lines[idx].split(":", 1)[1].split()]
        idx += 1
    edges = []
    for ln in lines[idx:]:
        u, v = ln.split()
        edges.append((int(u), int(v)))
    G = graphs.build_from_edges(n, edges, part_labels=parts, meta=meta)
    if G.d != d:
        raise ValueError(f"header says d={d} but edges give d={G.d}")
    return G


def write_graph(path: str, G: RegularGraph, sidecar: Mapping | None = None) -> None:
    """Write the graph file plus a JSON sidecar with provenance."""
    with open(path, "w") as fh:
        fh.write(graph_to_text(G))
    payload = {"graph_key": G.graph_key, "n": G.n, "d": G.d}
    if G.meta is not None:
        payload["meta"] = G.meta
    if sidecar:
        payload.update(sidecar)
    with open(path + ".json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_graph(path: str) -> RegularGraph:
    """Read a graph file and restore ``meta`` from its sidecar, if there is one."""
    with open(path) as fh:
        text = fh.read()
    meta = None
    sidecar = path + ".json"
    if os.path.exists(sidecar):
        with open(sidecar) as fh:
            payload = json.load(fh)
        meta = payload.get("meta")
    return graph_from_text(text, meta=meta)


def write_coloring(path: str, X: Coloring) -> None:
    with open(path, "w") as fh:
        json.dump(
            {"q": X.q, "colors": X.colors.tolist(), "graph": X.graph_key},
            fh,
            sort_keys=True,
        )
        fh.write("\n")


def read_coloring(path: str, G: RegularGraph, graph_path: str | None = None) -> Coloring:
    """Load a coloring and bind it to G; the file's "graph" field must match
    either the graph's content hash or the path it was loaded from."""
    with open(path) as fh:
        payload = json.load(fh)
    ref = payload.get("graph")
    if ref not in (G.graph_key, graph_path, None):
        raise BindingMismatch(
            f"coloring file references graph {ref!r}, loaded graph is {G.graph_key}"
        )
    return make_coloring(G, int(payload["q"]), payload["colors"])


def write_signing(path: str, s: Signing) -> None:
    with open(path, "w") as fh:
        for (u, v), sign in zip(s.edges, s.signs):
            fh.write(f"{u} {v} {sign:+d}\n")


def read_signing(path: str, G: RegularGraph) -> Signing:
    mapping = {}
    with open(path) as fh:
        for ln in fh:
            ln = ln.strip()
            if not ln:
                continue
            u, v, sign = ln.split()
            mapping[(int(u), int(v))] = int(sign)
    return Signing.from_mapping(G, mapping)


def codeset_payload(C: CodeSet, graph_key: str) -> dict:
    return {
        "graph": graph_key,
        "q": C.members[0].q if C.members else None,
        "n": C.members[0].n if C.members else None,
        "delta": str(Fraction(C.delta)),
        "size": len(C.members),
        "min_dist": C.min_dist,
        "members": [X.colors.tolist() for X in C.members],
        "provenance": dict(C.provenance),
    }


def read_codeset(path: str, G: RegularGraph) -> CodeSet:
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("graph") not in (None, G.graph_key):
        raise BindingMismatch("code set references a different graph")
    members = tuple(
        make_coloring(G, int(payload["q"]), cols) for cols in payload["members"]
    )
    return CodeSet(
        members,
        Fraction(payload["delta"]),
        payload.get("min_dist"),
        payload.get("provenance", {}),
    )
