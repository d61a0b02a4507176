"""Text/JSON file formats for graphs, colorings and signings, read and
written, and for code sets, only written (the payload of ``pack``).

Graph format: line 1 "n d", optional line 2 "parts: 0 1 0 ...", then one
"u v" edge per line, 0-indexed with u < v. A JSON sidecar "<path>.json"
written next to a graph carries its graph key, n, d and the caller's
provenance (for ``construct``: the kind, seed and base graph key). Nothing is
restored from it: ``read_graph`` only refuses a sidecar keyed to another
graph.

Signing format: one "u v s" line per edge of the graph, u < v and s = +1 or
-1, each edge once. In memory a signing is the sign vector in the canonical
edge order of ``RegularGraph.edge_arrays``.
"""
from __future__ import annotations

import json
import os
import re
from fractions import Fraction
from typing import Mapping

import numpy as np

from . import graphs
from .codes import CodeSet
from .colorings import Coloring
from .errors import BindingMismatch, MalformedFile
from .graphs import RegularGraph


def read_input(path: str, as_json: bool = False):
    """The text of a file from outside the program, or with ``as_json`` the
    JSON object it holds. Raises MalformedFile naming the path when the file
    is not text, not JSON, or not a JSON object."""
    try:
        with open(path) as fh:
            text = fh.read()
        if not as_json:
            return text
        value = json.loads(text)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedFile(f"{path}: {exc}") from None
    if not isinstance(value, dict):
        raise MalformedFile(f"{path}: must be a JSON object, not {type(value).__name__}")
    return value


def graph_to_text(G: RegularGraph) -> str:
    lines = [f"{G.n} {G.d}"]
    if G.part_labels is not None:
        lines.append("parts: " + " ".join(map(str, G.part_labels.tolist())))
    lines.extend(f"{u} {v}" for u, v in G.edges())
    return "\n".join(lines) + "\n"


_INT64 = np.iinfo(np.int64)
# an optional sign and ASCII digits: int() alone also reads "1_0" as 10 and
# the digits of other scripts
_INT_FIELD = re.compile(r"[+-]?[0-9]+")


def _ints(line: str, lineno: int, count: int | None = None, start: int = 0) -> list[int]:
    """The integer fields of ``line[start:]``. Raises MalformedFile naming the
    line unless every field is an optional sign and ASCII digits within
    int64 and, given ``count``, there are that many."""
    fields = line[start:].split()
    if not all(map(_INT_FIELD.fullmatch, fields)) or count not in (None, len(fields)):
        want = "integers" if count is None else f"{count} integers"
        raise MalformedFile(f"line {lineno}: expected {want}, got {line!r}")
    values = [int(x) for x in fields]
    if any(not _INT64.min <= x <= _INT64.max for x in values):
        raise MalformedFile(f"line {lineno}: integer outside int64 in {line!r}")
    return values


def graph_from_text(text: str) -> RegularGraph:
    lines = [(no, ln.strip()) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise MalformedFile("empty graph file")
    (no, head), *rest = lines
    n, d = _ints(head, no, 2)
    parts = None
    if rest and rest[0][1].startswith("parts:"):
        (no, ln), *rest = rest
        parts = _ints(ln, no, start=len("parts:"))
    edges = [_ints(ln, no, 2) for no, ln in rest]
    G = graphs.build_from_edges(n, edges, part_labels=parts)
    if G.d != d:
        raise MalformedFile(f"header says d={d} but edges give d={G.d}")
    return G


def write_graph(path: str, G: RegularGraph, sidecar: Mapping | None = None) -> None:
    """Write the graph file plus a JSON sidecar: ``sidecar``'s provenance and
    the graph's own graph_key, n and d, which no sidecar entry overrides."""
    with open(path, "w") as fh:
        fh.write(graph_to_text(G))
    payload = {**(sidecar or {}), "graph_key": G.graph_key, "n": G.n, "d": G.d}
    with open(path + ".json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_graph(path: str) -> RegularGraph:
    """Read a graph file. Its sidecar, if there is one, is read only to
    refuse it: a "graph_key" naming another graph raises BindingMismatch."""
    text = read_input(path)
    sidecar = path + ".json"
    payload = read_input(sidecar, as_json=True) if os.path.exists(sidecar) else {}
    G = graph_from_text(text)
    key = payload.get("graph_key")
    if key is not None and key != G.graph_key:
        raise BindingMismatch(f"{sidecar} describes graph {key!r}, loaded graph is {G.graph_key}")
    return G


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
    either the graph's content hash or the path it was loaded from. "q" must
    be an integer and "colors" a list of integers (not bools, floats, strings
    or null), else MalformedFile names the field."""
    payload = read_input(path, as_json=True)
    ref = payload.get("graph")
    if ref not in (G.graph_key, graph_path, None):
        raise BindingMismatch(
            f"coloring file references graph {ref!r}, loaded graph is {G.graph_key}"
        )
    q, colors = payload.get("q"), payload.get("colors")
    if type(q) is not int:
        raise MalformedFile(f'{path}: "q" must be an integer, got {q!r}')
    if type(colors) is not list or any(type(c) is not int for c in colors):
        raise MalformedFile(f'{path}: "colors" must be a list of integers')
    return Coloring(q, colors, G)


def write_signing(path: str, G: RegularGraph, signs) -> None:
    """Write a +1/-1 vector in G's canonical edge order as "u v +1" lines."""
    u, v = G.edge_arrays()
    with open(path, "w") as fh:
        for a, b, sign in zip(u.tolist(), v.tolist(), signs, strict=True):
            fh.write(f"{a} {b} {int(sign):+d}\n")


def read_signing(path: str, G: RegularGraph) -> np.ndarray:
    """Read a signing file (format above) into G's sign vector. A line that is
    not three integers raises MalformedFile naming the line; an edge not in G,
    listed twice or missing, or a sign other than +1 or -1, raises
    BindingMismatch naming the edge."""
    edges = G.edges()
    index = {e: i for i, e in enumerate(edges)}
    signs = np.zeros(G.m, dtype=np.int64)  # 0 until the edge's line is read
    for no, ln in enumerate(read_input(path).splitlines(), 1):
        if not ln.strip():
            continue
        u, v, s = _ints(ln.strip(), no, 3)
        e = (u, v)
        i = index.get(e)
        if i is None:
            raise BindingMismatch(f"signing names {e}, not an edge u < v of the graph")
        if signs[i]:
            raise BindingMismatch(f"signing lists edge {e} twice")
        if s not in (-1, 1):
            raise BindingMismatch(f"signing gives edge {e} sign {s}, not +1 or -1")
        signs[i] = s
    missing = np.flatnonzero(signs == 0)
    if missing.size:
        raise BindingMismatch(f"signing missing edge {edges[missing[0]]}")
    return signs


def codeset_payload(C: CodeSet, graph_key: str) -> dict:
    return {
        "graph": graph_key,
        "q": C.q,
        "n": C.rows.shape[1] if len(C) else None,
        "delta": str(Fraction(C.delta)),
        "size": len(C),
        "min_dist": C.min_dist,
        "members": C.rows.tolist(),
        "provenance": dict(C.provenance),
    }

