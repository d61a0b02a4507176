"""The error contract, read from the source: every raise names one of the
seven kinds in ``chromacode.errors``, each kind is raised somewhere, and the
CLI turns exactly those (plus OSError) into exit 2. Then the library's
refusals that no command reaches, each run once with its kind and message."""
import ast
from fractions import Fraction
from pathlib import Path

import pytest

from chromacode import codes, colorings, graphs, regimes, spectral
from chromacode.assignment import min_cost_assignment
from chromacode.colorings import Coloring
from chromacode.errors import BindingMismatch, OutOfRange, PreconditionFail

SRC = Path(__file__).parent.parent / "src" / "chromacode"
# (module, exception) pairs allowed besides the package's own kinds
ALLOWED = {
    ("regimes", "AssertionError"),  # the lemma checks of sigma_profile
    ("cli", "argparse.ArgumentTypeError"),  # argparse reports it as a usage error
}


def _trees() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}


def _kinds() -> set[str]:
    return {n.name for n in _trees()["errors"].body if isinstance(n, ast.ClassDef)}


def _raised(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, exception) of every raise; a bare re-raise shows as "raise"."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            out.append((node.lineno, "raise" if exc is None else ast.unparse(exc)))
    return out


def test_seven_kinds():
    assert _kinds() == {
        "ChromaError", "OutOfRange", "PreconditionFail", "TooLarge",
        "MalformedFile", "BindingMismatch", "NoConvergence",
    }


def test_every_raise_names_a_kind():
    kinds = _kinds()
    stray = [
        f"{module}.py:{line} raises {name}"
        for module, tree in _trees().items()
        for line, name in _raised(tree)
        if name not in kinds and (module, name) not in ALLOWED
    ]
    assert not stray


def test_every_kind_is_raised():
    raised = {name for tree in _trees().values() for _, name in _raised(tree)}
    assert not _kinds() - raised


def test_no_other_module_defines_an_exception():
    kinds = _kinds() | {"Exception", "BaseException"}
    found = [
        f"{module}.py: class {node.name}"
        for module, tree in _trees().items() if module != "errors"
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(ast.unparse(b) in kinds or ast.unparse(b).endswith("Error") for b in node.bases)
    ]
    assert not found


def test_cli_catches_exactly_the_kinds_and_oserror():
    main = next(
        n for n in _trees()["cli"].body if isinstance(n, ast.FunctionDef) and n.name == "main"
    )
    handlers = [n for n in ast.walk(main) if isinstance(n, ast.ExceptHandler)]
    assert len(handlers) == 1
    caught = handlers[0].type
    names = [ast.unparse(e) for e in (caught.elts if isinstance(caught, ast.Tuple) else [caught])]
    assert sorted(names) == ["ChromaError", "OSError"]



C5, C6 = graphs.cycle_graph(5), graphs.cycle_graph(6)
EDGELESS = graphs.build_from_edges(2, [])  # d = 0
RB = graphs.random_regular_bipartite(4, 2, seed=1)
# C9(1,2) has the n and d of K3^2; RB9 has the n and d of a 2-lift of it
C9_12 = graphs.build_from_edges(9, [(i, (i + s) % 9) for s in (1, 2) for i in range(9)])
RB9 = graphs.random_regular_bipartite(9, 4, seed=1)


@pytest.mark.parametrize(
    "call,kind,named",
    [(lambda: codes.greedy_pack(C5, lambda s: colorings.enumerate_proper(C6, 3)[0],
                                Fraction(1, 2), 2, 5, 0),
      BindingMismatch, "sampler returned a coloring of a different graph"),
     (lambda: Coloring(1, [0, 0], EDGELESS), OutOfRange, "need q >= 2"),
     (lambda: Coloring(3, [[0, 1], [1, 0]], EDGELESS), PreconditionFail,
      "colors must be a flat sequence"),
     (lambda: colorings.make_coloring(C5, 3, [0, 1]), BindingMismatch,
      "2 colors for a graph on 5 vertices"),
     (lambda: colorings.distance(colorings.make_coloring(C5, 3, [0, 1, 0, 1, 2]),
                                 colorings.make_coloring(C6, 3, [0, 1] * 3)),
      BindingMismatch, "colorings are bound to different graphs"),
     (lambda: colorings.sample_bipartite_biased(RB, 2, 0.5, 0), OutOfRange,
      "biased sampler needs q >= 3"),
     (lambda: colorings.layered_bipartite_pair(RB, 2), OutOfRange, "layered pair needs q >= 3"),
     (lambda: colorings.layered_bipartite_pair(C6, 3), PreconditionFail,
      "layered pair needs part labels"),
     (lambda: colorings.coordinate_colorings(3, 2, graphs.complete_graph(9)), BindingMismatch,
      r"graph is not K_3\^2 or an iterated 2-lift of it: edge \(0, 1\) has one color "
      r"in coordinate 0"),
     (lambda: colorings.coordinate_colorings(3, 2, C9_12), BindingMismatch,
      r"graph is not K_3\^2 or an iterated 2-lift of it: edge \(0, 1\) has one color "
      r"in coordinate 0"),
     (lambda: colorings.coordinate_colorings(3, 2, RB9), BindingMismatch,
      r"edge \(0, 9\) has one color in coordinate 0"),
     (lambda: colorings.coordinate_colorings(3, 2, graphs.cycle_graph(18)), BindingMismatch,
      r"edge \(0, 1\) has one color in coordinate 0"),
     (lambda: colorings.coordinate_colorings(3, 2, graphs.cycle_graph(12)), BindingMismatch,
      r"graph is not K_3\^2 or an iterated 2-lift of it: n=12 is not a multiple of 3\^2"),
     (lambda: colorings.coordinate_colorings(1000, 10**6, C9_12), BindingMismatch,
      r"n=9 is not a multiple of 1000\^1000000"),
     (lambda: colorings.coordinate_colorings(1, 2, C9_12), OutOfRange,
      "coordinate colorings need q >= 2 and N >= 1, got q=1, N=2"),
     (lambda: regimes.unique_regime_certificate(2, Fraction(1, 2), Fraction(1, 2)), OutOfRange,
      "certificate needs q >= 3"),
     (lambda: spectral.normalized_adjacency(EDGELESS), PreconditionFail,
      "0-regular graph has no normalized adjacency"),
     (lambda: spectral.rayleigh_quotient(EDGELESS, [1, -1]), PreconditionFail,
      "Rayleigh quotient undefined for 0-regular graphs"),
     (lambda: spectral.rayleigh_quotient(C5, [1, -1]), BindingMismatch,
      r"vector length \(2,\) does not match n=5"),
     (lambda: min_cost_assignment([[1, 2], [3]]), PreconditionFail, "cost matrix must be square"),
     *[(lambda sigma=sigma: colorings.make_coloring(C5, 3, [0, 1, 0, 1, 2]).relabeled(sigma),
        PreconditionFail, r"sigma is not a permutation of range\(3\)")
       for sigma in ([0, 0, 1], [1, 2], [2, 1, 0, 3])]],
    ids=["pack-foreign-coloring", "coloring-q1", "coloring-2d", "make-coloring-length",
         "distance-two-graphs", "biased-q2", "layered-q2", "layered-no-parts",
         "coordinate-not-tensor", "coordinate-same-size-not-tensor", "lift-not-a-lift",
         "lift-cycle-not-a-lift", "lift-wrong-size", "coordinate-huge-N", "coordinate-q1",
         "certificate-q2", "normalized-adjacency-d0",
         "rayleigh-d0", "rayleigh-length", "assignment-not-square", "relabel-repeat",
         "relabel-short", "relabel-long"],
)
def test_library_refusal(call, kind, named):
    with pytest.raises(kind, match=named):
        call()
