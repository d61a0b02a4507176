"""The package's surface, read from the source: every module-level function
and class, private ones too, and every public method of a public class, is
referenced somewhere in ``src/chromacode`` outside its own definition and the
``__init__`` re-exports. Tests are not callers, so a private helper left
behind when its last caller goes fails here.

A function or class is referenced by its bare name, or as an attribute of a
name bound to a chromacode module (``spectral.lambda2``, ``col.distance``).
A method is referenced as an attribute of anything else (``spec.lambda2``,
``self.edge_arrays``), since the type of the value is not known. Both match
by identifier, so this is a lower bound on dead code, not a call graph."""
import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "chromacode"
# public names kept without a caller in the package, and why
KEPT = {
    "fileio.write_coloring": "writes the coloring files that distance and verify read",
    "fileio.write_signing": "writes the signing files that construct two-lift reads",
    "codes.build_family_instance": "perfbench/workloads.py captures it by name",
    "colorings.enumerate_proper": "exported API listing every proper coloring; BENCHMARK.json names it",
    "colorings.Coloring.relabeled": "the relabel-invariance property tests apply sigma through it",
}


def _trees() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}


def _module_aliases(tree: ast.Module) -> set[str]:
    """Names a module binds to chromacode modules (``from . import graphs``,
    ``from . import colorings as col``)."""
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
        for alias in node.names
    }


def _references(node: ast.AST, modules: set[str]) -> tuple[Counter, Counter]:
    """(function and class references, method references) inside ``node``."""
    names, methods = Counter(), Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names[n.id] += 1
        elif isinstance(n, ast.Attribute):
            on_module = isinstance(n.value, ast.Name) and n.value.id in modules
            (names if on_module else methods)[n.attr] += 1
    return names, methods


def _defined(body, private: bool = False) -> list:
    return [
        node for node in body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and (private or not node.name.startswith("_"))
    ]


def _uncalled() -> list[str]:
    trees = _trees()
    del trees["__init__"]
    aliases = {module: _module_aliases(tree) for module, tree in trees.items()}
    names, methods = Counter(), Counter()
    for module, tree in trees.items():
        found = _references(tree, aliases[module])
        names += found[0]
        methods += found[1]
    out = []
    for module, tree in trees.items():
        for node in _defined(tree.body, private=True):
            if names[node.name] == _references(node, aliases[module])[0][node.name]:
                out.append(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                for method in _defined(node.body):
                    own = _references(method, aliases[module])[1][method.name]
                    if methods[method.name] == own:
                        out.append(f"{module}.{node.name}.{method.name}")
    return out


def test_every_public_name_has_a_caller():
    assert [name for name in _uncalled() if name not in KEPT] == []


def test_every_kept_name_exists_without_a_caller():
    # a kept name that gains a caller, or goes, leaves this list
    assert sorted(_uncalled()) == sorted(KEPT)
