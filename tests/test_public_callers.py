"""The package's surface, read from the source: every module-level public
function and class is referenced somewhere in ``src/chromacode`` outside its
own definition and the ``__init__`` re-exports. Tests are not callers. A
reference is a name or an attribute with the same identifier, so this is a
lower bound on dead code, not a call graph."""
import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "chromacode"
# public names kept without a caller in the package, and why
KEPT = {
    "sigma_profile": "criterion 9 checks the overlap-set lemma through it",
    "independent_size_bound": "criterion 9 checks the independent-set bound through it",
    "cheeger_check": "criterion 9 checks the Cheeger sandwich through it",
    "rayleigh_quotient": "criterion 9 checks the Rayleigh bound through it",
    "write_coloring": "writes the coloring files that distance and verify read",
    "write_signing": "writes the signing files that construct two-lift reads",
    "build_family_instance": "perfbench/workloads.py captures it by name",
}


def _trees() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}


def _references(node: ast.AST) -> Counter:
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _uncalled() -> list[str]:
    trees = _trees()
    del trees["__init__"]
    total = sum((_references(tree) for tree in trees.values()), Counter())
    return [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and total[node.name] == _references(node)[node.name]
    ]


def test_every_public_name_has_a_caller():
    assert [name for name in _uncalled() if name.split(".")[1] not in KEPT] == []


def test_every_kept_name_exists_without_a_caller():
    # a kept name that gains a caller, or goes, leaves this list
    assert sorted(name.split(".")[1] for name in _uncalled()) == sorted(KEPT)
