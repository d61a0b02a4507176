"""The error contract, read from the source: every raise names one of the
seven kinds in ``chromacode.errors``, each kind is raised somewhere, and the
CLI turns exactly those (plus OSError) into exit 2."""
import ast
from pathlib import Path

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

