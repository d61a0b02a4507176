"""The functions the benchmark traces and captures by name must still exist.

``BENCHMARK.json`` names per-layer metrics ``layer.function.metric`` and
``perfbench/workloads.py`` captures calls by ``layer.function``; a rename or
deletion in the package would otherwise surface only in ``perfbench/tests``.
Both files are read here, not imported or changed.
"""
import ast
import importlib
import inspect
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent


def per_layer_names():
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    names = {".".join(m["name"].split(".")[:2]) for m in metrics}
    return sorted(n for n in names if not n.startswith("trace."))


def captured_names():
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "CAPTURED" for t in node.targets
        ):
            return sorted(ast.literal_eval(key) for key in node.value.keys)
    raise AssertionError("perfbench/workloads.py defines no CAPTURED dict")


@pytest.mark.parametrize("name", per_layer_names() + captured_names())
def test_named_function_exists(name):
    layer, func = name.split(".")
    module = importlib.import_module(f"chromacode.{layer}")
    obj = getattr(module, func, None)
    assert inspect.isfunction(obj) and obj.__module__ == module.__name__, (
        f"{name} is not a function defined in chromacode.{layer}"
    )
