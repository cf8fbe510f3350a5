"""Every name the benchmark harness imports from the package exists.

``perfbench/worker.py`` imports ``perfbench/replay.py`` on every run, so a
name that either file imports and the package no longer defines fails
every benchmark run; this test names it instead. It reads both files and
imports nothing from ``perfbench``.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def package_imports(path: Path) -> list[tuple[str, str]]:
    """(module, name) for each ``from resilient_consensus... import name``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.level == 0
        and node.module.split(".")[0] == "resilient_consensus"
        for alias in node.names
    ]


def defined(module: str, name: str) -> bool:
    """Whether ``from module import name`` succeeds: an attribute of the
    module, or a submodule of that name."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


@pytest.mark.parametrize("file", ["replay.py", "worker.py"])
def test_imported_names_exist(file):
    imports = package_imports(PERFBENCH / file)
    assert imports, f"perfbench/{file} imports nothing from resilient_consensus"
    missing = [f"{module}.{name}" for module, name in imports if not defined(module, name)]
    assert not missing, f"perfbench/{file} imports names the package does not define: {missing}"
