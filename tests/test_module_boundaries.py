"""Ownership rule of the package: an underscore name stays inside its module."""

import ast
from pathlib import Path

import fraclab

PACKAGE = Path(fraclab.__file__).parent


def private_imports(path: Path) -> list[str]:
    """Each `from <fraclab module> import _name` in one source file; dunder names are public."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").startswith("fraclab")):
            found += [f"{path.name}:{node.lineno} imports {alias.name}"
                      for alias in node.names if alias.name.startswith("_") and not alias.name.endswith("__")]
    return found


def test_no_module_imports_a_private_name_of_another():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    assert [hit for path in modules for hit in private_imports(path)] == []
