"""Source hygiene: no module of the package imports a name it never uses.

The package's ``__init__`` is exempt, since it imports names to re-export
them.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "expunge"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names that ``source`` imports and never reads, in name order."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport json as j\nfrom typing import Callable, Iterable\n"
        "def f(x: Iterable) -> None:\n    os.path.join(x)\n"
    )
    assert unused_imports(source) == ["Callable", "j"]


@pytest.mark.parametrize("module", MODULES, ids=lambda path: path.stem)
def test_every_imported_name_is_used(module):
    assert unused_imports(module.read_text()) == []
