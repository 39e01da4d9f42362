"""Source hygiene and the benchmark's contract with the package.

No module of the package imports a name it never uses; the package's
``__init__`` is exempt, since it imports names to re-export them.

The benchmark under ``perfbench/`` is read, never edited, by these
tests: every name it takes from ``expunge`` must exist, and every call
it makes to such a name must bind to that callable's signature, so a
refactor of the package that would break a benchmark run fails here.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "expunge"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))


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


def _resolve(path: str):
    """The object at a dotted ``expunge`` path, importing submodules as needed."""
    parts = path.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        try:
            obj = getattr(obj, part)
        except AttributeError:
            obj = importlib.import_module(".".join(parts[:i]))
    return obj


def _dotted(node: ast.expr, bound: dict[str, str]) -> str | None:
    """The ``expunge`` path of a name or attribute chain rooted at an imported name."""
    attrs = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name) or node.id not in bound:
        return None
    return ".".join([bound[node.id], *reversed(attrs)])


def contract_faults(source: str) -> list[str]:
    """Names that ``source`` takes from ``expunge`` and that are missing,
    and calls to them whose arguments do not bind to the signature."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.ImportFrom)
            and node.level == 0
            and node.module.split(".")[0] == "expunge"
        ):
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "expunge":
                    # ``import expunge.x`` binds ``expunge``; ``import expunge.x as y`` binds x
                    bound[alias.asname or "expunge"] = alias.name if alias.asname else "expunge"
    faults = []
    paths = set(bound.values())
    paths.update(
        path for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and (path := _dotted(node, bound))
    )
    missing = set()
    for path in sorted(paths):
        try:
            _resolve(path)
        except (AttributeError, ImportError):
            missing.add(path)
            faults.append(f"{path} does not exist")
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        path = _dotted(node.func, bound)
        if path is None or path in missing:
            continue
        try:
            signature = inspect.signature(_resolve(path))
        except (TypeError, ValueError):  # not callable, or no signature to read
            continue
        keywords = {k.arg: None for k in node.keywords if k.arg is not None}
        unpacked = any(isinstance(a, ast.Starred) for a in node.args)
        unpacked = unpacked or len(keywords) < len(node.keywords)  # a ``**mapping``
        try:
            if unpacked:
                signature.bind_partial(**keywords)
            else:
                signature.bind(*[None] * len(node.args), **keywords)
        except TypeError as exc:
            faults.append(f"line {node.lineno}: {path}{signature}: {exc}")
    return faults


def test_contract_fault_is_found():
    source = (
        "from expunge import engine\n"
        "from expunge.attestation import verify_bundle, no_such_check\n"
        "verify_bundle(1, 2, 3, 4, time_bound_applicable=True)\n"
        "verify_bundle(1, 2, 3, 4, time_bound_ok=True)\n"
        "engine.expunge(1, on_pair=None)\n"
        "engine.no_such_transform(1)\n"
    )
    faults = contract_faults(source)
    assert faults[:2] == [
        "expunge.attestation.no_such_check does not exist",
        "expunge.engine.no_such_transform does not exist",
    ]
    assert len(faults) == 3 and faults[2].startswith("line 4: expunge.attestation.verify_bundle(")


@pytest.mark.parametrize("script", PERFBENCH, ids=lambda path: path.stem)
def test_perfbench_uses_the_package_as_it_is(script):
    assert contract_faults(script.read_text()) == []
