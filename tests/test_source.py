"""Source hygiene and the benchmark's contract with the package.

No module of the package imports a name it never uses; the package's
``__init__`` is exempt, since it imports names to re-export them. Every
public function and class of a module, and every public method and
property of its classes, has a caller in the package, a demo or the
benchmark, so no second copy of a job lives on for tests alone; the two
copies that tests compare against are the exception.
Every field of a dataclass that is not a record is read as an attribute
in the package, a demo or the benchmark, and every error class but the
base is raised in the package, so no role carries a field that nothing
reads or declares an error that nothing raises. Only ``harness`` names
a file of a saved state dir, so one module owns that format.

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
DEMOS = sorted((ROOT / "demos").glob("*.py"))
#: Second copies of a job that tests use as the reference for the one the package runs.
REFERENCE_COPIES = ["control.decrypt_reading", "engine.combine"]


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


def referenced_names(source: str) -> set[str]:
    """Every name, attribute and imported name in ``source``; docstrings do not count."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.split(".")[-1] for alias in node.names)
    return names


def _public_defs(body: list[ast.stmt]) -> list[ast.stmt]:
    return [
        node
        for node in body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]


def unreferenced(source: str, used: set[str]) -> list[str]:
    """Public top-level functions and classes of ``source``, and public methods and
    properties of its classes (as ``Class.name``), that are not in ``used``."""
    found = []
    for node in _public_defs(ast.parse(source).body):
        if node.name not in used:
            found.append(node.name)
        if isinstance(node, ast.ClassDef):
            found += [
                f"{node.name}.{item.name}"
                for item in _public_defs(node.body)
                if item.name not in used
            ]
    return found


def test_unreferenced_name_is_found():
    source = (
        '"""Lonely is named here, in a docstring."""\n'
        "def used():\n    pass\nclass Lonely:\n    pass\ndef _own():\n    pass\n"
        "class Kept:\n    def called(self):\n        pass\n    def idle(self):\n        pass\n"
        "    @property\n    def shown(self):\n        pass\n    @property\n    def hidden(self):\n"
        "        pass\n    def _inner(self):\n        pass\n    def __len__(self):\n        pass\n"
    )
    used = referenced_names(source) | referenced_names(
        "from m import used, Kept\n'Lonely'\nKept().called()\nprint(Kept().shown)\n"
    )
    assert unreferenced(source, used) == ["Lonely", "Kept.idle", "Kept.hidden"]


def test_every_public_name_has_a_caller_outside_the_tests():
    used = set().union(*(referenced_names(p.read_text()) for p in [*MODULES, *DEMOS, *PERFBENCH]))
    found = [f"{m.stem}.{name}" for m in MODULES for name in unreferenced(m.read_text(), used)]
    assert [name for name in found if name not in REFERENCE_COPIES] == []


def attributes_read(source: str) -> set[str]:
    """Every attribute that ``source`` reads; a store or a constructor keyword is no read."""
    return {
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def dataclass_fields(source: str) -> list[tuple[str, str]]:
    """``(class, field)`` for each field of a top-level dataclass in ``source`` that is
    not a ``Record``, whose layout reads every field by name."""
    found = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if not any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
            continue
        if any(isinstance(base, ast.Name) and base.id == "Record" for base in node.bases):
            continue
        found += [
            (node.name, stmt.target.id)
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and not ast.unparse(stmt.annotation).startswith("ClassVar")
        ]
    return found


def test_unread_field_is_found():
    source = (
        "@dataclass(frozen=True)\nclass Report:\n"
        "    TAG: ClassVar[int] = 0\n    ok: bool\n    spare: int = 0\n    kept: int = 1\n"
        "@dataclass\nclass Row(Record):\n    unread: int\n"
        "class Plain:\n    hidden: int\n"
        "def use(r):\n    Report(ok=True, spare=1)\n    r.kept = 2\n    return r.ok\n"
    )
    read = attributes_read(source)
    assert [f for f in dataclass_fields(source) if f[1] not in read] == [
        ("Report", "spare"),
        ("Report", "kept"),
    ]


def test_every_dataclass_field_is_read():
    read = set().union(*(attributes_read(p.read_text()) for p in [*MODULES, *DEMOS, *PERFBENCH]))
    unread = [
        f"{m.stem}.{cls}.{name}"
        for m in MODULES
        for cls, name in dataclass_fields(m.read_text())
        if name not in read
    ]
    assert unread == []


def raised_names(source: str) -> set[str]:
    """Names that ``source`` raises, as ``raise X`` or ``raise X(...)``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def class_names(source: str) -> list[str]:
    """Top-level classes of ``source``, in order."""
    return [node.name for node in ast.parse(source).body if isinstance(node, ast.ClassDef)]


def test_unraised_error_is_found():
    errors = "class BaseError(Exception):\n    pass\nclass Raised(BaseError):\n    pass\n"
    errors += "class Bare(BaseError):\n    pass\nclass Never(BaseError):\n    pass\n"
    user = "def f(x):\n    if x:\n        raise errors.Raised('no')\n    raise Bare\n"
    unraised = [name for name in class_names(errors) if name not in raised_names(user)]
    assert unraised == ["BaseError", "Never"]


def test_every_error_is_raised_in_the_package():
    raised = set().union(*(raised_names(p.read_text()) for p in MODULES))
    declared = class_names((PACKAGE / "errors.py").read_text())
    assert [name for name in declared if name != "ExpungeError" and name not in raised] == []


#: The files of a saved state dir; a name with a dot also counts inside a longer literal.
STATE_DIR_NAMES = (
    "config.json", "keyring.json", "params.bin", "meta.json", "blocks", ".blk", "cloud",
    "transcript.json", "measurements.json", "summary.json",
)


def state_dir_literals(source: str) -> list[str]:
    """String literals of ``source`` that name a file of a saved state dir."""
    return [
        node.value
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and any(
            name in node.value if "." in name else node.value == name for name in STATE_DIR_NAMES
        )
    ]


def test_state_dir_literal_is_found():
    source = (
        'root / "cloud" / "segments"\nf"{n:06d}.blk"\nload(root / "keyring.json")\n'
        'print("the cloud store")\nemit("sdp", "ingest")\n'
    )
    assert sorted(state_dir_literals(source)) == [".blk", "cloud", "keyring.json"]


@pytest.mark.parametrize(
    "module", [m for m in MODULES if m.stem != "harness"], ids=lambda path: path.stem
)
def test_only_harness_names_a_state_dir_file(module):
    assert state_dir_literals(module.read_text()) == []


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
