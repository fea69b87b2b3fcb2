"""Import checks: dead imports, and no class code generated at import.

Every module of the package uses each name it imports; ``__init__.py``
is exempt, since its imports are the package's re-exports, and so is
``from __future__``.  Importing the package loads neither
``dataclasses`` nor the ``inspect`` it pulls in, so every record is a
plain class or a ``typing.NamedTuple``.  Standard library only.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from jitscan import (
    AddressSpace, Admission, Match, PageSnapshot, PageTableEntry, Report, SignatureRule,
    ThrottleEntry, VmArea,
)
from jitscan.pipeline import _Bucket

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "jitscan"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the source's imports that no expression reads."""
    tree = ast.parse(source)
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    # an attribute chain such as bisect.bisect_right starts at a Name
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_checker_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import bisect\nimport operator\nfrom dataclasses import dataclass, field\n"
        "@dataclass\nclass A:\n    x: int = 0\n"
        "def f(xs):\n    return bisect.bisect_right(xs, 1)\n"
    )
    assert unused_imports(source) == ["field", "operator"]


def test_package_modules_are_found():
    assert "mmu.py" in MODULES and "__init__.py" not in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def imported_modules(source: str) -> set[str]:
    """Top-level names of the modules the source imports, relative ones left out."""
    out: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.partition(".")[0])
    return out


def test_no_module_imports_dataclasses():
    assert imported_modules("import dataclasses.x\nfrom re import A\nfrom . import mmu\n") == {
        "dataclasses", "re",
    }
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert "__init__.py" in sources
    assert [name for name, src in sources.items() if "dataclasses" in imported_modules(src)] == []


def test_a_fresh_import_loads_neither_dataclasses_nor_inspect():
    code = "import sys, jitscan; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_per_event_records_are_slotted():
    """Records built or read on the per-event path keep no instance dict."""
    records = [
        PageTableEntry(bytearray(4)), VmArea(16, 1, True, True, False), AddressSpace(1, 0),
        PageSnapshot(b"x", 0, 0, 0, 1, 1, 0), _Bucket(), ThrottleEntry(), Report(),
    ]
    for record in records:
        assert not hasattr(record, "__dict__"), type(record).__name__
        with pytest.raises(AttributeError):
            record.stray = 1


def test_immutable_records_compare_by_value():
    assert Match("r", 4) == Match("r", 4) != Match("r", 5)
    assert Admission(False, "kill") == Admission(False, "kill") != Admission(True)
    rule = SignatureRule("r", "f", "kill", True, (1, None))
    assert rule == SignatureRule("r", "f", "kill", True, (1, None))
    assert rule != rule._replace(sync=False)
    assert len({rule, SignatureRule("r", "f", "kill", True, (1, None))}) == 1
