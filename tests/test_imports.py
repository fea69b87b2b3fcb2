"""Dead-import check: every module of the package uses each name it imports.

Standard library only (``ast``).  ``__init__.py`` is exempt, since its
imports are the package's re-exports, and so is ``from __future__``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

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
