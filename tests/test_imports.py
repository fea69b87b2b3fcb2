"""Import checks: dead imports and no class code generated at import.

Every module of the package uses each name it imports; ``__init__.py``
is exempt, since its imports are the package's re-exports, and so is
``from __future__``.  No module imports ``dataclasses`` or ``enum``, and
importing the package loads neither ``dataclasses`` nor the ``inspect``
it pulls in, so every record is a plain class or a ``typing.NamedTuple``
and the access kinds and results are plain module constants, which an
access returns as they are.  Nor does parsing rules, replaying a
plain-ASCII trace and emitting its report load ``json``, nor ``jitscan
scan`` of a page that matches an ASCII-named rule: the report writes
its records itself.  No function body reads ``AccessKind.X`` or
``AccessResult.X``: the package reads the module constants, and the
classes are public aliases only.  Every function the bench counts calls of by
name exists, so a rename cannot silently zero a count.  Every parameter
of a fault engine hook is read by the shadow or the baseline engine's
version, so a hook carries nothing no engine uses, and every other function
and method reads each parameter it takes.  Standard library only.
"""

from __future__ import annotations

import ast
import inspect
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from jitscan import (
    AccessKind, AccessResult, AddressSpace, BaselineEngine, Match, PageSnapshot,
    PageTableEntry, Report, ShadowEngine, SignatureRule, SimConfig, SnapshotTable, ThrottleEntry,
    VmArea, mmu, parse_rules, replay, trace,
)

from conftest import SYNC_RULES_TEXT, SYNC_STUB, quiet_run

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "jitscan"
BENCH_LAYERS = PACKAGE.parent.parent / "bench" / "layers.py"
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
    forbidden = {"dataclasses", "enum"}
    assert [name for name, src in sources.items() if forbidden & imported_modules(src)] == []


def test_a_fresh_import_loads_neither_dataclasses_nor_inspect():
    """Nor does a plain-ASCII run, with a detection and an action, load json."""
    ps = 4096
    trace_text = (
        "PROC uid=1\nMMAP pid=1 perms=wx pages=1 at=16\n"
        f"WRITE pid=1 tid=1 cpu=0 addr={16 * ps} bytes={SYNC_STUB.hex()}\n"
        f"FETCH pid=1 tid=1 cpu=0 addr={16 * ps}\nREAD pid=1 tid=1 cpu=0 addr={40 * ps}\n"
    )
    code = textwrap.dedent(f"""\
        import sys, jitscan
        rules = jitscan.parse_rules({SYNC_RULES_TEXT!r}, page_size={ps})
        report = jitscan.replay({trace_text!r}, rules, jitscan.SimConfig(page_size={ps}))
        assert report.detections and report.actions and len(report.outcomes) > 1
        report.emit("jsonl")
        print(sorted({{'dataclasses', 'inspect', 'json'}} & set(sys.modules)))
    """)
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_a_scan_does_not_load_json(tmp_path):
    """`jitscan scan` writes its records itself: a match of an ASCII-named rule loads no json."""
    rules, page = tmp_path / "r.rules", tmp_path / "page.bin"
    rules.write_text(SYNC_RULES_TEXT)
    page.write_bytes(SYNC_STUB)
    code = textwrap.dedent(f"""\
        import sys
        from jitscan.cli import main
        code = main(["scan", "--rules", {str(rules)!r}, "--page", {str(page)!r}])
        print(code, "json" in sys.modules)
    """)
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    *records, last = done.stdout.splitlines()
    assert '"record":"match"' in records[0] and last == "1 False"


def test_per_event_records_are_slotted():
    """Records built or read on the per-event path keep no instance dict."""
    records = [
        PageTableEntry(bytearray(4)), VmArea(16, 1, True, True, False), AddressSpace(1, 0),
        PageSnapshot(b"x", 0, 1, 0), SnapshotTable(1)._buckets[0], ThrottleEntry(), Report(),
    ]
    for record in records:
        assert not hasattr(record, "__dict__"), type(record).__name__
        with pytest.raises(AttributeError):
            record.stray = 1


def test_immutable_records_compare_by_value():
    assert Match("r", 4) == Match("r", 4) != Match("r", 5)
    rule = SignatureRule("r", "f", "kill", True, (1, None))
    assert rule == SignatureRule("r", "f", "kill", True, (1, None))
    assert rule != rule._replace(sync=False)
    assert len({rule, SignatureRule("r", "f", "kill", True, (1, None))}) == 1


ACCESS_ENUMS = {"AccessKind", "AccessResult"}


def enum_member_reads(source: str) -> list[str]:
    """``AccessKind.X`` and ``AccessResult.X`` reads inside function or lambda
    bodies, as "line: Class.X"; module level, class bodies and defaults run once."""
    found: dict[tuple[int, int], str] = {}
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            body = fn.body
        elif isinstance(fn, ast.Lambda):
            body = [fn.body]
        else:
            continue
        for node in (n for stmt in body for n in ast.walk(stmt)):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in ACCESS_ENUMS):
                found[node.lineno, node.col_offset] = f"{node.lineno}: {node.value.id}.{node.attr}"
    return [found[key] for key in sorted(found)]


def test_checker_finds_an_enum_member_read_in_a_function_body():
    source = (
        "from .mmu import AccessKind, AccessResult\n"
        "_WRITE = AccessKind.WRITE\n"
        "class A:\n    kind = AccessKind.READ\n"
        "def f(kind, ok=AccessResult.OK):\n"
        "    if kind is AccessKind.WRITE:\n        return AccessResult.OK\n"
        "    def g():\n        return AccessResult.BLOCKED\n"
        "    return kind, _WRITE\n"
        "h = lambda k: k is AccessKind.FETCH\n"
    )
    assert enum_member_reads(source) == [
        "6: AccessKind.WRITE", "7: AccessResult.OK", "9: AccessResult.BLOCKED",
        "11: AccessKind.FETCH",
    ]


@pytest.mark.parametrize("module", MODULES)
def test_no_function_reads_an_access_enum_member_through_its_class(module):
    """The package names each kind and result by its module constant; the
    classes are public aliases only, so a function body pays no class lookup."""
    assert enum_member_reads((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_access_returns_access_result_members():
    """Each result is the very str object AccessResult names, not an equal copy."""
    ps = 4096
    machine = quiet_run(parse_rules(SYNC_RULES_TEXT, page_size=ps), ps).machine
    engine = machine.engine
    read, write, fetch = AccessKind.READ, AccessKind.WRITE, AccessKind.FETCH
    pid = machine.create_process(uid=1)
    machine.mmap(pid, "wx", 1, at=16)
    machine.mmap(pid, "rw", 1, at=17)
    machine.mmap(pid, "rx", 1, at=18)
    got = [
        (machine.access(pid, 0, 16 * ps, write, b"\x90"), AccessResult.OK),
        (machine.access(pid, 0, 16 * ps, fetch), AccessResult.OK),  # a clean check
        (machine.access(pid, 0, 17 * ps, read), AccessResult.OK),
        (machine.access(pid, 0, 17 * ps, fetch), AccessResult.SEGV_DELIVERED),  # exec hook
        (machine.access(pid, 0, 18 * ps, read), AccessResult.OK),
        (machine.access(pid, 0, 18 * ps, write, b"\x90"), AccessResult.SEGV_DELIVERED),
        (machine.access(pid, 0, 40 * ps, read), AccessResult.SEGV_DELIVERED),  # no area
    ]
    for action, stopped in (("kill", AccessResult.KILLED), ("block", AccessResult.BLOCKED)):
        engine.detection_action = action
        victim = machine.create_process(uid=2)
        machine.mmap(victim, "wx", 1, at=16)
        machine.access(victim, 0, 16 * ps, write, SYNC_STUB)
        got.append((machine.access(victim, 0, 16 * ps, fetch), stopped))
    got.append((machine.access(victim, 0, 16 * ps, read), AccessResult.BLOCKED))
    for result, expected in got:
        assert type(result) is str and result is expected


def test_access_kinds_are_op_codes_and_results_are_outcome_keys():
    assert trace.READ is mmu.READ and trace.FETCH is mmu.FETCH and trace.WRITE is mmu.WRITE
    assert (trace.PROC, trace.MMAP, trace.MPROTECT, trace.TICK) == (3, 4, 5, 6)
    ps = 4096
    text = (
        "PROC uid=1\nMMAP pid=1 perms=rw pages=1 at=16\nMMAP pid=1 perms=wx pages=1 at=17\n"
        f"WRITE pid=1 tid=1 cpu=0 addr={16 * ps} bytes=41\n"
        f"FETCH pid=1 tid=1 cpu=0 addr={16 * ps}\n"  # no x: segv_delivered
        f"WRITE pid=1 tid=1 cpu=0 addr={17 * ps} bytes={SYNC_STUB.hex()}\n"
        f"FETCH pid=1 tid=1 cpu=0 addr={17 * ps}\n"  # a sync match: killed or blocked
    )
    rules = parse_rules(SYNC_RULES_TEXT, page_size=ps)
    results = {AccessResult.OK, AccessResult.SEGV_DELIVERED, AccessResult.KILLED,
               AccessResult.BLOCKED}
    keys = set()
    for action, count in (("kill", 0), ("block", 1)):
        tail = f"READ pid=1 tid=1 cpu=0 addr={16 * ps}\n" * count  # a blocked pid's access
        keys |= set(replay(text + tail, rules, SimConfig(detection_action=action)).outcomes)
    assert keys == results


def call_counts(source: str) -> tuple:
    """The value of the source's module-level ``CALL_COUNTS`` assignment."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "CALL_COUNTS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("no CALL_COUNTS assignment")


def defined_functions(source: str) -> set[str]:
    """Names of every function and method the source defines, nested ones included."""
    return {
        node.name for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def test_every_function_the_bench_counts_exists():
    """bench/layers.py counts profiler calls by (module, function name); a
    name no module defines would read 0 instead of failing."""
    counts = call_counts(BENCH_LAYERS.read_text(encoding="utf-8"))
    assert counts and all(len(entry) == 3 for entry in counts)
    missing = [
        (metric, module, name) for metric, module, name in counts
        if name not in defined_functions((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    ]
    assert missing == []


def test_checker_finds_functions_and_call_counts():
    source = (
        "X = 1\nCALL_COUNTS = ((\"a.b\", \"mmu\", \"f\"),)\n"
        "def f():\n    def g():\n        pass\nclass C:\n    async def h(self):\n        pass\n"
    )
    assert call_counts(source) == (("a.b", "mmu", "f"),)
    assert defined_functions(source) == {"f", "g", "h"}


def names_read(func) -> set[str]:
    """The names the body of func, a function or its ``def`` node, reads;
    its signature's annotations and defaults are left out."""
    node = func
    if not isinstance(node, ast.AST):
        (node,) = ast.parse(textwrap.dedent(inspect.getsource(func))).body
    return {
        n.id for stmt in node.body for n in ast.walk(stmt)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }


def unread_parameters(source: str) -> list[tuple[str, str]]:
    """(function, parameter) for each parameter of a function or method of
    the source, nested ones included, that its body never reads; a
    function is named by its dotted path of classes and functions, and a
    method's ``self`` is its receiver, not a parameter."""
    found: list[tuple[str, str]] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name, args, read = prefix + child.name, child.args, names_read(child)
                params = [*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs, args.kwarg]
                found.extend(
                    (name, p.arg) for p in params
                    if p is not None and p.arg != "self" and p.arg not in read
                )
                visit(child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    return found


def test_checker_finds_an_unread_parameter():
    source = (
        "def f(a, b: int, *args, c=1, **kw) -> int:\n    return b + kw['x']\n"
        "class C:\n    def m(self, x, y=0):\n        def g(z):\n            return y\n"
        "        return g\n"
    )
    assert unread_parameters(source) == [
        ("f", "a"), ("f", "args"), ("f", "c"), ("C.m", "x"), ("C.m.g", "z"),
    ]


def test_checker_finds_no_parameter_a_body_or_its_closure_reads():
    source = (
        "from __future__ import annotations\n"
        "def f(a, /, b, *rest, c, **kw):\n    print(a, b, rest, c, kw)\n"
        "class C:\n    def m(self, x):\n        def g():\n            return x\n"
        "        return g\n    async def h(self, y):\n        await y\n"
    )
    assert unread_parameters(source) == []


ENGINE_HOOKS = ("on_materialize", "handle_write_fault", "handle_exec_fault", "on_mprotect")


def test_every_parameter_is_read_by_its_body():
    """Every function and method reads each parameter it takes.  BaselineEngine's
    hooks are exempt, since the hook test below checks the hook interface
    across both engines, and so is ``_NoEngine._missing``'s ``*args``: it
    stands in for every hook and raises, whatever it is passed."""
    baseline_hooks = {f"BaselineEngine.{hook}" for hook in ENGINE_HOOKS}
    unread = [
        (path.name, func, param) for path in sorted(PACKAGE.glob("*.py"))
        for func, param in unread_parameters(path.read_text(encoding="utf-8"))
        if func not in baseline_hooks and (func, param) != ("_NoEngine._missing", "args")
    ]
    assert unread == []


@pytest.mark.parametrize("hook", ENGINE_HOOKS)
def test_every_hook_parameter_is_read_by_an_engine(hook):
    # BaselineEngine.on_mprotect is the module function _plain_relabel
    versions = [getattr(ShadowEngine, hook), getattr(BaselineEngine, hook)]
    read = set().union(*map(names_read, versions))
    params = [p for p in inspect.signature(versions[0]).parameters if p != "self"]
    assert [p for p in params if p not in read] == []
