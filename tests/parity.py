"""Compare ``jitscan run``, ``jitscan scan`` and ``jitscan check-trace``
against another revision on the bench workloads.

    python3 tests/parity.py REV

Extracts REV with ``git archive`` into a temporary directory (the
repository's ``.git`` is only read), generates jit-churn, benign-rw and
fork-flood for seeds 1, 2 and 9001 with ``bench/workloads.py``, and runs
``python -m jitscan.cli run`` with each workload's flags under
``--action`` kill, block and alert, once on REV's ``src`` and once on
this tree's: 27 runs per side.  For each of those rule files it also
runs ``jitscan scan`` on three pages of the workload's page size: one
holding the first kill rule's literal bytes at offset 0 (wildcards as
00), one all zero, and one of seeded bytes from the whole alphabet with
that rule's literals at a seeded offset, which puts the scanner's
prefilter on dense content.  That is 27 more per side.  One more
``scan`` runs a rule file whose strings take the report's ``json``
fallback (a non-ASCII rule name, a family holding ``"`` and ``\\``, one
holding a control character) on a page that matches each of its rules:
28 scans.  ``jitscan check-trace`` runs once on each generated trace, 9
more, so every subcommand is checked: 64 runs per side.  One process at
a time.  Prints every run whose exit code or output bytes (the report of
``run``, stdout of ``scan`` and ``check-trace``) differ and exits 1 if
any do, 0 if none.  It also
prints the ``wc -l`` total of ``src/jitscan/*.py`` at REV and in this
tree, which leaves the exit status alone.  Standard library only; pytest
does not collect this file.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402  (bench/workloads.py, found through the path above)

WORKLOADS = ("jit-churn", "benign-rw", "fork-flood")
SEEDS = (1, 2, 9001)
ACTIONS = ("kill", "block", "alert")
# each rule's strings escaped in its match record; the page matches both rules
ESCAPED_RULES = (
    'rule règle_ω family=pa"ck\\er severity=kill { de ad be ef }\n'
    "rule probe family=ctl\x01 severity=alert { ca fe ?? 90 }\n"
)
ESCAPED_PAGE = bytes.fromhex("deadbeef" + "00" * 96 + "cafe0090")


def extract(rev: str, into: Path) -> None:
    """REV's tree, written under ``into`` from ``git archive``'s tar stream."""
    tar = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        capture_output=True, check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")


def cli(src: Path, workdir: Path, args: list[str]) -> subprocess.CompletedProcess:
    """One ``python -m jitscan.cli`` process on ``src``, output captured."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, "-m", "jitscan.cli", *args], capture_output=True, env=env, cwd=workdir,
    )


def run(src: Path, workdir: Path, flags: list[str], report: Path) -> tuple[int, bytes]:
    """The exit code and report bytes of one ``jitscan run`` on ``src``."""
    proc = cli(src, workdir, [
        "run", "--trace", str(workdir / "trace.txt"), "--rules", str(workdir / "rules.txt"),
        *flags, "--report", str(report),
    ])
    data = report.read_bytes() if report.exists() else b""
    report.unlink(missing_ok=True)
    return proc.returncode, data


def check_trace(src: Path, workdir: Path) -> tuple[int, bytes]:
    """The exit code and stdout bytes of one ``jitscan check-trace`` on ``src``."""
    proc = cli(src, workdir, [
        "check-trace", str(workdir / "trace.txt"), "--page-size", str(workloads.PAGE_SIZE),
    ])
    return proc.returncode, proc.stdout


def scan(src: Path, workdir: Path, page: Path) -> tuple[int, bytes]:
    """The exit code and stdout bytes of one ``jitscan scan`` on ``src``."""
    proc = cli(src, workdir, [
        "scan", "--rules", str(workdir / "rules.txt"), "--page", str(page),
        "--page-size", str(workloads.PAGE_SIZE),
    ])
    return proc.returncode, proc.stdout


def kill_rule_atoms(rules_text: str) -> list[int | None]:
    """The first kill rule's atoms: a byte, or None for ``??``."""
    for line in rules_text.splitlines():
        words = line.split()
        if words[:1] == ["rule"] and "severity=kill" in words:
            atoms = words[words.index("{") + 1 : words.index("}")]
            return [None if atom == "??" else int(atom, 16) for atom in atoms]
    raise ValueError("no kill rule")


def kill_rule_page(atoms: list[int | None]) -> bytes:
    """A page holding the rule's literal bytes at offset 0, wildcards as 00."""
    return bytes(0 if atom is None else atom for atom in atoms).ljust(workloads.PAGE_SIZE, b"\x00")


def dense_page(atoms: list[int | None], seed: int) -> bytes:
    """Seeded bytes from the whole alphabet, the rule's literals at a seeded offset."""
    rng = random.Random(seed)
    page = bytearray(rng.randbytes(workloads.PAGE_SIZE))
    offset = rng.randrange(workloads.PAGE_SIZE - len(atoms) + 1)
    for i, atom in enumerate(atoms):
        if atom is not None:
            page[offset + i] = atom
    return bytes(page)


def line_count(src: Path) -> int:
    """The ``wc -l`` total of ``src/jitscan/*.py``: newlines in the package's modules."""
    return sum(path.read_bytes().count(b"\n") for path in (src / "jitscan").glob("*.py"))


def with_action(flags: list[str], action: str) -> list[str]:
    flags = list(flags)
    flags[flags.index("--action") + 1] = action
    return flags


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tests/parity.py REV", file=sys.stderr)
        return 2
    rev = argv[0]
    with tempfile.TemporaryDirectory(prefix="jitscan-parity-") as tmp:
        tmp = Path(tmp)
        try:
            extract(rev, tmp / "rev")
        except subprocess.CalledProcessError as err:
            print(f"parity: git archive {rev}: {err.stderr.decode().strip()}", file=sys.stderr)
            return 2
        report = tmp / "report.jsonl"
        pages = {"kill-rule page": tmp / "kill.page", "zero page": tmp / "zero.page",
                 "dense page": tmp / "dense.page"}
        pages["zero page"].write_bytes(bytes(workloads.PAGE_SIZE))
        runs = scans = checks = differ = 0

        def compare(what: str, a: tuple[int, bytes], b: tuple[int, bytes]) -> None:
            nonlocal differ
            if a != b:
                differ += 1
                print(f"differ: {what}: exit {a[0]} at {rev}, {b[0]} here; output bytes"
                      f" {'equal' if a[1] == b[1] else 'unequal'}")

        for name in WORKLOADS:
            for seed in SEEDS:
                workdir = workloads.generate(name, seed, tmp / f"{name}-{seed}")
                flags = json.loads((workdir / "config.json").read_text())["cli_flags"]
                checks += 1
                compare(f"check-trace {name} seed {seed}",
                        check_trace(tmp / "rev" / "src", workdir),
                        check_trace(ROOT / "src", workdir))
                for action in ACTIONS:
                    runs += 1
                    flags = with_action(flags, action)
                    compare(f"run {name} seed {seed} --action {action}",
                            run(tmp / "rev" / "src", workdir, flags, report),
                            run(ROOT / "src", workdir, flags, report))
                atoms = kill_rule_atoms((workdir / "rules.txt").read_text())
                pages["kill-rule page"].write_bytes(kill_rule_page(atoms))
                pages["dense page"].write_bytes(dense_page(atoms, seed))
                for label, page in pages.items():
                    scans += 1
                    compare(f"scan {name} seed {seed} {label}",
                            scan(tmp / "rev" / "src", workdir, page),
                            scan(ROOT / "src", workdir, page))
        workdir = tmp / "escaped"
        workdir.mkdir()
        (workdir / "rules.txt").write_text(ESCAPED_RULES, encoding="utf-8")
        (workdir / "page").write_bytes(ESCAPED_PAGE)
        scans += 1
        compare("scan escaped names", scan(tmp / "rev" / "src", workdir, workdir / "page"),
                scan(ROOT / "src", workdir, workdir / "page"))
        total = runs + scans + checks
        print(f"parity: {total - differ} of {total} runs equal to {rev}"
              f" ({runs} run, {scans} scan, {checks} check-trace)")
        before, after = line_count(tmp / "rev" / "src"), line_count(ROOT / "src")
        print(f"lines: src/jitscan/*.py {before} at {rev}, {after} here ({after - before:+d})")
        return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
