"""Compare ``jitscan run`` against another revision on the bench workloads.

    python3 tests/parity.py REV

Extracts REV with ``git archive`` into a temporary directory (the
repository's ``.git`` is only read), generates jit-churn, benign-rw and
fork-flood for seeds 1, 2 and 9001 with ``bench/workloads.py``, and runs
``python -m jitscan.cli run`` with each workload's flags under
``--action`` kill, block and alert, once on REV's ``src`` and once on
this tree's: 27 runs per side, one process at a time.  Prints every run
whose exit code or report bytes differ and exits 1 if any do, 0 if none.
Standard library only; pytest does not collect this file.
"""

from __future__ import annotations

import io
import json
import os
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


def extract(rev: str, into: Path) -> None:
    """REV's tree, written under ``into`` from ``git archive``'s tar stream."""
    tar = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        capture_output=True, check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")


def run(src: Path, workdir: Path, flags: list[str], report: Path) -> tuple[int, bytes]:
    """The exit code and report bytes of one ``jitscan run`` on ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "jitscan.cli", "run",
         "--trace", str(workdir / "trace.txt"), "--rules", str(workdir / "rules.txt"),
         *flags, "--report", str(report)],
        capture_output=True, env=env, cwd=workdir,
    )
    data = report.read_bytes() if report.exists() else b""
    report.unlink(missing_ok=True)
    return proc.returncode, data


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
        runs = differ = 0
        for name in WORKLOADS:
            for seed in SEEDS:
                workdir = workloads.generate(name, seed, tmp / f"{name}-{seed}")
                flags = json.loads((workdir / "config.json").read_text())["cli_flags"]
                for action in ACTIONS:
                    runs += 1
                    flags = with_action(flags, action)
                    code_a, report_a = run(tmp / "rev" / "src", workdir, flags, report)
                    code_b, report_b = run(ROOT / "src", workdir, flags, report)
                    if code_a != code_b or report_a != report_b:
                        differ += 1
                        print(f"differ: {name} seed {seed} --action {action}: exit {code_a}"
                              f" at {rev}, {code_b} here; report bytes"
                              f" {'equal' if report_a == report_b else 'unequal'}")
        print(f"parity: {runs - differ} of {runs} runs equal to {rev}")
        return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
