"""Alternating before/after pairs of the replay benchmark against another
revision.

    python3 tests/pairs.py REV [--pairs N] [--seconds S] [--seed N] [--workload NAME ...]

Extracts REV with ``git archive`` into a temporary directory, as
``tests/parity.py`` does, and replaces its ``bench/`` with this tree's,
so both sides run the same benchmark code; this tree's ``src`` and
``bench`` are copied beside it, so nothing is written under ``bench/``
here.  For each workload (every one in ``BENCHMARK.json`` by default)
it runs N pairs of ``python3 bench/run.py --workload NAME --seed N
--seconds S``, REV first in the odd pairs and this tree first in the
even ones, one process at a time.

For each end-to-end metric in ``BENCHMARK.json`` it prints each side's
median and quartiles, the pairs this tree wins (ties count for
neither), the gap between the medians and two verdicts.  ``gain`` is
the rule for claiming one: this tree wins at least nine tenths of the
pairs and its median is better by more than the distance between REV's
quartiles.  ``bound`` says whether this tree's median is worse than
REV's by more than the metric's bound: ``within``, ``worse``, or
``unresolved`` when REV's own quartile distance is wider than the bound
and not every run of this tree reads better than every run of REV.  It
also prints each side's failed and attempted runs.  Exits 2 on a bad
REV, 0 otherwise.  Standard library only; pytest does not collect this
file.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # importing bench/run.py leaves no cache under bench/
from parity import ROOT, extract  # noqa: E402
from run import _quartiles as quartiles  # noqa: E402  (bench/run.py, put on the path by parity)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SKIP = shutil.ignore_patterns("__pycache__", ".work", ".pytest_cache", ".hypothesis")


def prepare(rev: str, tmp: Path) -> dict[str, Path]:
    """Two trees under ``tmp``, REV's ``src`` ("rev") and this tree's
    ("here"), each with this tree's ``bench``."""
    trees = {"rev": tmp / "rev", "here": tmp / "here"}
    extract(rev, trees["rev"])
    shutil.rmtree(trees["rev"] / "bench", ignore_errors=True)
    shutil.copytree(ROOT / "src", trees["here"] / "src", ignore=SKIP)
    for tree in trees.values():
        shutil.copytree(ROOT / "bench", tree / "bench", ignore=SKIP)
    return trees


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result object, the last line, of one ``bench/run.py`` run in ``tree``."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print(f"pairs: {tree.name} {workload}: exit {proc.returncode}: {proc.stderr.strip()}",
              file=sys.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    return json.loads(lines[-1])


def verdicts(metric: dict, before: list[float], after: list[float]) -> str:
    """Wins, gap and the gain and bound verdicts of one metric over the pairs."""
    sign = 1 if metric["better"] == "higher" else -1
    wins = sum(sign * (a - b) > 0 for b, a in zip(before, after))
    q1, median, q3 = quartiles(before)
    after_median = statistics.median(after)
    gap = sign * (after_median - median)  # > 0: this tree is better
    gain = wins * 10 >= 9 * len(before) and gap > q3 - q1
    if min(sign * a for a in after) > max(sign * b for b in before):
        bound = "within"  # every run of this tree reads better than every run of REV
    elif (q3 - q1) / median > metric["bound"]:
        bound = "unresolved"
    else:
        bound = "worse" if -gap / median > metric["bound"] else "within"
    return (f"wins {wins}/{len(before)}  gap {sign * gap / median:+.1%}"
            f"  gain: {'yes' if gain else 'no'}  bound {metric['bound']:.0%}: {bound}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("rev")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in SPEC["workloads"]])
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    with tempfile.TemporaryDirectory(prefix="jitscan-pairs-") as tmp:
        try:
            trees = prepare(args.rev, Path(tmp))
        except subprocess.CalledProcessError as err:
            print(f"pairs: git archive {args.rev}: {err.stderr.decode().strip()}",
                  file=sys.stderr)
            return 2
        for workload in args.workload or [w["name"] for w in SPEC["workloads"]]:
            runs: dict[str, list[dict]] = {side: [] for side in trees}
            for i in range(args.pairs):
                order = list(trees) if i % 2 == 0 else list(trees)[::-1]
                for side in order:
                    runs[side].append(bench(trees[side], workload, args.seed, args.seconds))
            print(f"== {workload} seed {args.seed}: {args.pairs} pairs of --seconds"
                  f" {args.seconds:g}, {args.rev} first in pairs 1, 3, ...")
            for side, results in runs.items():
                failed = sum(r["failed"] for r in results)
                attempted = sum(r["attempted"] for r in results)
                label = args.rev if side == "rev" else "this tree"
                print(f"  {label}: {failed} of {attempted} runs failed")
            for metric in SPEC["end_to_end"]:
                name = metric["name"]
                values = {side: [r["metrics"][name]["value"] for r in results
                                 if name in r["metrics"]] for side, results in runs.items()}
                if any(len(v) != args.pairs for v in values.values()):
                    print(f"  {name}: missing from a failed run; no verdict")
                    continue
                print(f"  {name} ({metric['unit']}, {metric['better']} is better)")
                for side, v in values.items():
                    q1, median, q3 = quartiles(v)
                    label = args.rev if side == "rev" else "this tree"
                    print(f"    {label:>12}: median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}")
                print(f"    {verdicts(metric, values['rev'], values['here'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
