"""Replay benchmark: one workload per run, end-to-end or per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

A run generates the workload from the seed, cross-checks ``jitscan run``
once, then replays the workload in fresh single-threaded processes, one
after the other, until S seconds have passed.  Every replay is checked
against the generator's ground truth and against the CLI's report
bytes.  The last line of output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (medians over the
run's replays); with --trace 1 the untraced replays are followed by one
replay under cProfile, and the metrics are the per-layer ones.  The
line before it gives each end-to-end timing's quartiles and sample
count, and with --trace 1 the diagnostic counts (see layers.py).  ``--workload all`` prints every metric of every workload as a
table instead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORK = BENCH / ".work"
MIN_SAMPLES = 3
CHILD_TIMEOUT_S = 120
END_TO_END_UNITS = {"events_per_s": "events/s", "setup_s": "s", "peak_rss_mb": "MiB"}
# Host seconds are scaled to a reference host on which child.calibrate()
# takes this long; see child.py for why.
REF_CAL_S = 0.010
UNITS = {**END_TO_END_UNITS, "raw_events_per_s": "events/s", "raw_setup_s": "s", "cal_s": "s"}


def _python(args: list[str], timeout: float = CHILD_TIMEOUT_S) -> subprocess.CompletedProcess:
    # Bytecode is cached under WORK whatever the environment says, so the
    # set-up time is that of an installed package: the first process of a
    # run compiles, the timed ones load the cache.
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
           "PYTHONPYCACHEPREFIX": str(WORK / "pycache")}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, timeout=timeout, cwd=ROOT, env=env,
    )


class Run:
    """One workload and seed: files, reference report, tallies."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.workdir = workloads.generate(name, seed, WORK / f"{name}-{seed}")
        self.truth = json.loads((self.workdir / "truth.json").read_text())
        self.config = json.loads((self.workdir / "config.json").read_text())
        self.reference: bytes | None = None
        self.attempted = 0
        self.failed = 0

    def _fail(self, what: str, reasons: list[str]) -> None:
        self.failed += 1
        for reason in reasons:
            print(f"bench: {self.name}: {what}: {reason}", file=sys.stderr)

    def _verify(self, what: str, report: bytes) -> bool:
        """Ground truth, and identical bytes to every other run of this seed."""
        reasons = check.problems(report, self.truth)
        if self.reference is None:
            self.reference = report
        elif report != self.reference:
            reasons.append("report bytes differ from an earlier run of the same seed")
        if reasons:
            self._fail(what, reasons)
        return not reasons

    def cli(self) -> None:
        """``jitscan run`` with the equivalent flags: exit code and report."""
        self.attempted += 1
        out = self.workdir / "cli.jsonl"
        proc = _python([
            "-m", "jitscan.cli", "run",
            "--trace", str(self.workdir / "trace.txt"),
            "--rules", str(self.workdir / "rules.txt"),
            *self.config["cli_flags"], "--report", str(out),
        ])
        if proc.returncode != self.truth["exit_code"] or not out.exists():
            self._fail("cli", [f"exit {proc.returncode}, want {self.truth['exit_code']}: "
                               f"{proc.stderr.decode(errors='replace').strip()}"])
            return
        self._verify("cli", out.read_bytes())

    def replay(self, profile: bool = False) -> dict | None:
        """One replay in a fresh process; None if it failed."""
        self.attempted += 1
        out = self.workdir / "api.jsonl"
        args = [str(BENCH / "child.py"), str(self.workdir), str(out)]
        try:
            proc = _python(args + (["--profile"] if profile else []))
        except subprocess.TimeoutExpired:
            self._fail("replay", [f"no result within {CHILD_TIMEOUT_S} s"])
            return None
        if proc.returncode != 0:
            self._fail("replay", [proc.stderr.decode(errors="replace").strip()])
            return None
        result = json.loads(proc.stdout.decode().splitlines()[-1])
        if not self._verify("replay", out.read_bytes()):
            return None
        return result


def _scaled(sample: dict, key: str) -> float:
    """sample[key] seconds as they would read on the reference host."""
    return sample[key] * REF_CAL_S / sample["cal_s"]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def run_workload(name: str, seed: int, seconds: float,
                 trace: bool) -> tuple[dict, dict, dict]:
    """Measure one workload: the result object, each metric's spread, and
    the traced run's diagnostic counts."""
    run = Run(name, seed)
    try:
        run.cli()
        samples = []
        start = time.perf_counter()
        while len(samples) < MIN_SAMPLES or time.perf_counter() - start < seconds:
            if run.attempted > 4 * MIN_SAMPLES and not samples:
                break  # every replay fails; stop early
            result = run.replay()
            if result is not None:
                samples.append(result)
        series = {
            "events_per_s": [s["events"] / _scaled(s, "replay_s") for s in samples],
            "setup_s": [_scaled(s, "setup_s") for s in samples],
            "peak_rss_mb": [s["peak_rss_kib"] / 1024 for s in samples],
            "raw_events_per_s": [s["events"] / s["replay_s"] for s in samples],
            "raw_setup_s": [s["setup_s"] for s in samples],
            "cal_s": [s["cal_s"] for s in samples],
        }
        detail = {
            metric: dict(zip(("q1", "median", "q3"), _quartiles(values)), n=len(values),
                         unit=UNITS[metric])
            for metric, values in series.items() if values
        }
        metrics = {m: {"value": detail[m]["median"], "unit": detail[m]["unit"]}
                   for m in END_TO_END_UNITS if m in detail}
        diagnostic = {}
        if trace:
            traced = run.replay(profile=True) if samples else None
            metrics = {}
            if traced is not None:
                values = traced["layers"]
                values["tracing.overhead_ratio"] = (
                    _scaled(traced, "replay_s")
                    / statistics.median(_scaled(s, "replay_s") for s in samples)
                )
                metrics = {m: {"value": values[m], "unit": u} for m, u in layers.UNITS.items()}
                diagnostic = {m: values[m] for m in layers.DIAGNOSTIC}
        detail["fail_rate"] = {"value": run.failed / run.attempted, "n": run.attempted,
                               "unit": "ratio"}
        return {
            "correct": run.failed == 0 and bool(metrics),
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": metrics,
        }, detail, diagnostic
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)


def _print_table(name: str, result: dict, detail: dict, diagnostic: dict) -> None:
    print(f"== {name}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for metric, d in detail.items():
        if "median" in d:
            print(f"  {metric:<16} {d['median']:>14.6g} {d['unit']:<9}"
                  f" q1 {d['q1']:.6g}  q3 {d['q3']:.6g}  n={d['n']}")
        else:
            print(f"  {metric:<16} {d['value']:>14.6g} {d['unit']:<9} n={d['n']}")
    for metric, m in result["metrics"].items():
        if metric not in detail:
            print(f"  {metric:<32} {m['value']:>14.6g} {m['unit']}")
    for metric, value in diagnostic.items():
        print(f"  {metric:<32} {value:>14.6g} (diagnostic)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "jitscan" / "__init__.py").is_file():
        print(f"bench: no jitscan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        for name in workloads.WORKLOADS:
            _print_table(name, *run_workload(name, args.seed, args.seconds, bool(args.trace)))
        return 0
    result, detail, diagnostic = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"detail": detail, "diagnostic": diagnostic}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
