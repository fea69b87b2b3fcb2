"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/sweep.py [--seeds 1-10] [--seconds 30] [--out FILE]

Each (workload, seed) is one ``run.py`` process, workloads interleaved
seed by seed.  For every end-to-end metric it prints the median and
quartiles of the per-run values, and the spread (q3 - q1) / median that
a metric's bound in BENCHMARK.json must stay above.  Each workload also
gets one traced run on the first seed, for the per-layer breakdown.
--out writes everything as JSON; this is how baseline.json is made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402


def _seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, check=True, cwd=BENCH.parent, timeout=600,
    )
    lines = proc.stdout.decode().splitlines()
    result = json.loads(lines[-1])
    result.update(json.loads(lines[-2]))
    result["seed"] = seed
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--out")
    args = parser.parse_args()
    seeds = _seeds(args.seeds)
    runs: dict[str, list[dict]] = {name: [] for name in workloads.WORKLOADS}
    for seed in seeds:
        for name in workloads.WORKLOADS:
            result = _run(name, seed, args.seconds, 0)
            runs[name].append(result)
            values = {m: round(v["value"], 6) for m, v in result["metrics"].items()}
            print(f"{name} seed={seed} correct={result['correct']} {values}", flush=True)
    summary: dict[str, dict] = {}
    for name, results in runs.items():
        summary[name] = {"runs": len(results),
                         "failed": sum(r["failed"] for r in results),
                         "attempted": sum(r["attempted"] for r in results)}
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            summary[name][metric] = {
                "median": median, "q1": q1, "q3": q3, "n": len(values),
                "spread": (q3 - q1) / median,
                "unit": results[0]["metrics"][metric]["unit"],
            }
            print(f"{name:<11} {metric:<13} median {median:<12.6g} q1 {q1:<12.6g}"
                  f" q3 {q3:<12.6g} spread {(q3 - q1) / median:.4f}  n={len(values)}")
        traced = _run(name, seeds[0], args.seconds, 1)
        summary[name]["layers"] = {
            **{m: v["value"] for m, v in traced["metrics"].items()},
            **traced["diagnostic"],
        }
        summary[name]["layers_seed"] = seeds[0]
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seeds": args.seeds, "seconds": args.seconds, "workloads": summary,
             "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
