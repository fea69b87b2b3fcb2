"""One replay in a fresh process, timed, or profiled per layer.

    python3 bench/child.py WORKDIR REPORT_OUT [--profile]

Reads the generated files in WORKDIR, replays them through the public
API (parse_rules -> parse_trace -> replay -> Report.emit), writes the
report bytes to REPORT_OUT and prints one JSON object:

    setup_s       from before ``import jitscan`` to a compiled RuleSet
                  (untraced runs only)
    replay_s      parse_trace + replay + emit, trace text already in memory
    cal_s         median time of a fixed pure-Python loop, run three times
                  right before the replay and three times right after
    events        trace events replayed
    peak_rss_kib  peak resident set of this process

The host this runs on shares its cores, and its speed drifts by up to
half over seconds to minutes; cal_s measures that speed next to the
replay so the caller can scale the times to a fixed reference speed.

With --profile the same calls run under cProfile and the object also
carries the per-layer metrics (see layers.py).  Only the standard
library is imported before the setup clock starts.
"""

import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
CAL_DATA = bytes(range(256)) * 384


def calibrate() -> float:
    """Seconds one pass of a fixed dict-and-bytes loop takes right now."""
    t = time.perf_counter()
    counts: dict[int, int] = {}
    for i, b in enumerate(CAL_DATA):
        counts[b] = counts.get(b, 0) + i
    return time.perf_counter() - t


def main(argv: list[str]) -> int:
    workdir, report_out = Path(argv[0]), Path(argv[1])
    profile = "--profile" in argv[2:]
    rules_text = (workdir / "rules.txt").read_text()
    trace_text = (workdir / "trace.txt").read_text()
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    import jitscan

    if not profile:
        rules = jitscan.parse_rules(rules_text)
    t1 = time.perf_counter()

    import json
    import resource

    import workloads

    if Path(jitscan.__file__).resolve().parent.parent != SRC:
        print(f"child: imported jitscan from {jitscan.__file__}, not {SRC}", file=sys.stderr)
        return 2
    config = workloads.sim_config(workdir)

    def run(rules) -> tuple[int, bytes]:
        lines = jitscan.parse_trace(trace_text)
        payload = jitscan.replay(lines, rules, config).emit("jsonl")
        return len(lines), payload

    cal = [calibrate() for _ in range(3)]
    if profile:
        import cProfile

        import layers

        profiler = cProfile.Profile(builtins=False)
        t2 = time.perf_counter()
        profiler.enable()
        rules = jitscan.parse_rules(rules_text)
        t3 = time.perf_counter()
        events, payload = run(rules)
        profiler.disable()
        t4 = time.perf_counter()
        out = {"replay_s": t4 - t3, "layers": layers.breakdown(profiler, t4 - t2, payload)}
    else:
        t2 = time.perf_counter()
        events, payload = run(rules)
        out = {"replay_s": time.perf_counter() - t2, "setup_s": t1 - t0}
    cal += [calibrate() for _ in range(3)]
    report_out.write_bytes(payload)
    out["cal_s"] = statistics.median(cal)
    out["events"] = events
    out["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
