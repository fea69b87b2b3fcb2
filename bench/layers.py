"""Per-layer breakdown of one profiled replay.

A layer is a module of the jitscan package.  A function's self time is
charged to the module that defines it.  Time in code outside jitscan
(stdlib helpers, dataclass-generated methods) is charged to the jitscan
modules that called it, split by the callers' share of its cumulative
time; with ``builtins=False`` the profiler already folds C builtins into
their Python caller.  Call counts are the profiler's counts for each
layer's entry points; simulated counts come from the report's summary
record, which is byte-identical to the untraced run's.  ``breakdown``
returns the metrics named in UNITS and in DIAGNOSTIC.
"""

from __future__ import annotations

import json
import pstats
from pathlib import Path

from workloads import PAGE_SIZE

LAYERS = ("trace", "signatures", "mmu", "shadow", "guard", "pipeline", "agent", "report")

# (metric, module, function name) counted by the profiler
CALL_COUNTS = (
    ("trace.lines", "trace", "done"),  # _Line.done: once per event line
    ("signatures.scan_calls", "signatures", "scan_page"),
    ("signatures.sync_check_calls", "signatures", "sync_check"),
    ("mmu.accesses", "mmu", "access"),
    ("mmu.tlb_flushes", "mmu", "tlb_flush_one"),
    ("shadow.materializations", "shadow", "on_materialize"),
    ("shadow.write_faults", "shadow", "handle_write_fault"),
    ("shadow.exec_faults", "shadow", "handle_exec_fault"),
    ("shadow.mprotects", "shadow", "on_mprotect"),
    ("pipeline.enqueues", "pipeline", "enqueue"),
    ("pipeline.drain_calls", "pipeline", "drain"),
)


# unit of every per-layer metric listed in BENCHMARK.json, in report order
UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "signatures.compile_s": "s",
    "signatures.scan_mb_per_s": "MB/s",
    "signatures.scan_calls": "count",
    "signatures.sync_check_calls": "count",
    "mmu.us_per_access": "us",
    "mmu.tlb_flushes": "count",
    "pipeline.drain_calls": "count",
    "tracing.coverage": "ratio",
    "tracing.overhead_ratio": "ratio",
}

# Diagnostic only: the trace and the simulation's semantics fix these, and
# every correct run's report is byte-identical, so no change that keeps
# the output can move them.  They confirm each workload's design (how
# many traps, denials, evictions, detections) and are printed beside the
# listed metrics, not listed themselves.
DIAGNOSTIC = (
    "trace.lines", "mmu.accesses", "shadow.materializations", "shadow.write_faults",
    "shadow.exec_faults", "shadow.mprotects", "pipeline.enqueues",
    "pipeline.drains_per_snapshot", "pipeline.pending_hwm", "guard.admits",
    "guard.denials", "guard.admit_ratio", "guard.evictions", "agent.scans",
    "agent.detections", "agent.detection_yield", "report.records", "report.bytes",
)


def _layer(func: tuple) -> str | None:
    path = Path(func[0])
    if path.parent.name == "jitscan" and path.stem in LAYERS:
        return path.stem
    return None


def layer_self_times(stats: dict) -> dict[str, float]:
    """Self seconds per layer; code reached from no layer goes to None."""
    owners_of: dict = {}

    def owners(func, seen=frozenset()) -> dict:
        layer = _layer(func)
        if layer is not None:
            return {layer: 1.0}
        if func in owners_of:
            return owners_of[func]
        callers = stats[func][4] if func in stats else {}
        weights = {c: e[3] for c, e in callers.items()}
        if sum(weights.values()) <= 0:
            weights = {c: e[1] for c, e in callers.items()}
        total = sum(weights.values())
        out: dict = {}
        if func in seen or total <= 0:
            out = {None: 1.0}
        else:
            for caller, weight in weights.items():
                for layer, share in owners(caller, seen | {func}).items():
                    out[layer] = out.get(layer, 0.0) + share * weight / total
        owners_of[func] = out
        return out

    self_s = {layer: 0.0 for layer in LAYERS}
    self_s[None] = 0.0
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        layer = _layer(func)
        if layer is not None:
            self_s[layer] += tt
            continue
        if not callers:
            self_s[None] += tt
        for caller, edge in callers.items():
            for owner, share in owners(caller).items():
                self_s[owner] += edge[2] * share
    return self_s


def _count(stats: dict, module: str, name: str) -> int:
    return sum(v[1] for f, v in stats.items() if _layer(f) == module and f[2] == name)


def _cumulative(stats: dict, module: str, name: str) -> float:
    return sum(v[3] for f, v in stats.items() if _layer(f) == module and f[2] == name)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def breakdown(profiler, wall_s: float, payload: bytes) -> dict[str, float]:
    """Every per-layer and diagnostic metric of one profiled run, by name.

    wall_s is the wall time of the profiled region.  The overhead ratio
    needs the untraced median, so the caller adds it.
    """
    stats = pstats.Stats(profiler).stats
    self_s = layer_self_times(stats)
    records = [json.loads(line) for line in payload.splitlines()]
    summary = records[-1]
    m: dict[str, float] = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    for metric, module, name in CALL_COUNTS:
        m[metric] = _count(stats, module, name)
    m["signatures.compile_s"] = _cumulative(stats, "signatures", "parse_rules")
    scanned = (m["signatures.scan_calls"] + m["signatures.sync_check_calls"]) * PAGE_SIZE
    m["signatures.scan_mb_per_s"] = _ratio(scanned / 1e6, m["signatures.self_s"])
    m["mmu.us_per_access"] = _ratio(m["mmu.self_s"] * 1e6, m["mmu.accesses"])
    m["guard.admits"] = summary["admits"]
    m["guard.denials"] = summary["denials"]
    m["guard.admit_ratio"] = _ratio(summary["admits"], summary["admits"] + summary["denials"])
    m["guard.evictions"] = summary["evictions"]
    m["pipeline.drains_per_snapshot"] = m["pipeline.drain_calls"] / max(1, m["pipeline.enqueues"])
    m["pipeline.pending_hwm"] = summary["pending_high_watermark"]
    m["agent.scans"] = summary["scans_run"]
    m["agent.detections"] = summary["detections"]
    m["agent.detection_yield"] = _ratio(summary["detections"], summary["scans_run"])
    m["report.records"] = len(records)
    m["report.bytes"] = len(payload)
    m["tracing.coverage"] = sum(self_s[layer] for layer in LAYERS) / wall_s
    return m
