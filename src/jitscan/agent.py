"""Trace replay and the userspace scanning agent.

``replay`` is a pure function of (trace, rules, config): it wires a
machine, fault engine, snapshot pipeline, and flood guard, applies the
trace events in order against a logical clock, and lets the agent
drain and scan snapshots on a configurable cadence.  The returned
Report carries per-event outcomes, detections, kill/block actions, and
run metrics; emitting it twice gives identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .guard import DosGuard, GuardConfig
from .mmu import AccessKind, Machine, SimError
from .pipeline import DEFAULT_BUCKETS, SnapshotTable
from .report import EventOutcome, Report
from .shadow import BaselineEngine, ShadowEngine, signature_hit
from .signatures import RuleSet, scan_page
from .trace import (
    FetchEvent,
    MmapEvent,
    MprotectEvent,
    ProcEvent,
    ReadEvent,
    TickEvent,
    TraceLine,
    WriteEvent,
    parse_trace,
)


@dataclass
class SimConfig:
    page_size: int = 4096
    sync_check: bool = True
    detection_action: str = "kill"  # response to signature hits: kill|block|alert
    shadow: bool = True  # False runs the plain baseline engine
    suppress_tlb_flush: bool = False  # debug: drop cross-CPU shootdowns
    buckets: int = DEFAULT_BUCKETS
    drain_every: int = 1  # agent cadence in events; 0 disables draining
    drain_batch: int = 0  # snapshots per agent step; 0 means no limit
    guard: GuardConfig = field(default_factory=GuardConfig)


class Agent:
    """Drains the pipeline and scans each snapshot with the full ruleset."""

    def __init__(
        self,
        machine: Machine,
        pipeline: SnapshotTable,
        rules: RuleSet | None,
        report: Report,
        detection_action: str = "kill",
    ):
        self.machine = machine
        self.pipeline = pipeline
        self.rules = rules
        self.report = report
        self.detection_action = detection_action
        self.scans_run = 0

    def step(self, batch: int = 0) -> int:
        """Scan up to `batch` pending snapshots (all of them when 0)."""
        snaps = self.pipeline.drain(batch if batch > 0 else None)
        for snap in snaps:
            self.scans_run += 1
            if self.rules is None:
                continue
            for match in scan_page(snap.content, self.rules).matches:
                signature_hit(
                    self.machine, self.report, self.rules.by_name[match.rule], snap.pid,
                    snap.uid, snap.vpage, match.offset, "async", self.detection_action,
                )
        return len(snaps)


@dataclass
class RunContext:
    machine: Machine
    engine: object
    pipeline: SnapshotTable
    guard: DosGuard
    agent: Agent
    report: Report


def build_run(config: SimConfig | None = None, rules: RuleSet | None = None) -> RunContext:
    """Wire a machine, engine, pipeline, guard, and agent from config."""
    config = config or SimConfig()
    machine = Machine(page_size=config.page_size, suppress_tlb_flush=config.suppress_tlb_flush)
    report = Report()
    guard = DosGuard(config.guard)
    pipeline = SnapshotTable(
        config.buckets,
        on_delivered=lambda uid: guard.on_delivered(uid, machine.now),
    )
    if config.shadow:
        engine = ShadowEngine(
            machine,
            rules=rules,
            pipeline=pipeline,
            guard=guard,
            sync_check_enabled=config.sync_check,
            detection_action=config.detection_action,
            report=report,
        )
    else:
        engine = BaselineEngine(machine)
    machine.attach_engine(engine)
    agent = Agent(machine, pipeline, rules, report, config.detection_action)
    return RunContext(machine, engine, pipeline, guard, agent, report)


def _apply_event(machine: Machine, event) -> tuple[str, str | None]:
    """Run one event; returns (result, detail) for the report."""
    if isinstance(event, ProcEvent):
        pid = machine.create_process(event.uid)
        return "ok", f"pid={pid}"
    if isinstance(event, MmapEvent):
        area = machine.mmap(event.pid, event.perms, event.n_pages, event.content, event.at)
        return "ok", f"vpages=[{area.start_vpage},{area.end_vpage})"
    if isinstance(event, MprotectEvent):
        machine.mprotect(event.pid, event.start_vpage, event.n_pages, event.perms)
        return "ok", None
    if isinstance(event, WriteEvent):
        result = machine.access(
            event.pid, event.tid, event.cpu, event.addr, AccessKind.WRITE, event.data
        )
        return result.value, None
    if isinstance(event, FetchEvent):
        result = machine.access(event.pid, event.tid, event.cpu, event.addr, AccessKind.FETCH)
        return result.value, None
    if isinstance(event, ReadEvent):
        result = machine.access(event.pid, event.tid, event.cpu, event.addr, AccessKind.READ)
        return result.value, None
    if isinstance(event, TickEvent):
        return "ok", f"now={machine.now}"
    raise TypeError(f"unknown event type {type(event).__name__}")


def replay(
    trace: str | list[TraceLine],
    rules: RuleSet | None = None,
    config: SimConfig | None = None,
) -> Report:
    """Replay a trace to a Report. Deterministic in (trace, rules, config)."""
    config = config or SimConfig()
    lines = parse_trace(trace, config.page_size) if isinstance(trace, str) else trace
    ctx = build_run(config, rules)
    machine, report = ctx.machine, ctx.report
    for index, line in enumerate(lines, start=1):
        machine.now += line.event.n if isinstance(line.event, TickEvent) else 1
        try:
            result, detail = _apply_event(machine, line.event)
        except (SimError, ValueError) as exc:
            result, detail = "error", str(exc)
        report.record_event(EventOutcome(index, line.line_no, line.text, result, detail))
        ctx.guard.tick(machine.now)
        if config.drain_every > 0 and index % config.drain_every == 0:
            ctx.agent.step(config.drain_batch)
    if config.drain_every > 0:
        while ctx.pipeline.pending_count() > 0:
            ctx.agent.step(config.drain_batch)
    report.metrics = {
        "events": len(lines),
        "snapshots_emitted": ctx.pipeline.enqueued_total,
        "pending_high_watermark": ctx.pipeline.high_watermark,
        "pending_final": ctx.pipeline.pending_count(),
        "scans_run": ctx.agent.scans_run,
        "evictions": ctx.guard.evictions,
        "admits": ctx.guard.admits,
        "denials": ctx.guard.denials,
        "detections": len(report.detections),
        "kills": sum(1 for a in report.actions if a.action == "kill"),
        "blocks": sum(1 for a in report.actions if a.action == "block"),
        "clock": machine.now,
    }
    return ctx.report
