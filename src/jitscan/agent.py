"""Trace replay and the userspace scanning agent.

``replay`` is a pure function of (trace, rules, config): it wires a
machine, fault engine, snapshot pipeline, and flood guard, applies the
trace events in order against a logical clock, and lets the agent
drain and scan snapshots on a configurable cadence.  The returned
Report carries a count of events per outcome, detections, kill/block
actions, and run metrics; emitting it twice gives identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .guard import DosGuard, GuardConfig
from .mmu import DEFAULT_PAGE_SIZE, AccessKind, Machine, SimError
from .pipeline import SnapshotTable
from .report import Report
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
    page_size: int = DEFAULT_PAGE_SIZE
    sync_check: bool = True
    detection_action: str = "kill"  # response to signature hits: kill|block|alert
    shadow: bool = True  # False runs the plain baseline engine
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
            for match in scan_page(snap.content, self.rules):
                signature_hit(
                    self.machine, self.report, self.rules.by_name[match.rule], snap.pid,
                    snap.uid, snap.vpage, match.offset, "async", self.detection_action,
                )
        return len(snaps)


@dataclass
class RunContext:
    machine: Machine
    pipeline: SnapshotTable
    guard: DosGuard
    agent: Agent
    report: Report


def build_run(config: SimConfig | None = None, rules: RuleSet | None = None) -> RunContext:
    """Wire a machine, engine, pipeline, guard, and agent from config."""
    config = config or SimConfig()
    machine = Machine(page_size=config.page_size)
    report = Report()
    guard = DosGuard(config.guard)
    pipeline = SnapshotTable(on_delivered=lambda uid: guard.on_delivered(uid, machine.now))
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
    return RunContext(machine, pipeline, guard, agent, report)


# READ, WRITE and FETCH are nearly every event, so they skip the isinstance ladder
_ACCESS_KINDS = {
    ReadEvent: AccessKind.READ, WriteEvent: AccessKind.WRITE, FetchEvent: AccessKind.FETCH,
}


def _apply_event(machine: Machine, event) -> str:
    """Run one event; returns its result for the report's outcome counts."""
    kind = _ACCESS_KINDS.get(type(event))
    if kind is not None:
        data = event.data if kind is AccessKind.WRITE else None
        result = machine.access(event.pid, event.tid, event.cpu, event.addr, kind, data)
        return result._value_  # the plain string, without the .value property's call
    if isinstance(event, ProcEvent):
        machine.create_process(event.uid)
    elif isinstance(event, MmapEvent):
        machine.mmap(event.pid, event.perms, event.n_pages, event.content, event.at)
    elif isinstance(event, MprotectEvent):
        machine.mprotect(event.pid, event.start_vpage, event.n_pages, event.perms)
    elif not isinstance(event, TickEvent):
        raise TypeError(f"unknown event type {type(event).__name__}")
    return "ok"


def replay(
    trace: str | list[TraceLine],
    rules: RuleSet | None = None,
    config: SimConfig | None = None,
) -> Report:
    """Replay a trace to a Report. Deterministic in (trace, rules, config).

    Each event's result is counted into ``Report.outcomes`` as it ends;
    no per-event record is kept.
    """
    config = config or SimConfig()
    lines = parse_trace(trace, config.page_size) if isinstance(trace, str) else trace
    ctx = build_run(config, rules)
    machine, report, guard, agent = ctx.machine, ctx.report, ctx.guard, ctx.agent
    outcomes = report.outcomes
    for index, line in enumerate(lines, start=1):
        event = line.event
        machine.now += event.n if isinstance(event, TickEvent) else 1
        try:
            result = _apply_event(machine, event)
        except (SimError, ValueError):
            result = "error"
        outcomes[result] = outcomes.get(result, 0) + 1
        guard.tick(machine.now)
        if config.drain_every > 0 and index % config.drain_every == 0:
            agent.step(config.drain_batch)
    if config.drain_every > 0:
        while ctx.pipeline.pending_count() > 0:
            agent.step(config.drain_batch)
    report.metrics = {
        "events": len(lines),
        "snapshots_emitted": ctx.pipeline.enqueued_total,
        "pending_high_watermark": ctx.pipeline.high_watermark,
        "pending_final": ctx.pipeline.pending_count(),
        "scans_run": agent.scans_run,
        "evictions": guard.evictions,
        "admits": guard.admits,
        "denials": guard.denials,
        "detections": len(report.detections),
        "kills": sum(1 for a in report.actions if a.action == "kill"),
        "blocks": sum(1 for a in report.actions if a.action == "block"),
        "clock": machine.now,
    }
    return report
