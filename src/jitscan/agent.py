"""Trace replay and the userspace scanning agent.

``replay`` is a pure function of (trace, rules, config): it wires a
machine, fault engine, snapshot pipeline, and flood guard, applies the
trace events in order against a logical clock, and lets the agent
drain and scan snapshots on a configurable cadence.  The returned
Report carries a count of events per outcome, detections, kill/block
actions, and run metrics; emitting it twice gives identical bytes.
"""

from __future__ import annotations

from typing import NamedTuple

from .guard import DosGuard, GuardConfig
from .mmu import DEFAULT_PAGE_SIZE, DeadProcessError, Machine, SimError, check_page_size
from .pipeline import SnapshotTable
from .report import Report
from .shadow import DETECTION_ACTIONS, BaselineEngine, ShadowEngine, signature_hit
from .signatures import RuleSet, scan_page
from .trace import FETCH, MMAP, MPROTECT, PROC, READ, TICK, WRITE, parse_trace


class SimConfig:
    def __init__(
        self, page_size: int = DEFAULT_PAGE_SIZE, sync_check: bool = True,
        detection_action: str = "kill", shadow: bool = True, drain_every: int = 1,
        guard: GuardConfig | None = None,
    ):
        check_page_size(page_size)
        if drain_every < 0:
            raise ValueError(f"drain_every must be >= 0, got {drain_every}")
        if detection_action not in DETECTION_ACTIONS:  # checked here for either engine
            raise ValueError(f"bad detection action {detection_action!r}")
        self.page_size, self.sync_check = page_size, sync_check
        self.detection_action = detection_action  # response to signature hits: kill|block|alert
        self.shadow = shadow  # False runs the plain baseline engine
        self.drain_every = drain_every  # agent cadence in events; 0 disables draining
        self.guard = GuardConfig() if guard is None else guard


class Agent:
    """Drains the pipeline, its only consumer in a run, and for each
    snapshot calls the guard's ``on_delivered`` at the step's tick, then
    scans it with the full ruleset.

    A snapshot's spans narrow its scan only while the page's previous
    scan found nothing; ``_matched`` holds the (pid, vpage) pages whose
    last scan matched, and those are scanned whole.
    """

    def __init__(
        self,
        machine: Machine,
        pipeline: SnapshotTable,
        guard: DosGuard,
        rules: RuleSet,
        report: Report,
        detection_action: str,
    ):
        self.machine = machine
        self.pipeline = pipeline
        self.guard = guard
        self.rules = rules
        self.report = report
        self.detection_action = detection_action
        self.scans_run = 0
        self._matched: set[tuple[int, int]] = set()

    def step(self, batch: int = 0) -> int:
        """Scan up to `batch` pending snapshots (all of them when 0);
        ``replay`` calls this only when a snapshot is pending."""
        snaps = self.pipeline.drain(batch if batch > 0 else None)
        now, on_delivered = self.machine.now, self.guard.on_delivered
        for snap in snaps:
            on_delivered(snap.uid, now)
            self.scans_run += 1
            page = (snap.pid, snap.vpage)
            spans = None if page in self._matched else snap.spans
            matches = scan_page(snap.content, self.rules, spans)
            if matches:
                self._matched.add(page)
            else:
                self._matched.discard(page)
            for match in matches:
                signature_hit(
                    self.machine, self.report, self.rules.by_name[match.rule], snap.pid,
                    snap.uid, snap.vpage, match.offset, "async", self.detection_action,
                )
        return len(snaps)


class RunContext(NamedTuple):
    machine: Machine
    pipeline: SnapshotTable
    guard: DosGuard
    agent: Agent
    report: Report


def build_run(config: SimConfig | None = None, rules: RuleSet | None = None) -> RunContext:
    """Wire a machine, engine, pipeline, guard, and agent from config; no rules is the empty set."""
    config = config or SimConfig()
    rules = RuleSet((), config.page_size) if rules is None else rules
    if rules.page_size != config.page_size:
        raise ValueError(
            f"rules are for page size {rules.page_size}, the run's is {config.page_size}"
        )
    machine = Machine(page_size=config.page_size)
    report = Report()
    guard = DosGuard(config.guard)
    pipeline = SnapshotTable()
    if config.shadow:
        engine = ShadowEngine(
            machine, rules, pipeline, guard, report,
            sync_check=config.sync_check, detection_action=config.detection_action,
        )
    else:
        engine = BaselineEngine(machine)
    machine.attach_engine(engine)
    agent = Agent(machine, pipeline, guard, rules, report, config.detection_action)
    return RunContext(machine, pipeline, guard, agent, report)


def _apply_event(machine: Machine, event: tuple) -> str:
    """Advance the clock and run one parsed event (see trace.py for its
    layout); returns its result for the report's outcome counts.

    ``replay`` runs READ, FETCH and WRITE itself, so PROC, MMAP, MPROTECT
    and TICK are tested first.  Op codes are told apart by identity, as
    ``Machine.access`` tells kinds apart, so an op code other than READ ...
    TICK (-1, 1.0, 7, None, True) raises TypeError before the clock moves.
    """
    op = event[0]
    if op is PROC:
        machine.now += 1
        machine.create_process(event[2])
    elif op is MMAP:
        machine.now += 1
        machine.mmap(event[2], event[3], event[4], event[5], event[6])
    elif op is MPROTECT:
        machine.now += 1
        machine.mprotect(event[2], event[3], event[4], event[5])
    elif op is TICK:
        machine.now += event[2]
    elif op is READ or op is WRITE or op is FETCH:  # the op is the kind
        machine.now += 1
        return machine.access(
            event[2], event[4], event[5], op, event[6] if op is WRITE else None,
        )
    else:
        raise TypeError(f"unknown op code {op!r}")
    return "ok"


def replay(
    trace: str | list[tuple],
    rules: RuleSet | None = None,
    config: SimConfig | None = None,
) -> Report:
    """Replay a trace, its text or ``parse_trace``'s events, to a Report.
    Deterministic in (trace, rules, config).

    The loop runs each READ, FETCH and WRITE event itself, as
    ``_apply_event`` would, and hands it every other event.  Each event's
    result is counted into ``Report.outcomes`` (``ok``, nearly every
    result, in a local written once at the end); no per-event record is
    kept.  On every ``drain_every``-th event the agent runs only when a
    snapshot is pending: a step over an empty pipeline does nothing, so it
    is skipped.
    """
    config = config or SimConfig()
    events = parse_trace(trace, config.page_size) if isinstance(trace, str) else trace
    ctx = build_run(config, rules)
    machine, report, guard, agent = ctx.machine, ctx.report, ctx.guard, ctx.agent
    outcomes, drain_every, step = report.outcomes, config.drain_every, agent.step
    ready = ctx.pipeline._ready  # empty exactly when nothing is pending (see pipeline.py)
    access = machine.access
    ok = 0  # nearly every result: counted here, stored once after the loop
    for index, event in enumerate(events, start=1):
        op = event[0]
        try:
            # pid, cpu and addr: the model reads no tid (event[3]), as
            # TLBs and faults are per CPU
            if op is READ or op is FETCH:
                machine.now += 1
                result = access(event[2], event[4], event[5], op)
            elif op is WRITE:
                machine.now += 1
                result = access(event[2], event[4], event[5], op, event[6])
            else:
                result = _apply_event(machine, event)
        except DeadProcessError:  # a pid the run already killed
            result = "dead"
        except (SimError, ValueError):
            result = "error"
        if result == "ok":
            ok += 1
        else:
            outcomes[result] = outcomes.get(result, 0) + 1
        if ready and drain_every > 0 and index % drain_every == 0:
            step()
    if ok:
        outcomes["ok"] = ok  # emit sorts keys, so the late insert leaves the bytes alone
    if drain_every > 0 and ready:
        step()  # drains everything: a scan never enqueues
    guard.tick(machine.now)
    report.metrics = {
        "events": len(events),
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
