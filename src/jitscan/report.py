"""Run log and report emission.

A Report accumulates per-event outcomes, signature detections, and
kill/block actions while a trace replays, then serializes to a
line-delimited record stream: one record per detection, one per
action, one trailing summary.  Field names are stable and records are
emitted with sorted keys, so the same trace and config always produce
byte-identical output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass(slots=True)
class EventOutcome:
    index: int
    line: int
    text: str
    result: str
    detail: str | None = None


@dataclass
class Detection:
    pid: int
    uid: int
    vpage: int
    offset: int
    vaddr: int
    rule: str
    family: str
    severity: str
    path: str  # "sync" | "async"
    action: str  # "kill" | "block" | "alert"


@dataclass
class ActionTaken:
    pid: int
    uid: int
    action: str  # "kill" | "block"
    cause: str  # "signature" | "throttle"
    rule: str | None = None
    path: str | None = None


@dataclass
class Report:
    events: list[EventOutcome] = field(default_factory=list)
    detections: list[Detection] = field(default_factory=list)
    actions: list[ActionTaken] = field(default_factory=list)
    metrics: dict[str, int] = field(default_factory=dict)

    def record_event(self, outcome: EventOutcome) -> None:
        self.events.append(outcome)

    def record_detection(self, det: Detection) -> None:
        self.detections.append(det)

    def record_action(self, act: ActionTaken) -> None:
        self.actions.append(act)

    @property
    def any_kill_detection(self) -> bool:
        return any(d.severity == "kill" for d in self.detections)

    def outcome_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for ev in self.events:
            counts[ev.result] = counts.get(ev.result, 0) + 1
        return counts

    def to_records(self) -> list[dict]:
        records: list[dict] = []
        for d in self.detections:
            records.append(
                {
                    "record": "detection",
                    "pid": d.pid,
                    "uid": d.uid,
                    "vpage": d.vpage,
                    "offset": d.offset,
                    "vaddr": d.vaddr,
                    "rule": d.rule,
                    "family": d.family,
                    "severity": d.severity,
                    "path": d.path,
                    "action": d.action,
                }
            )
        for a in self.actions:
            records.append(
                {
                    "record": "action",
                    "pid": a.pid,
                    "uid": a.uid,
                    "action": a.action,
                    "cause": a.cause,
                    "rule": a.rule,
                    "path": a.path,
                }
            )
        summary = {"record": "summary", "outcomes": self.outcome_counts()}
        summary.update(self.metrics)
        records.append(summary)
        return records

    def emit(self, fmt: str = "jsonl") -> bytes:
        if fmt != "jsonl":
            raise ValueError(f"unknown report format: {fmt!r}")
        lines = [
            json.dumps(rec, sort_keys=True, separators=(",", ":"))
            for rec in self.to_records()
        ]
        return ("\n".join(lines) + "\n").encode("utf-8")
