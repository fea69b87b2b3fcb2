"""Run outcome counts and report emission.

A Report accumulates outcome counts, signature detections, and
kill/block actions while a trace replays, then serializes to a
line-delimited record stream: one record per detection, one per
action, one trailing summary.  Field names are stable and records are
emitted with sorted keys, so the same trace and config always produce
byte-identical output.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


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
    outcomes: dict[str, int] = field(default_factory=dict)  # event result -> count
    detections: list[Detection] = field(default_factory=list)
    actions: list[ActionTaken] = field(default_factory=list)
    metrics: dict[str, int] = field(default_factory=dict)

    @property
    def any_kill_detection(self) -> bool:
        return any(d.severity == "kill" for d in self.detections)

    def emit(self, fmt: str = "jsonl") -> bytes:
        if fmt != "jsonl":
            raise ValueError(f"unknown report format: {fmt!r}")
        # vars, not dataclasses.asdict: asdict deep-copies and costs ~30x more per record
        records = [{"record": "detection", **vars(d)} for d in self.detections]
        records += [{"record": "action", **vars(a)} for a in self.actions]
        records.append({"record": "summary", "outcomes": self.outcomes, **self.metrics})
        lines = [json.dumps(rec, sort_keys=True, separators=(",", ":")) for rec in records]
        return ("\n".join(lines) + "\n").encode("utf-8")
