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
from typing import NamedTuple


# One JSONL record: sorted keys and no spaces, so equal records encode to
# equal bytes.  One shared encoder; json.dumps with options builds a new one per call.
encode_record = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class Detection(NamedTuple):
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


class ActionTaken(NamedTuple):
    pid: int
    uid: int
    action: str  # "kill" | "block"
    cause: str  # "signature" | "throttle"
    rule: str | None = None
    path: str | None = None


class Report:
    __slots__ = ("outcomes", "detections", "actions", "metrics")

    def __init__(self):
        self.outcomes: dict[str, int] = {}  # event result -> count
        self.detections: list[Detection] = []
        self.actions: list[ActionTaken] = []
        self.metrics: dict[str, int] = {}

    @property
    def any_kill_detection(self) -> bool:
        return any(d.severity == "kill" for d in self.detections)

    def emit(self, fmt: str = "jsonl") -> bytes:
        if fmt != "jsonl":
            raise ValueError(f"unknown report format: {fmt!r}")
        records = [{"record": "detection", **d._asdict()} for d in self.detections]
        records += [{"record": "action", **a._asdict()} for a in self.actions]
        records.append({"record": "summary", "outcomes": self.outcomes, **self.metrics})
        return ("\n".join(map(encode_record, records)) + "\n").encode("utf-8")
