"""Run outcome counts and report emission.

A Report accumulates outcome counts, signature detections, and
kill/block actions while a trace replays, then serializes to a
line-delimited record stream: one record per detection, one per
action, one trailing summary.  Field names are stable and records are
emitted with sorted keys, so the same trace and config always produce
byte-identical output.

Every record ``emit`` writes, the summary included, is written by this
module's own code with the keys in sorted order, to ``encode_record``'s
bytes (the test suite compares the two): detection and action records
by one f-string template each, the summary by ``_object`` over its
fields and its outcomes.  Strings go through ``_str``, ints through
``str`` and None as ``null``.  That skips the dict each record would
build and the encoder's setup on every call, and a run never loads
``json``: ``_str`` imports ``encode_basestring_ascii``, the function the
shared encoder calls for strings, only for a string it cannot write
as it is, and ``encode_record`` imports ``json`` on its first call.
"""

from __future__ import annotations

from typing import NamedTuple

_encode = None  # the shared encoder's encode, made on encode_record's first call


def encode_record(record: dict) -> str:
    """One JSONL record: sorted keys and no spaces, so equal records encode
    to equal bytes.  One shared encoder; json.dumps with options builds a
    new one per call."""
    global _encode
    if _encode is None:
        import json

        _encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    return _encode(record)


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
        lines = [_detection_line(d) for d in self.detections]
        lines += [_action_line(a) for a in self.actions]
        summary = {"record": '"summary"', "outcomes": _object(self.outcomes), **self.metrics}
        lines.append(_object(summary))
        return ("\n".join(lines) + "\n").encode("utf-8")


def _str(s: str) -> str:
    """encode_basestring_ascii(s): printable ASCII with no '"' or '\\' as it is."""
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return f'"{s}"'
    from json.encoder import encode_basestring_ascii

    return encode_basestring_ascii(s)


def _object(fields: dict) -> str:
    """A JSON object of str keys and int or already encoded str values, keys sorted."""
    return "{" + ",".join(f"{_str(key)}:{value}" for key, value in sorted(fields.items())) + "}"


# encode_record's bytes for one record of each type, by template (see the
# module docstring); a field added to the record type needs its key here too
def _detection_line(d: Detection) -> str:
    return (
        f'{{"action":{_str(d.action)},"family":{_str(d.family)},"offset":{d.offset},'
        f'"path":{_str(d.path)},"pid":{d.pid},"record":"detection","rule":{_str(d.rule)},'
        f'"severity":{_str(d.severity)},"uid":{d.uid},"vaddr":{d.vaddr},"vpage":{d.vpage}}}'
    )


def _action_line(a: ActionTaken) -> str:
    rule = "null" if a.rule is None else _str(a.rule)
    path = "null" if a.path is None else _str(a.path)
    return (
        f'{{"action":{_str(a.action)},"cause":{_str(a.cause)},"path":{path},"pid":{a.pid},'
        f'"record":"action","rule":{rule},"uid":{a.uid}}}'
    )
