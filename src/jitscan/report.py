"""Run outcome counts and report emission.

A Report accumulates outcome counts, signature detections, and
kill/block actions while a trace replays, then serializes to a
line-delimited record stream: one record per detection, one per
action, one trailing summary.  Field names are stable and records are
emitted with sorted keys, so the same trace and config always produce
byte-identical output.

Every record the package writes is written here: ``emit``'s detection,
action and summary records for ``jitscan run``, and ``scan_lines``'
match and summary records for ``jitscan scan``.  Each has its keys in
sorted order and equals ``json.dumps(record, sort_keys=True,
separators=(",", ":"))`` of the same record, which the test suite
checks against its own ``json.dumps`` oracle.  Detection, action and
match records are written by one f-string template each, the summaries
by ``_object`` or a template.  Strings go through ``_str``, ints through
``str`` and None as ``null``.  That skips the dict each record would
build, and no command loads ``json``: ``_str`` imports
``encode_basestring_ascii``, the function ``json.dumps`` calls for
strings, only for a string it cannot write as it is.
"""

from __future__ import annotations

from typing import NamedTuple

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


# json.dumps's bytes for one record of each type, by template (see the
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


def _match_line(rule, offset: int) -> str:
    return (
        f'{{"family":{_str(rule.family)},"offset":{offset},"record":"match",'
        f'"rule":{_str(rule.name)},"severity":{_str(rule.severity)}}}'
    )


def scan_lines(matches: list, by_name: dict) -> list[str]:
    """`jitscan scan`'s records: one per ``scan_page`` match, its rule looked
    up in ``by_name`` (a RuleSet's), then the summary."""
    lines = [_match_line(by_name[m.rule], m.offset) for m in matches]
    return lines + [f'{{"matches":{len(matches)},"record":"summary"}}']
