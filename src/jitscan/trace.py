"""The replayable trace language.

Text, one event per line, ``#`` starts a comment.  Fields are
``key=value`` tokens; integers accept decimal or 0x-prefixed hex.

    PROC uid=1000
    MMAP pid=1 perms=wx pages=4 [content=<hex>] [at=<vpage>]
    MPROTECT pid=1 start=<vpage> pages=<n> perms=rx
    WRITE pid=1 tid=1 cpu=0 addr=0x10000 bytes=<hex>
    FETCH pid=1 tid=1 cpu=0 addr=0x10000
    READ  pid=1 tid=1 cpu=0 addr=0x10000
    TICK n=50

PROC assigns pids sequentially from 1 in trace order, so later lines
can name them.  MMAP without ``at=`` places the area at the next free
vpage (deterministic bump allocation).  Every event advances the
logical clock by one tick except TICK, which advances by exactly n.
A WRITE payload must stay inside one page.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


class TraceError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class ProcEvent:
    uid: int


@dataclass(frozen=True)
class MmapEvent:
    pid: int
    perms: str
    n_pages: int
    content: bytes | None = None
    at: int | None = None


@dataclass(frozen=True)
class MprotectEvent:
    pid: int
    start_vpage: int
    n_pages: int
    perms: str


@dataclass(frozen=True)
class WriteEvent:
    pid: int
    tid: int
    cpu: int
    addr: int
    data: bytes


@dataclass(frozen=True)
class FetchEvent:
    pid: int
    tid: int
    cpu: int
    addr: int


@dataclass(frozen=True)
class ReadEvent:
    pid: int
    tid: int
    cpu: int
    addr: int


@dataclass(frozen=True)
class TickEvent:
    n: int


TraceEvent = (
    ProcEvent | MmapEvent | MprotectEvent | WriteEvent | FetchEvent | ReadEvent | TickEvent
)


@dataclass(frozen=True)
class TraceLine:
    line_no: int
    text: str
    event: TraceEvent


_PERMS = re.compile(r"[rwx]+$")


def _fields(tokens: list[str], line_no: int) -> dict[str, str]:
    out: dict[str, str] = {}
    for tok in tokens:
        if "=" not in tok:
            raise TraceError(f"expected key=value, got {tok!r}", line_no)
        key, _, value = tok.partition("=")
        if key in out:
            raise TraceError(f"duplicate field {key!r}", line_no)
        out[key] = value
    return out


class _Line:
    def __init__(self, line_no: int, fields: dict[str, str]):
        self.line_no = line_no
        self.fields = fields
        self.used: set[str] = set()

    def int_(self, key: str, minimum: int | None = None) -> int:
        raw = self.str_(key)
        try:
            value = int(raw, 0)
        except ValueError:
            raise TraceError(f"{key} must be an integer, got {raw!r}", self.line_no)
        if minimum is not None and value < minimum:
            raise TraceError(f"{key} must be >= {minimum}, got {value}", self.line_no)
        return value

    def str_(self, key: str) -> str:
        if key not in self.fields:
            raise TraceError(f"missing field {key}=", self.line_no)
        self.used.add(key)
        return self.fields[key]

    def opt_int(self, key: str, minimum: int | None = None) -> int | None:
        return self.int_(key, minimum) if key in self.fields else None

    def perms(self, key: str = "perms") -> str:
        raw = self.str_(key)
        if not _PERMS.match(raw) or len(set(raw)) != len(raw):
            raise TraceError(f"bad perms {raw!r} (subset of rwx)", self.line_no)
        return raw

    def hex_(self, key: str) -> bytes:
        raw = self.str_(key)
        try:
            return bytes.fromhex(raw)
        except ValueError:
            raise TraceError(f"{key} must be hex bytes, got {raw!r}", self.line_no)

    def opt_hex(self, key: str) -> bytes | None:
        return self.hex_(key) if key in self.fields else None

    def done(self) -> None:
        extra = set(self.fields) - self.used
        if extra:
            raise TraceError(f"unknown field(s): {', '.join(sorted(extra))}", self.line_no)


def parse_trace(text: str, page_size: int = 4096) -> list[TraceLine]:
    """Parse and validate a trace; raises TraceError with the line number."""
    out: list[TraceLine] = []
    n_pids = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        tokens = stripped.split()
        op, rest = tokens[0].upper(), tokens[1:]
        line = _Line(line_no, _fields(rest, line_no))

        def need_pid() -> int:
            pid = line.int_("pid", minimum=1)
            if pid > n_pids:
                raise TraceError(f"pid {pid} not created yet", line_no)
            return pid

        if op == "PROC":
            event: TraceEvent = ProcEvent(uid=line.int_("uid", minimum=0))
            n_pids += 1
        elif op == "MMAP":
            event = MmapEvent(
                pid=need_pid(),
                perms=line.perms(),
                n_pages=line.int_("pages", minimum=1),
                content=line.opt_hex("content"),
                at=line.opt_int("at", minimum=0),
            )
            size = event.n_pages * page_size
            if event.content is not None and len(event.content) > size:
                raise TraceError(
                    f"content is {len(event.content)} bytes, more than"
                    f" {event.n_pages} page(s) of {page_size}", line_no,
                )
        elif op == "MPROTECT":
            event = MprotectEvent(
                pid=need_pid(),
                start_vpage=line.int_("start", minimum=0),
                n_pages=line.int_("pages", minimum=1),
                perms=line.perms(),
            )
        elif op == "WRITE":
            event = WriteEvent(
                pid=need_pid(),
                tid=line.int_("tid", minimum=0),
                cpu=line.int_("cpu", minimum=0),
                addr=line.int_("addr", minimum=0),
                data=line.hex_("bytes"),
            )
            if not event.data:
                raise TraceError("bytes must not be empty", line_no)
            if (event.addr % page_size) + len(event.data) > page_size:
                raise TraceError("write payload crosses a page boundary", line_no)
        elif op == "FETCH":
            event = FetchEvent(
                pid=need_pid(),
                tid=line.int_("tid", minimum=0),
                cpu=line.int_("cpu", minimum=0),
                addr=line.int_("addr", minimum=0),
            )
        elif op == "READ":
            event = ReadEvent(
                pid=need_pid(),
                tid=line.int_("tid", minimum=0),
                cpu=line.int_("cpu", minimum=0),
                addr=line.int_("addr", minimum=0),
            )
        elif op == "TICK":
            event = TickEvent(n=line.int_("n", minimum=1))
        else:
            raise TraceError(f"unknown event {tokens[0]!r}", line_no)
        line.done()
        out.append(TraceLine(line_no, stripped, event))
    return out
