"""The replayable trace language.

Text, one event per line, ``#`` starts a comment.  Fields are
``key=value`` tokens in any order:

    PROC uid=1000
    MMAP pid=1 perms=wx pages=4 [content=<hex>] [at=<vpage>]
    MPROTECT pid=1 start=<vpage> pages=<n> perms=rx
    WRITE pid=1 tid=1 cpu=0 addr=0x10000 bytes=<hex>
    FETCH pid=1 tid=1 cpu=0 addr=0x10000
    READ  pid=1 tid=1 cpu=0 addr=0x10000
    TICK n=50

``_GRAMMAR`` is the one place that lists each event's fields, with each
field's kind and least value.  An integer is ASCII decimal digits
(leading zeros allowed, still decimal: ``010`` is ten) or ``0x`` and
hex digits; signs, ``_``, ``0b``/``0o`` prefixes and non-ASCII digits
are rejected.  Lines end at ``\n`` only, so line numbers are the ones an
editor shows: a ``\r`` before it is stripped, and other line-break
characters (form feed, ``\u2028``, ...) are whitespace inside a line.

PROC assigns pids sequentially from 1 in trace order, so later lines
can name them.  MMAP without ``at=`` places the area at the next free
vpage (deterministic bump allocation).  Every event advances the
logical clock by one tick except TICK, which advances by exactly n.
A WRITE payload must stay inside one page.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .mmu import DEFAULT_PAGE_SIZE


class TraceError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True, slots=True)
class ProcEvent:
    uid: int


@dataclass(frozen=True, slots=True)
class MmapEvent:
    pid: int
    perms: str
    n_pages: int
    content: bytes | None = None
    at: int | None = None


@dataclass(frozen=True, slots=True)
class MprotectEvent:
    pid: int
    start_vpage: int
    n_pages: int
    perms: str


@dataclass(frozen=True, slots=True)
class WriteEvent:
    pid: int
    tid: int
    cpu: int
    addr: int
    data: bytes


@dataclass(frozen=True, slots=True)
class FetchEvent:
    pid: int
    tid: int
    cpu: int
    addr: int


@dataclass(frozen=True, slots=True)
class ReadEvent:
    pid: int
    tid: int
    cpu: int
    addr: int


@dataclass(frozen=True, slots=True)
class TickEvent:
    n: int


TraceEvent = (
    ProcEvent | MmapEvent | MprotectEvent | WriteEvent | FetchEvent | ReadEvent | TickEvent
)


@dataclass(frozen=True, slots=True)
class TraceLine:
    line_no: int
    event: TraceEvent


# every non-empty subset of rwx, each letter at most once, in any order
_PERMS = frozenset("".join(p) for n in (1, 2, 3) for p in permutations("rwx", n))
_HEX_DIGITS = "0123456789abcdefABCDEF"
_INTEGER = frozenset({"pid", "int", "int?"})
_OPTIONAL = frozenset({"int?", "hex?"})

# op -> (event class, its fields in constructor order as (key, kind, minimum));
# kinds: "pid" (an int naming a created pid), "int", "perms", "hex", and
# "int?" / "hex?", which are None when the field is absent
_ACCESS = (("pid", "pid", 1), ("tid", "int", 0), ("cpu", "int", 0), ("addr", "int", 0))
_GRAMMAR: dict[str, tuple[type, tuple[tuple[str, str, int], ...]]] = {
    "PROC": (ProcEvent, (("uid", "int", 0),)),
    "MMAP": (MmapEvent, (
        ("pid", "pid", 1), ("perms", "perms", 0), ("pages", "int", 1),
        ("content", "hex?", 0), ("at", "int?", 0),
    )),
    "MPROTECT": (MprotectEvent, (
        ("pid", "pid", 1), ("start", "int", 0), ("pages", "int", 1), ("perms", "perms", 0),
    )),
    "WRITE": (WriteEvent, _ACCESS + (("bytes", "hex", 0),)),
    "FETCH": (FetchEvent, _ACCESS),
    "READ": (ReadEvent, _ACCESS),
    "TICK": (TickEvent, (("n", "int", 1),)),
}


def done(line_no: int, event: TraceEvent, unknown: dict, page_size: int) -> TraceLine:
    """The whole-line checks once every field is read, then the line.

    ``bench/layers.py`` counts parsed event lines by calls to this name.
    """
    if type(event) is MmapEvent and event.content is not None:
        if len(event.content) > event.n_pages * page_size:
            raise TraceError(
                f"content is {len(event.content)} bytes, more than"
                f" {event.n_pages} page(s) of {page_size}", line_no,
            )
    elif type(event) is WriteEvent:
        if not event.data:
            raise TraceError("bytes must not be empty", line_no)
        if (event.addr % page_size) + len(event.data) > page_size:
            raise TraceError("write payload crosses a page boundary", line_no)
    if unknown:
        raise TraceError(f"unknown field(s): {', '.join(sorted(unknown))}", line_no)
    return TraceLine(line_no, event)


def parse_trace(text: str, page_size: int = DEFAULT_PAGE_SIZE) -> list[TraceLine]:
    """Parse and validate a trace; raises TraceError with the line number."""
    out: list[TraceLine] = []
    n_pids = 0
    for line_no, raw in enumerate(text.split("\n"), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        op, *tokens = stripped.split()
        fields: dict[str, str] = {}
        for tok in tokens:
            key, eq, value = tok.partition("=")
            if not eq:
                raise TraceError(f"expected key=value, got {tok!r}", line_no)
            if key in fields:
                raise TraceError(f"duplicate field {key!r}", line_no)
            fields[key] = value
        grammar = _GRAMMAR.get(op.upper())
        if grammar is None:
            raise TraceError(f"unknown event {op!r}", line_no)
        cls, spec = grammar
        args: list = []
        for key, kind, minimum in spec:
            value = fields.pop(key, None)
            if value is None:
                if kind not in _OPTIONAL:
                    raise TraceError(f"missing field {key}=", line_no)
                args.append(None)
            elif kind in _INTEGER:
                number = None
                try:  # int() refuses a bare 0x and a decimal past the digit limit
                    if value.isdigit() and value.isascii():
                        number = int(value)
                    elif value[:2] == "0x" and not value[2:].strip(_HEX_DIGITS):
                        number = int(value, 16)
                except ValueError:
                    pass
                if number is None:
                    raise TraceError(f"{key} must be an integer, got {value!r}", line_no)
                if number < minimum:
                    raise TraceError(f"{key} must be >= {minimum}, got {number}", line_no)
                if kind == "pid" and number > n_pids:
                    raise TraceError(f"pid {number} not created yet", line_no)
                args.append(number)
            elif kind == "perms":
                if value not in _PERMS:
                    raise TraceError(f"bad perms {value!r} (subset of rwx)", line_no)
                args.append(value)
            else:
                try:
                    args.append(bytes.fromhex(value))
                except ValueError:
                    raise TraceError(f"{key} must be hex bytes, got {value!r}", line_no)
        if cls is ProcEvent:
            n_pids += 1
        out.append(done(line_no, cls(*args), fields, page_size))
    return out
