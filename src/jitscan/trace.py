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

Lines are read one at a time from the text; no list of them is built.
A canonical line (the upper-case op, then its fields in ``_GRAMMAR``
order, one space apart, MMAP's optional ``at`` there or not and its
optional ``content`` there or not, before or after ``at``, and nothing
else on the line but a ``\r``) whose values are well formed and whose
pid exists is read with one regex match.  The three access ops share
one alternative of ``_LINE``, whose six groups (op, pid, tid, cpu, addr,
an optional bytes) one ``groups()`` call reads; the match is taken only
if bytes are there exactly when the op is WRITE.  A line that misses
that alternative and starts with PROC, MMAP, MPROTECT or TICK tries one
``fullmatch`` of its op's own pattern in ``_SETUP``.  An MMAP line's
image is cut out first with str methods and read by one hex decode, so
the pattern reads only the short fields and an image costs about one
hex decode.  Every other line goes through the token loop, which is the
one source of error text: a fast-path candidate it cannot take falls to
the loop unmodified, and both paths end in ``done()``'s whole-line
checks.

Every hex field, on every path, is read by ``binascii.unhexlify``, the
C decoder with the least overhead per call.  It takes exactly hex
digits in pairs and refuses whitespace, which the loop splits at, so a
token it reads is one token to the loop as well; its refusal, a
``binascii.Error``, is a ValueError.  The fast paths read op codes from
a table and ids (pid, tid, cpu, uid, pages, start, at, n) from one
plain dict per parse, text -> value, because CPython specialises a
subscript only on an exact dict.

An event is an exact tuple: its op code (``READ`` ... ``TICK``), its
line number, then its fields in ``_GRAMMAR`` order, for example
``(READ, line_no, pid, tid, cpu, addr)``, or ``(WRITE, ..., addr,
data)``.  It holds only ints, strs, bytes and None, so the cyclic GC
stops tracking it at its first collection, and a replay's collections
do not walk the parsed trace.  A READ and a FETCH with equal fields
differ by their op code.
"""

from __future__ import annotations

import re
from binascii import unhexlify

from .mmu import _PERMS, DEFAULT_PAGE_SIZE, FETCH, READ, WRITE, check_page_size


class TraceError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


# op codes, item 0 of every event: the three access ops are mmu's access kinds
PROC, MMAP, MPROTECT, TICK = range(3, 7)


_HEX_DIGITS = "0123456789abcdefABCDEF"
_INTEGER = frozenset({"pid", "int", "int?"})
_OPTIONAL = frozenset({"int?", "hex?"})

# op -> (op code, its fields in event order as (key, kind, minimum));
# kinds: "pid" (an int naming a created pid), "int", "perms", "hex", and
# "int?" / "hex?", which are None when the field is absent
_ACCESS = (("pid", "pid", 1), ("tid", "int", 0), ("cpu", "int", 0), ("addr", "int", 0))
_GRAMMAR: dict[str, tuple[int, tuple[tuple[str, str, int], ...]]] = {
    "PROC": (PROC, (("uid", "int", 0),)),
    "MMAP": (MMAP, (
        ("pid", "pid", 1), ("perms", "perms", 0), ("pages", "int", 1),
        ("content", "hex?", 0), ("at", "int?", 0),
    )),
    "MPROTECT": (MPROTECT, (
        ("pid", "pid", 1), ("start", "int", 0), ("pages", "int", 1), ("perms", "perms", 0),
    )),
    "WRITE": (WRITE, _ACCESS + (("bytes", "hex", 0),)),
    "FETCH": (FETCH, _ACCESS),
    "READ": (READ, _ACCESS),
    "TICK": (TICK, (("n", "int", 1),)),
}


# Canonical READ/FETCH/WRITE lines, nearly every line of a trace, take
# one regex match instead of the token loop: the upper-case op, then the
# _ACCESS fields in order as key=value, one space apart, then WRITE's
# bytes, and nothing else on the line but a \r (no comment).  An integer
# is 0x and hex digits or ASCII decimal digits ([0-9], not \d, which
# matches ١٢); bytes are hex digits, and unhexlify refuses an odd
# count.  The three ops share one alternative, so a match has six groups:
# op, pid, tid, cpu, addr and the bytes, which are optional in the
# pattern; any other line is ``.*``, all six None.
_FAST_OPS = ("READ", "FETCH", "WRITE")
_FAST_CODES = {op: _GRAMMAR[op][0] for op in _FAST_OPS}  # op -> its op code
_INT_RE = "(0x[0-9a-fA-F]+|[0-9]+)"


def _fast_pattern() -> str:
    ints = "".join(f" {key}={_INT_RE}" for key, _, _ in _ACCESS)
    key, _, _ = _GRAMMAR["WRITE"][1][-1]  # bytes, hex
    return rf"({'|'.join(_FAST_OPS)}){ints}(?: {key}=([0-9a-fA-F]+))?\r?"


_LINE = re.compile(f"^(?:{_fast_pattern()}|.*)$", re.M)

# Canonical PROC, MMAP, MPROTECT and TICK lines, which miss _LINE's access
# alternative, take one fullmatch of their op's own pattern instead: its
# fields in _GRAMMAR order, an optional field's " key=value" either there
# or not, then a \r at most.  Perms are [rwx]+ and must be in _PERMS; a
# value the pattern lets through and the grammar refuses (rr, pages=0, a
# pid not created yet) sends the line to the loop.  MMAP's image, nearly
# all of a JIT trace's bytes, is not in its pattern: _cut_image takes it
# out of the line first.  The patterns are compiled here, at import, so
# that no parse pays for their compiles.
_IMAGE = " content="


def _setup_pattern(op: str) -> re.Pattern:
    fields = ""
    for key, kind, _ in _GRAMMAR[op][1]:
        if kind == "hex?":  # MMAP's content, cut out before the match
            continue
        field = f" {key}={'([rwx]+)' if kind == 'perms' else _INT_RE}"
        fields += f"(?:{field})?" if kind in _OPTIONAL else field
    return re.compile(rf"{op}{fields}\r?")


_SETUP = {
    op: (_GRAMMAR[op][0], _setup_pattern(op)) for op in ("PROC", "MMAP", "MPROTECT", "TICK")
}


def _cut_image(line: str) -> tuple[str, bytes | None]:
    """An MMAP line without its first ``content=`` field, and that field's
    image: the line and None when it has none.

    The token runs to the next space, or to the end of the line less a
    trailing \r, which belongs to the line.  It is read by one unhexlify,
    whose ValueError where it is not exactly hex digits in pairs (a tab or
    form feed inside, say, which the loop splits at) leaves the line to
    the loop.
    """
    start = line.find(_IMAGE)
    if start < 0:
        return line, None
    stop = line.find(" ", start + len(_IMAGE))
    if stop < 0:
        stop = len(line) - line.endswith("\r")
    token = line[start + len(_IMAGE):stop]
    return line[:start] + line[stop:], unhexlify(token)


def _int(ints: dict[str, int], text: str) -> int:
    """The value of integer ``text``, read by int(text, 0) on first sight
    and kept in ``ints``: 0x hex or decimal, and a ValueError for 010 or
    5,000 digits."""
    number = ints.get(text)
    if number is None:
        number = ints[text] = int(text, 0)
    return number


def done(event: tuple, page_size: int) -> tuple:
    """The checks that need the whole event once it is read, then the event.

    ``bench/layers.py`` counts parsed event lines by calls to this name.
    """
    op, line_no = event[0], event[1]
    if op is WRITE:
        addr, data = event[5], event[6]
        if not data:
            raise TraceError("bytes must not be empty", line_no)
        if (addr % page_size) + len(data) > page_size:
            raise TraceError("write payload crosses a page boundary", line_no)
    elif op is MMAP and event[5] is not None:
        n_pages, content = event[4], event[5]
        if len(content) > n_pages * page_size:
            raise TraceError(
                f"content is {len(content)} bytes, more than"
                f" {n_pages} page(s) of {page_size}", line_no,
            )
    return event


def parse_trace(text: str, page_size: int = DEFAULT_PAGE_SIZE) -> list[tuple]:
    """Parse and validate a trace into its events; raises TraceError with the line number
    (a page size below 1 is a plain ValueError, raised before any line is read)."""
    check_page_size(page_size)
    out: list[tuple] = []
    n_pids = 0
    # pids, tids, cpus, uids and page counts repeat from line to line; an
    # exact dict, since CPython specialises a subscript only on one (a dict
    # subclass takes the generic path on every hit)
    ints: dict[str, int] = {}
    for line_no, match in enumerate(_LINE.finditer(text), start=1):
        # one groups() call reads every field, where a group() call per field
        # costs a method call each; a READ or FETCH with bytes or a WRITE
        # without them is the loop's, which names the field at fault
        op, pid, tid, cpu, addr, data = match.groups()
        if op is not None and (data is None) == (op != "WRITE"):
            try:  # a value these refuse, such as 010 or 5,000 digits, is the loop's to read
                try:
                    pid, tid, cpu = ints[pid], ints[tid], ints[cpu]
                except KeyError:
                    pid, tid, cpu = _int(ints, pid), _int(ints, tid), _int(ints, cpu)
                event = (
                    (_FAST_CODES[op], line_no, pid, tid, cpu, int(addr, 0))
                    if data is None
                    else (WRITE, line_no, pid, tid, cpu, int(addr, 0), unhexlify(data))
                )
            except ValueError:
                pass
            else:
                # every other field's least value is 0, which a match always meets
                if 0 < pid <= n_pids:
                    out.append(done(event, page_size))
                    continue
        line = match.group()
        setup = _SETUP.get(line[:line.find(" ")]) if op is None else None
        if setup is not None:
            # each op converts its own fields; None where the loop must read the line
            code, event = setup[0], None
            try:
                rest, image = _cut_image(line) if code == MMAP else (line, None)
                found = setup[1].fullmatch(rest)
                if found is None:
                    pass
                elif code == PROC:  # uid >= 0 always holds
                    event = (PROC, line_no, _int(ints, found[1]))
                elif code == MMAP:
                    pid, perms, pages, at = found.groups()
                    pid, pages = _int(ints, pid), _int(ints, pages)
                    if 0 < pid <= n_pids and perms in _PERMS and pages >= 1:
                        event = (
                            MMAP, line_no, pid, perms, pages, image,
                            None if at is None else _int(ints, at),
                        )
                elif code == MPROTECT:
                    pid, start, pages, perms = found.groups()
                    pid, pages = _int(ints, pid), _int(ints, pages)
                    if 0 < pid <= n_pids and perms in _PERMS and pages >= 1:
                        event = (MPROTECT, line_no, pid, _int(ints, start), pages, perms)
                else:  # TICK
                    ticks = _int(ints, found[1])
                    if ticks >= 1:
                        event = (TICK, line_no, ticks)
            except ValueError:
                pass
            if event is not None:
                if code == PROC:
                    n_pids += 1
                out.append(done(event, page_size))
                continue
        stripped = line.split("#", 1)[0].strip()
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
        code, spec = grammar
        args: list = [code, line_no]
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
                    args.append(unhexlify(value))
                except ValueError:
                    raise TraceError(f"{key} must be hex bytes, got {value!r}", line_no)
        if code == PROC:
            n_pids += 1
        out.append(done(tuple(args), page_size))
        if fields:
            raise TraceError(f"unknown field(s): {', '.join(sorted(fields))}", line_no)
    return out
