"""Trace language parsing and validation."""

from __future__ import annotations

import gc
import random
import tracemalloc

import pytest

import jitscan.trace as trace_module
from jitscan.trace import (
    FETCH,
    MMAP,
    MPROTECT,
    PROC,
    READ,
    TICK,
    WRITE,
    TraceError,
    _LINE,
    _SETUP,
    _cut_image,
    parse_trace,
)

from conftest import random_benign_trace, reference_parse_trace

GOOD = """\
# two processes, one shared uid
PROC uid=1000
PROC uid=1000
MMAP pid=1 perms=wx pages=2 at=16 content=90c3
MPROTECT pid=1 start=16 pages=1 perms=rx
WRITE pid=2 tid=3 cpu=1 addr=0x10010 bytes=deadbeef
FETCH pid=1 tid=1 cpu=0 addr=65536
READ pid=1 tid=1 cpu=0 addr=65536   # trailing comment
TICK n=50
"""


def test_parses_every_event_kind():
    events = parse_trace(GOOD)
    assert [event[0] for event in events] == [PROC, PROC, MMAP, MPROTECT, WRITE, FETCH, READ, TICK]
    # (op, line, pid, perms, pages, content, at)
    assert events[2] == (MMAP, 4, 1, "wx", 2, b"\x90\xc3", 16)
    # (op, line, pid, tid, cpu, addr, data)
    assert events[4] == (WRITE, 6, 2, 3, 1, 0x10010, b"\xde\xad\xbe\xef")
    assert events[7] == (TICK, 9, 50)


def test_line_numbers_point_at_source_lines():
    events = parse_trace(GOOD)
    assert events[0][1] == 2  # header comment is line 1
    assert events[-1][1] == 9


def test_hex_and_decimal_integers_both_work():
    events = parse_trace("PROC uid=0\nMMAP pid=1 perms=r pages=1 at=0x20\n")
    assert events[1] == (MMAP, 2, 1, "r", 1, None, 32)


@pytest.mark.parametrize(
    "text,value",
    [("0", 0), ("00", 0), ("010", 10), ("0x10", 16), ("0xfF", 255), ("0x000", 0),
     ("99999999999999999999", 99999999999999999999)],
)
def test_integer_grammar_accepts_ascii_decimal_and_0x_hex(text, value):
    # leading zeros stay decimal: 010 is ten, never octal eight
    assert parse_trace(f"PROC uid={text}")[0] == (PROC, 1, value)


@pytest.mark.parametrize(
    "text",
    ["0b11", "0o2", "1_000", "+7", "-1", "١٢", "²", "0X10", "0x", "0x_1", "1e3", "9" * 5000],
)
def test_integer_grammar_rejects_other_forms(text):
    with pytest.raises(TraceError) as err:
        parse_trace(f"PROC uid={text}")
    assert str(err.value) == f"line 1: uid must be an integer, got {text!r}"


@pytest.mark.parametrize(
    "brk", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\r"],
)
def test_line_breaks_other_than_newline_keep_line_numbers(brk):
    text = f"PROC uid=1 # build{brk}stamp\nMMAP pid=7 perms=rw pages=1\n"
    with pytest.raises(TraceError) as err:
        parse_trace(text)
    assert str(err.value) == "line 2: pid 7 not created yet"
    assert parse_trace(f"PROC{brk}uid=1\r\n# a{brk}b\r\nTICK n=2\r\n") == [
        (PROC, 1, 1), (TICK, 3, 2),
    ]


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("BOOM uid=1", "unknown event"),
        ("PROC", "missing field uid="),
        ("PROC uid=zero", "must be an integer"),
        ("PROC uid=1 uid=2", "duplicate field"),
        ("PROC uid=1 extra=9", "unknown field"),
        ("MMAP pid=1 perms=rw pages=1", "not created yet"),
        ("PROC uid=1\nMMAP pid=1 perms=q pages=1", "bad perms"),
        ("PROC uid=1\nMMAP pid=1 perms=rr pages=1", "bad perms"),
        ("PROC uid=1\nMMAP pid=1 perms=rw pages=0", "must be >= 1"),
        ("PROC uid=1\nWRITE pid=1 tid=1 cpu=0 addr=0 bytes=xyz", "hex bytes"),
        ("PROC uid=1\nWRITE pid=1 tid=1 cpu=0 addr=0 bytes=", "must not be empty"),
        ("PROC uid=1\nWRITE pid=1 tid=1 cpu=0 addr=4090 bytes=aabbccddeeff00", "page boundary"),
        ("TICK n=0", "must be >= 1"),
        ("PROC uid=1\nFETCH pid=2 tid=1 cpu=0 addr=0", "not created yet"),
    ],
)
def test_malformed_lines_rejected_with_line_number(text, fragment):
    with pytest.raises(TraceError) as err:
        parse_trace(text)
    assert fragment in str(err.value)
    assert str(err.value).startswith("line ")


def test_error_line_number_is_accurate():
    with pytest.raises(TraceError) as err:
        parse_trace("PROC uid=1\n# fine\nMMAP pid=7 perms=rw pages=1\n")
    assert err.value.line == 3


def test_write_bounds_respect_configured_page_size():
    text = "PROC uid=1\nWRITE pid=1 tid=1 cpu=0 addr=60 bytes=aabbccddee\n"
    parse_trace(text, page_size=4096)
    with pytest.raises(TraceError):
        parse_trace(text, page_size=64)


def test_mmap_content_longer_than_the_area_is_rejected():
    text = "PROC uid=1\nMMAP pid=1 perms=rx pages=1 content={}\n"
    parse_trace(text.format("c3" * 64), page_size=64)  # exactly one page fits
    with pytest.raises(TraceError) as err:
        parse_trace(text.format("c3" * 65), page_size=64)
    assert err.value.line == 2
    assert "content is 65 bytes" in str(err.value)


def test_parse_is_deterministic():
    assert parse_trace(GOOD) == parse_trace(GOOD)


def test_events_are_exact_tuples():
    events = parse_trace(GOOD)
    assert {event[0] for event in events} == {PROC, MMAP, MPROTECT, WRITE, FETCH, READ, TICK}
    assert all(type(event) is tuple for event in events)


def test_the_gc_stops_tracking_parsed_events():
    # ints, strs, bytes and None only: a collection untracks each event,
    # so later collections in the replay do not walk the trace
    events = parse_trace(GOOD + "read pid=1 tid=1 cpu=0 addr=0 # the token loop's\n")
    gc.collect()
    assert [event for event in events if gc.is_tracked(event)] == []


def test_a_read_and_a_fetch_with_equal_fields_differ_by_op_code():
    head = "PROC uid=1\n"
    read = parse_trace(head + "READ pid=1 tid=1 cpu=0 addr=64\n")[1]
    fetch = parse_trace(head + "FETCH pid=1 tid=1 cpu=0 addr=64\n")[1]
    assert read[1:] == fetch[1:] and (read[0], fetch[0]) == (READ, FETCH)
    assert read != fetch and not read == fetch
    assert len({read, fetch}) == 2
    # the token loop builds the same event as the regex path
    assert parse_trace(head + "read addr=64 cpu=0 tid=1 pid=1\n")[1] == read


def test_parsing_streams_lines_instead_of_splitting_the_text():
    ops = ["READ pid=1 tid=1 cpu=0 addr={:#x}", "WRITE pid=1 tid=2 cpu=1 addr={} bytes=c3",
           "FETCH pid=1 tid=1 cpu=0 addr={}  # slow path", "# a comment {}"]
    text = "PROC uid=1\n" + "\n".join(ops[i % 4].format(i * 8) for i in range(20_000))
    tracemalloc.start()
    try:
        lines = parse_trace(text)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(lines) == 15_001
    # a list of the 20,000 line strings alone would hold more than 1 MiB
    assert peak - retained < 128 * 1024


def test_crlf_access_lines_take_the_regex_path():
    # groups: op, pid, tid, cpu, addr, bytes; a line off the fast path has only Nones
    assert _LINE.match("READ pid=1 tid=1 cpu=0 addr=0\r\n").groups() == (
        "READ", "1", "1", "0", "0", None,
    )
    assert _LINE.match("WRITE pid=1 tid=2 cpu=3 addr=0x10 bytes=c3\r\n").groups() == (
        "WRITE", "1", "2", "3", "0x10", "c3",
    )


@pytest.mark.parametrize(
    "line,groups",
    [
        ("PROC uid=1000", ("1000",)),
        ("MMAP pid=1 perms=wx pages=0x2", ("1", "wx", "0x2", None)),
        ("MMAP pid=1 perms=rx pages=1 content=90c3 at=16", ("1", "rx", "1", "16")),
        ("MMAP pid=1 perms=r pages=1 at=0x20", ("1", "r", "1", "0x20")),
        ("MPROTECT pid=1 start=16 pages=1 perms=rx", ("1", "16", "1", "rx")),
        ("TICK n=50", ("50",)),
        ("MMAP pid=1 perms=wx pages=2 at=16 content=90c3", ("1", "wx", "2", "16")),
        ("MMAP pid=1 perms=rwx pages=1 at=0x10 content=", ("1", "rwx", "1", "0x10")),
        ("MMAP pid=1 perms=rx pages=1 content=90C3aB at=16", ("1", "rx", "1", "16")),
    ],
)
def test_crlf_setup_lines_take_their_ops_pattern(line, groups):
    # such a line misses _LINE's access alternative; MMAP's image is cut out,
    # and the rest fullmatches its op's own pattern, with a \r or without
    assert _LINE.match(line + "\r\n").groups() == (None,) * 6
    code, pattern = _SETUP[line.split()[0]]
    head = "PROC uid=1\n" if line.startswith("M") else ""
    events = parse_trace(head + line + "\r\n")
    assert events == parse_trace(head + line + "\n") == reference_parse_trace(head + line + "\n")
    assert events[-1][0] == code
    for end in ("\r", ""):
        rest, image = _cut_image(line + end)
        assert pattern.fullmatch(rest).groups() == groups
        assert image == (events[-1][5] if code == MMAP else None)


@pytest.mark.parametrize(
    "token",
    ["90\tc3", "90c3\r", "90c3\x0b", "90\x0cc3", "90\x1cc3", "90\xa0c3", "90\u2028c3",
     "0x90", "90c", "９０"],
)
def test_an_image_token_that_is_not_exactly_hex_is_the_loops(token):
    # unhexlify refuses whitespace (bytes.fromhex would skip the ASCII kinds)
    # and non-hex or non-ASCII characters; the loop splits at the whitespace
    # (str.split's, which includes \x1c, \xa0 and \u2028) or refuses the value
    with pytest.raises(ValueError):
        _cut_image(f"MMAP pid=1 perms=rx pages=1 content={token} at=16")
    text = f"PROC uid=1\nMMAP pid=1 perms=rx pages=1 content={token} at=16\n"
    assert _outcome(parse_trace, text, 4096) == _outcome(reference_parse_trace, text, 4096)


@pytest.mark.parametrize("seed", range(3))
def test_crlf_trace_parses_as_its_lf_form(seed):
    lf = random_benign_trace(random.Random(seed))
    crlf = lf.replace("\n", "\r\n")
    fast = [m.groups() for m in _LINE.finditer(lf)]
    assert [m.groups() for m in _LINE.finditer(crlf)] == fast
    ops = [groups[0] for groups in fast]
    assert ops.count(None) < len(ops) // 2  # most lines are canonical access lines
    assert parse_trace(crlf) == parse_trace(lf)


def test_done_runs_once_per_event_line(monkeypatch):
    """The bench counts parsed event lines by calls to ``done``, so every
    line that yields an event passes through it, on any path."""
    calls = []
    real_done = trace_module.done

    def counting_done(event, *args):
        calls.append(event[1])
        return real_done(event, *args)

    monkeypatch.setattr(trace_module, "done", counting_done)
    text = (
        "# a comment\r\n"
        "PROC uid=1000\r\n"
        "\n"
        "MMAP pid=1 perms=rw pages=2 at=16\n"
        "READ pid=1 tid=1 cpu=0 addr=0x10000\r\n"
        "WRITE pid=1 tid=1 cpu=0 addr=0x10008 bytes=c3c3\n"
        "   \n"
        "FETCH pid=1 tid=010 cpu=0 addr=65536\n"  # int(value, 0) refuses 010
        "read pid=1 tid=1 cpu=0 addr=0x10000 # lower case\n"
        "READ  pid=1 tid=1 cpu=0 addr=0x10000\r\n"
        "TICK n=5\n"
        "MPROTECT pid=1 start=16 pages=1 perms=r\r\n"
        + "PROC uid=7\n" * 9
        + "MMAP pid=010 perms=rx pages=1\r\n"  # the loop's: it reads 010 as ten
        "TICK n=0x2\r\n"
    )
    events = parse_trace(text)
    assert [event[1] for event in events] == [2, 4, 5, 6, 8, 9, 10, 11, 12, *range(13, 24)]
    assert events[4] == (FETCH, 8, 1, 10, 0, 65536)
    assert events[8] == (MPROTECT, 12, 1, 16, 1, "r")
    assert events[-2:] == [(MMAP, 22, 10, "rx", 1, None, None), (TICK, 23, 2)]
    assert calls == [event[1] for event in events]


# --- the table-driven parser against the reference parser in conftest ---

_OPS = ("PROC", "MMAP", "MPROTECT", "WRITE", "FETCH", "READ", "TICK")
_BAD_INTS = (
    "zero", "-1", "+7", "0b11", "0o2", "1_000", "١٢", "²", "0x", "0X1f",
    "0xg", "0x_1", "", "1e3", "99999999999999999999", "9" * 5000, "010", "00", "0x00ff",
)
_BAD_HEX = ("xyz", "abc", "", "0x00", "C3", "zz", "c3c")
_BAD_PERMS = ("q", "rr", "", "RW", "xwr", "rwxr", "wxw")
# characters str.splitlines() treats as line ends; only "\n" ends a trace line
_BREAKS = ("\f", "\v", "\r", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


def _int_text(rng: random.Random, value: int) -> str:
    form = rng.random()
    if form < 0.6:
        return str(value)
    if form < 0.8:
        return f"{value:#x}"
    if form < 0.9:
        return f"0x{value:X}"
    return f"00{value}"  # leading zeros, still decimal


def _fields(rng: random.Random, op: str, n_pids: int, ps: int) -> list[list[str]]:
    """Fields of a valid line, except for a pid not created yet now and then."""
    pid = ["pid", _int_text(rng, rng.randint(1, n_pids + (rng.random() < 0.05) or 1))]
    perms = ["perms", "".join(rng.sample("rwx", rng.randint(1, 3)))]
    if op == "PROC":
        return [["uid", _int_text(rng, rng.choice([0, 1, 1000, rng.randrange(1 << 20)]))]]
    if op == "MMAP":
        pages = rng.randint(1, 2)
        fields = [pid, perms, ["pages", _int_text(rng, pages)]]
        if rng.random() < 0.5:
            size = rng.choice([1, 3, pages * ps, pages * ps + 1])
            fields.append(["content", bytes(rng.randrange(256) for _ in range(size)).hex()])
        if rng.random() < 0.5:
            fields.append(["at", _int_text(rng, rng.randrange(64))])
        return fields
    if op == "MPROTECT":
        return [pid, ["start", _int_text(rng, rng.randrange(64))],
                ["pages", _int_text(rng, rng.randint(1, 4))], perms]
    if op == "TICK":
        return [["n", _int_text(rng, rng.randint(1, 100))]]
    size = rng.randint(1, 8)
    offset = rng.choice([0, rng.randrange(ps), ps - size, ps - size + 1])
    fields = [pid, ["tid", _int_text(rng, rng.randrange(4))],
              ["cpu", _int_text(rng, rng.randrange(4))],
              ["addr", _int_text(rng, rng.randrange(8) * ps + offset)]]
    if op == "WRITE":
        fields.append(["bytes", bytes(rng.randrange(256) for _ in range(size)).hex()])
    return fields


def _mutate(rng: random.Random, fields: list[list[str]]) -> None:
    """One defect: a field dropped, doubled, unknown, keyless or badly valued."""
    kind = rng.randrange(8)
    if kind == 0 and fields:
        fields.pop(rng.randrange(len(fields)))
    elif kind == 1 and fields:
        key, value = rng.choice(fields)
        fields.insert(rng.randrange(len(fields) + 1), [key, rng.choice([value, "1"])])
    elif kind == 2:
        fields.append(rng.choice(
            [["foo", "1"], ["extra", ""], ["PID", "1"], ["", "5"], ["content", "c3"]]
        ))
    elif kind == 3:
        fields.insert(rng.randrange(len(fields) + 1), [rng.choice(["pid", "x", "42", "="])])
    elif fields:
        field = rng.choice(fields)
        if field[0] in ("bytes", "content"):
            field[1] = rng.choice(_BAD_HEX)
        elif field[0] == "perms":
            field[1] = rng.choice(_BAD_PERMS)
        else:
            field[1] = rng.choice(_BAD_INTS + ("0",))


# values a canonical access line may carry that only the token loop reads
# (010, a 5,000-digit decimal) or that must be refused as the loop refuses them,
# and payloads in mixed case, which both read, or with a form feed inside
_FAST_EDGE_INTS = ("0X1f", "١٢", "9" * 5000, "0", "010", "0x0", "²", "0x")
_FAST_EDGE_HEX = ("", "abc", "c3c", "0xc3", "C3", "c3 ", "c3Ab9F", "c3\x0cc3")


def _canonical_access(rng: random.Random, n_pids: int, ps: int) -> str:
    """A READ/FETCH/WRITE line in the parser's fast-path shape: the upper-case
    op, then every field in grammar order, one space apart.  Now and then a
    field takes an edge value, or the pid 0 or one not created yet, and now and
    then a READ or FETCH ends with bytes or a WRITE lacks them; ``_fields``
    already ends some WRITEs one byte past the page."""
    op = rng.choice(("READ", "FETCH", "WRITE"))
    fields = _fields(rng, op, n_pids, ps)
    if rng.random() < 0.1:
        field = rng.choice(fields)
        if field[0] == "bytes":
            field[1] = rng.choice(_FAST_EDGE_HEX)
        elif field[0] == "pid" and rng.random() < 0.5:
            field[1] = rng.choice([str(n_pids + 1), "0"])
        else:
            field[1] = rng.choice(_FAST_EDGE_INTS)
    if rng.random() < 0.05:  # bytes where the grammar has none, or none where it needs them
        if op == "WRITE":
            fields.pop()
        else:
            fields.append(["bytes", rng.choice(["c3", "90c3", "00"])])
    return " ".join([op] + ["=".join(field) for field in fields])


# values a canonical setup line may carry that only the token loop reads, or
# that it refuses: 010 (ten), 5,000 digits, pid 0, rr, pages=0, odd or 0x hex
_SETUP_EDGE_INTS = ("010", "9" * 5000, "0X1f", "١٢", "0", "0x0", "00")
_SETUP_EDGE_PERMS = ("rr", "RW", "wxw", "")
_SETUP_EDGE_HEX = ("c3c", "0xc3", "C3", "abc")
# image tokens at the edge of the image cut: whitespace inside, which unhexlify
# refuses (bytes.fromhex would skip it) and the loop splits at, a \r after the
# hex, and no hex at all
_IMAGE_EDGE_HEX = ("c3\tc3", "c3c3\r", "", "c3 c3", "c3\x0b")


def _canonical_setup(rng: random.Random, n_pids: int, ps: int) -> str:
    """A PROC, MMAP, MPROTECT or TICK line in the parser's fast-path shape:
    the upper-case op, then its fields in grammar order, one space apart,
    MMAP's content and at each there or not, and now and then at before
    content, as README writes them.  Now and then a field takes an edge
    value, the pid is 0 or one not created yet, the content is longer than
    the area or repeated, or the line ends in a \\r."""
    op = rng.choice(("PROC", "MMAP", "MPROTECT", "TICK"))
    if not n_pids and rng.random() < 0.9:
        op = "PROC"
    fields = _fields(rng, op, n_pids, ps)
    if op == "MMAP" and rng.random() < 0.5:
        fields.sort(key=lambda field: field[0] == "content")  # README order
    image = next((field for field in fields if field[0] == "content"), None)
    if image is not None and rng.random() < 0.1:
        fields.insert(rng.randint(3, len(fields)), ["content", rng.choice(["c3", image[1]])])
    if image is not None and rng.random() < 0.2:
        image[1] = rng.choice(_IMAGE_EDGE_HEX)
    if rng.random() < 0.15:
        field = rng.choice(fields)
        if field[0] == "perms":
            field[1] = rng.choice(_SETUP_EDGE_PERMS)
        elif field[0] == "content":  # or more than the area's (at most 2) pages
            field[1] = rng.choice(_SETUP_EDGE_HEX + ("00" * (2 * ps + 1),))
        elif field[0] == "pid" and rng.random() < 0.5:
            field[1] = rng.choice([str(n_pids + 1), "0"])
        else:
            field[1] = rng.choice(_SETUP_EDGE_INTS)
    line = " ".join([op] + ["=".join(field) for field in fields])
    return line + "\r" if rng.random() < 0.1 else line


def _token_soup(rng: random.Random, ps: int) -> str:
    """A short trace: mostly valid lines, some with one defect, odd spacing,
    mixed-case ops, comments and line-break characters other than "\\n";
    about half the lines are canonical access lines, and about one in six a
    canonical setup line."""
    lines, n_pids = [], 0
    for _ in range(rng.randint(1, 10)):
        if rng.random() < 0.65 and (n_pids or rng.random() < 0.1):
            lines.append(_canonical_access(rng, n_pids, ps))
            continue
        if rng.random() < 0.5:
            line = _canonical_setup(rng, n_pids, ps)
            n_pids += line.startswith("PROC")
            lines.append(line)
            continue
        roll = rng.random()
        if roll < 0.08:
            lines.append(rng.choice(["", "   ", "# note", rng.choice(_BREAKS)]))
            continue
        op = "PROC" if roll < 0.2 or (not n_pids and roll < 0.9) else rng.choice(_OPS)
        fields = _fields(rng, op, n_pids, ps)
        n_pids += op == "PROC"
        if rng.random() < 0.12:
            _mutate(rng, fields)
        if rng.random() < 0.3:
            rng.shuffle(fields)
        if rng.random() < 0.2:
            op = "".join(c.lower() if rng.random() < 0.5 else c for c in op)
        if rng.random() < 0.03:
            op = rng.choice(["BOOM", "PROCS", "#PROC"])
        tokens = [op] + ["=".join(field) for field in fields]
        sep = " " if rng.random() < 0.8 else rng.choice(["\t", "  ", *_BREAKS])
        line = sep.join(tokens)
        if rng.random() < 0.15:
            line += f" # {rng.choice(['x', 'build' + rng.choice(_BREAKS) + 'stamp', 'a=b'])}"
        lines.append(line)
    return rng.choice(["\n", "\r\n"]).join(lines) + rng.choice(["", "\n"])


def _outcome(parse, text: str, ps: int):
    try:
        return parse(text, page_size=ps)
    except TraceError as err:
        return ("error", str(err), err.line)


@pytest.mark.parametrize("seed", range(6))
def test_same_result_as_the_reference_parser_on_token_soup(seed):
    rng = random.Random(seed)
    seen: set[str] = set()
    for _ in range(400):
        ps = rng.choice([64, 4096])
        text = _token_soup(rng, ps)
        got = _outcome(parse_trace, text, ps)
        assert got == _outcome(reference_parse_trace, text, ps), text
        seen.add("parsed" if isinstance(got, list) else got[1].split(": ", 1)[1][:12])
    assert len(seen) >= 12, seen  # the soup reaches the parse and most error kinds
