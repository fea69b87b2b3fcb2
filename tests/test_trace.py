"""Trace language parsing and validation."""

from __future__ import annotations

import pytest

from jitscan.trace import (
    FetchEvent,
    MmapEvent,
    MprotectEvent,
    ProcEvent,
    ReadEvent,
    TickEvent,
    TraceError,
    WriteEvent,
    parse_trace,
)

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
    lines = parse_trace(GOOD)
    kinds = [type(l.event) for l in lines]
    assert kinds == [
        ProcEvent, ProcEvent, MmapEvent, MprotectEvent,
        WriteEvent, FetchEvent, ReadEvent, TickEvent,
    ]
    mmap = lines[2].event
    assert (mmap.pid, mmap.perms, mmap.n_pages, mmap.at) == (1, "wx", 2, 16)
    assert mmap.content == b"\x90\xc3"
    write = lines[4].event
    assert (write.addr, write.data) == (0x10010, b"\xde\xad\xbe\xef")
    assert lines[7].event.n == 50


def test_line_numbers_point_at_source_lines():
    lines = parse_trace(GOOD)
    assert lines[0].line_no == 2  # header comment is line 1
    assert lines[-1].line_no == 9


def test_hex_and_decimal_integers_both_work():
    lines = parse_trace("PROC uid=0\nMMAP pid=1 perms=r pages=1 at=0x20\n")
    assert lines[1].event.at == 32


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
