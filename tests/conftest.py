"""Shared fixtures and independent reference models.

The oracles here deliberately know nothing about the implementation:
the scanner oracle is a literal sliding window, the snapshot oracle is
a two-variable recurrence over one page's history, the W^X checker
inspects raw PTE and TLB state, the guard oracle sweeps its whole uid
table on every tick, and the trace oracle reads each line through a
per-line field object with one method per field kind.  Tests compare
engine output against these instead of trusting the engine's own
bookkeeping.
"""

from __future__ import annotations

import random
import re

from jitscan.guard import Admission
from jitscan.mmu import Machine
from jitscan.trace import (
    FetchEvent,
    MmapEvent,
    MprotectEvent,
    ProcEvent,
    ReadEvent,
    TickEvent,
    TraceError,
    TraceLine,
    WriteEvent,
)

# one line per acceptance criterion, echoed after the run
ACCEPTANCE_RESULTS: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)


# distinctive bytes standing in for a real shellcode stub
SYNC_STUB = bytes.fromhex("feedc0dedeadbeefcafebabe0f05c390")

SYNC_RULES_TEXT = (
    "# in-fault-path stub check\n"
    "rule stub_shellcode family=stub severity=kill sync "
    "{ fe ed c0 de de ad be ef ca fe ba be 0f 05 c3 90 }\n"
)


def naive_scan(content: bytes, patterns: list[tuple[str, tuple[int | None, ...]]]):
    """Sliding-window scan: every (offset, name), overlapping included."""
    hits = []
    for name, atoms in patterns:
        length = len(atoms)
        for off in range(len(content) - length + 1):
            if all(a is None or content[off + i] == a for i, a in enumerate(atoms)):
                hits.append((off, name))
    return sorted(hits)


def snapshot_reference(ops: list[str]) -> list[bool]:
    """Expected snapshot emission per op for one W+X page.

    A snapshot happens on a fetch when the page has never been
    materialized, or when any write landed since the last fetch.
    """
    materialized = False
    write_since_fetch = False
    out = []
    for op in ops:
        if op == "write":
            materialized = True
            write_since_fetch = True
            out.append(False)
        else:
            out.append(not materialized or write_since_fetch)
            materialized = True
            write_since_fetch = False
    return out


class SweepGuard:
    """Reference flood guard: every tick walks the whole uid table.

    Same contract as DosGuard (admit / on_delivered / tick / pending and
    the four counters), written the slow obvious way: each entry carries
    its own penalty end and idle-since tick, and tick expires penalties
    and evicts idle entries by visiting every uid.
    """

    def __init__(self, config):
        self.config = config
        self.entries: dict[int, dict] = {}
        self.admits = self.denials = self.evictions = self.unknown_deliveries = 0

    def admit(self, uid: int, pid: int, now: int) -> Admission:
        cfg = self.config
        entry = self.entries.setdefault(
            uid, {"pending": 0, "penalized_until": None, "zero_since": now}
        )
        if entry["penalized_until"] is not None and now >= entry["penalized_until"]:
            entry["penalized_until"] = None
        if entry["penalized_until"] is not None:
            self.denials += 1
            return Admission(False, cfg.penalty_action)
        if entry["pending"] + 1 > cfg.threshold:
            entry["penalized_until"] = now + cfg.ttl_penalty
            self.denials += 1
            return Admission(False, cfg.penalty_action)
        entry["pending"] += 1
        entry["zero_since"] = None
        self.admits += 1
        return Admission(True)

    def on_delivered(self, uid: int, now: int) -> None:
        entry = self.entries.get(uid)
        if entry is None or entry["pending"] == 0:
            self.unknown_deliveries += 1
            return
        entry["pending"] -= 1
        if entry["pending"] == 0:
            entry["zero_since"] = now

    def tick(self, now: int) -> list[int]:
        evicted = []
        for uid, entry in list(self.entries.items()):
            if entry["penalized_until"] is not None and now >= entry["penalized_until"]:
                entry["penalized_until"] = None
            if (
                entry["pending"] == 0
                and entry["zero_since"] is not None
                and now - entry["zero_since"] >= self.config.ttl_evict
            ):
                del self.entries[uid]
                evicted.append(uid)
        self.evictions += len(evicted)
        return evicted

    def pending(self, uid: int) -> int:
        entry = self.entries.get(uid)
        return 0 if entry is None else entry["pending"]


_REF_PERMS = re.compile(r"[rwx]+$")
_REF_INT = re.compile(r"[0-9]+|0x[0-9a-fA-F]+")


def _ref_fields(tokens: list[str], line_no: int) -> dict[str, str]:
    out: dict[str, str] = {}
    for tok in tokens:
        if "=" not in tok:
            raise TraceError(f"expected key=value, got {tok!r}", line_no)
        key, _, value = tok.partition("=")
        if key in out:
            raise TraceError(f"duplicate field {key!r}", line_no)
        out[key] = value
    return out


class _RefLine:
    def __init__(self, line_no: int, fields: dict[str, str]):
        self.line_no = line_no
        self.fields = fields
        self.used: set[str] = set()

    def int_(self, key: str, minimum: int | None = None) -> int:
        raw = self.str_(key)
        if not _REF_INT.fullmatch(raw):
            raise TraceError(f"{key} must be an integer, got {raw!r}", self.line_no)
        try:
            value = int(raw, 16 if raw.startswith("0x") else 10)
        except ValueError:  # a decimal past the interpreter's digit limit
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
        if not _REF_PERMS.match(raw) or len(set(raw)) != len(raw):
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


def reference_parse_trace(text: str, page_size: int = 4096) -> list[TraceLine]:
    """Reference trace parser: one field object per line, one if per event.

    Lines end at "\n" only, and an integer is ASCII decimal digits or
    0x and hex digits, checked with a regex; the rest is the per-method
    parser that the table-driven ``parse_trace`` replaced.
    """
    out: list[TraceLine] = []
    n_pids = 0
    for line_no, raw in enumerate(text.split("\n"), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        tokens = stripped.split()
        op, rest = tokens[0].upper(), tokens[1:]
        line = _RefLine(line_no, _ref_fields(rest, line_no))

        def need_pid() -> int:
            pid = line.int_("pid", minimum=1)
            if pid > n_pids:
                raise TraceError(f"pid {pid} not created yet", line_no)
            return pid

        if op == "PROC":
            event = ProcEvent(uid=line.int_("uid", minimum=0))
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
        out.append(TraceLine(line_no, event))
    return out


def wx_violations(machine: Machine) -> list[tuple[int, int]]:
    """(pid, vpage) pairs where write and execute are jointly reachable.

    For each present page of a W+X area, collect every live view of its
    permission bits: the PTE itself plus any TLB entry on any CPU.  If
    one view permits writes while another permits fetches, some CPU can
    write the page while some CPU can execute it.
    """
    bad = []
    for pid, space in machine.spaces.items():
        if not space.alive:
            continue
        for vpage, pte in space.ptes.items():
            area = space.find_area(vpage)
            if area is None or not (area.logical_w and area.logical_x):
                continue
            views = [(pte.writable, pte.exec_disabled)]
            for cpu in machine.cpus.values():
                cached = cpu.tlb.get((pid, vpage))
                if cached is not None:
                    views.append(cached)
            if any(w for w, _ in views) and any(not xd for _, xd in views):
                bad.append((pid, vpage))
    return bad


def random_benign_trace(rng: random.Random, page_size: int = 4096) -> str:
    """A trace that never trips signatures or the throttle.

    Mixed-permission areas, valid and invalid addresses, occasional
    mprotect; identical behavior expected with or without the shadow
    engine.
    """
    lines = []
    n_procs = rng.randint(1, 3)
    areas: list[tuple[int, int, int]] = []  # (pid, start_vpage, n_pages)
    for _ in range(n_procs):
        lines.append(f"PROC uid={rng.randint(1, 4)}")
    for pid in range(1, n_procs + 1):
        for _ in range(rng.randint(1, 3)):
            perms = rng.choice(["r", "rw", "rx", "wx", "rwx"])
            pages = rng.randint(1, 4)
            content = bytes(rng.randrange(256) for _ in range(rng.randint(0, 2 * page_size)))
            content = content[: pages * page_size]  # no image outruns its area
            at = 16 + len(areas) * 8
            lines.append(
                f"MMAP pid={pid} perms={perms} pages={pages} at={at}"
                + (f" content={content.hex()}" if content else "")
            )
            areas.append((pid, at, pages))
    for _ in range(rng.randint(20, 120)):
        pid, start, pages = rng.choice(areas)
        vpage = start + rng.randrange(pages)
        if rng.random() < 0.05:
            vpage = start + pages + 100  # deliberately unmapped
        addr = vpage * page_size + rng.randrange(page_size)
        cpu = rng.randrange(3)
        kind = rng.random()
        if kind < 0.4:
            payload = bytes(rng.randrange(256) for _ in range(rng.randint(1, 16)))
            addr = min(addr, (vpage + 1) * page_size - len(payload))
            lines.append(f"WRITE pid={pid} tid=1 cpu={cpu} addr={addr} bytes={payload.hex()}")
        elif kind < 0.7:
            lines.append(f"FETCH pid={pid} tid=1 cpu={cpu} addr={addr}")
        elif kind < 0.9:
            lines.append(f"READ pid={pid} tid=1 cpu={cpu} addr={addr}")
        else:
            perms = rng.choice(["r", "rw", "rx", "wx"])
            span = rng.randint(1, pages)
            lines.append(
                f"MPROTECT pid={pid} start={start} pages={span} perms={perms}"
            )
    return "\n".join(lines) + "\n"
