"""Shared fixtures and independent reference models.

The oracles here deliberately know nothing about the implementation:
the scanner oracle is a literal sliding window, the snapshot oracle is
a two-variable recurrence over one page's history, and the W^X checker
inspects raw PTE and TLB state.  Tests compare engine output against
these instead of trusting the engine's own bookkeeping.
"""

from __future__ import annotations

import random

from jitscan.mmu import Machine

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
            if not pte.present:
                continue
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
