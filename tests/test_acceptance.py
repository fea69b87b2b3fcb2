"""End-to-end acceptance checks.

Ten numbered criteria, each reduced to exact counts against an
independent reference (the oracles in conftest.py) or to exact event
arithmetic.  Every test prints one PASS/FAIL line; conftest echoes the
collected lines after the run.
"""

from __future__ import annotations

import itertools
import random
import threading
import time

from jitscan.agent import SimConfig, _apply_event, build_run, replay
from jitscan.guard import DosGuard, GuardConfig
from jitscan.mmu import AccessKind, AccessResult, SimError
from jitscan.pipeline import PageSnapshot, SnapshotTable
from jitscan.signatures import parse_rules, scan_page
from jitscan.trace import parse_trace

from conftest import (
    ACCEPTANCE_RESULTS,
    naive_scan,
    quiet_run,
    random_benign_trace,
    snapshot_reference,
    wx_violations,
)

PS = 4096
W, R, F = AccessKind.WRITE, AccessKind.READ, AccessKind.FETCH


def _criterion(n: int, ok: bool, desc: str) -> None:
    line = f"criterion {n:2d}: {'PASS' if ok else 'FAIL'}  {desc}"
    ACCEPTANCE_RESULTS.append(line)
    print(line)
    assert ok, line


def _quiet_rig():
    """Machine and pipeline of a shadow run whose guard never throttles."""
    ctx = quiet_run(page_size=PS)
    return ctx.machine, ctx.pipeline


def test_01_snapshot_events_match_the_write_fetch_oracle():
    t0 = time.monotonic()
    checked = 0
    for length in range(1, 9):
        for combo in itertools.product(("write", "fetch"), repeat=length):
            ops = list(combo)
            machine, table = _quiet_rig()
            pid = machine.create_process(uid=1)
            machine.mmap(pid, "wx", 1, at=16)
            got = []
            for op in ops:
                before = table.enqueued_total
                if op == "write":
                    assert machine.access(pid, 1, 0, 16 * PS, W, b"\x90") is AccessResult.OK
                else:
                    assert machine.access(pid, 1, 0, 16 * PS, F) is AccessResult.OK
                got.append(table.enqueued_total - before)
            expected = [int(b) for b in snapshot_reference(ops)]
            assert got == expected, ops
            checked += 1
    elapsed = time.monotonic() - t0
    _criterion(
        1,
        checked == 510 and elapsed < 5.0,
        f"all {checked} write/fetch histories of length <= 8 match the "
        f"snapshot oracle in {elapsed:.2f}s",
    )


def test_02_write_and_execute_never_jointly_reachable():
    events = 0
    violations: list[tuple[int, int]] = []
    for seed in (11, 22, 33, 44):
        rng = random.Random(seed)
        machine, table = _quiet_rig()
        areas: list[tuple[int, int, int]] = []  # (pid, start, pages)
        for _ in range(3):
            pid = machine.create_process(uid=rng.randint(1, 3))
            for perms, start, pages in (("wx", 16, 4), ("rx", 40, 2), ("rw", 56, 2)):
                backing = bytes(rng.randrange(256) for _ in range(pages * 64))
                machine.mmap(pid, perms, pages, backing=backing, at=start)
                areas.append((pid, start, pages))
        for step in range(2600):
            pid, start, pages = rng.choice(areas)
            vpage = start + rng.randrange(pages)
            addr = vpage * PS + rng.randrange(PS - 16)
            cpu = rng.randrange(2)
            roll = rng.random()
            if roll < 0.40:
                machine.access(pid, 1, cpu, addr, W, bytes(rng.randrange(256) for _ in range(rng.randint(1, 8))))
            elif roll < 0.70:
                machine.access(pid, 1, cpu, addr, F)
            elif roll < 0.85:
                machine.access(pid, 1, cpu, addr, R)
            else:
                span = rng.randint(1, pages)
                offset = rng.randrange(pages - span + 1)
                machine.mprotect(pid, start + offset, span, rng.choice(["r", "rw", "rx", "wx", "rwx"]))
            events += 1
            bad = wx_violations(machine)
            if bad:
                violations.append(bad[0])
                break
            if step % 200 == 0:
                table.drain()
    _criterion(
        2,
        events >= 10_000 and not violations,
        f"{events} random mixed-pid events, {len(violations)} pages ever "
        "observed writable and executable at once",
    )


def test_03_signature_invisible_at_rest_is_caught_at_unpack():
    rng = random.Random(3003)
    cases = hidden = caught = 0
    for _ in range(100):
        sig = bytes(rng.randrange(0x80, 0x100) for _ in range(rng.randint(15, 20)))
        rules = parse_rules(
            "rule implant family=packed severity=kill { "
            + " ".join(f"{b:02x}" for b in sig)
            + " }\n",
            page_size=PS,
        )
        pages = rng.randint(1, 2)
        image = bytes(rng.randrange(0x80) for _ in range(pages * PS))
        target = rng.randrange(pages)
        off = rng.randint(0, PS - len(sig))
        if all(
            not scan_page(image[p * PS:(p + 1) * PS], rules)
            for p in range(pages)
        ):
            hidden += 1
        trace = (
            "PROC uid=1\n"
            f"MMAP pid=1 perms=wx pages={pages} at=16 content={image.hex()}\n"
            f"WRITE pid=1 tid=1 cpu=0 addr={(16 + target) * PS + off} bytes={sig.hex()}\n"
            f"FETCH pid=1 tid=1 cpu=0 addr={(16 + target) * PS + rng.randrange(PS)}\n"
        )
        report = replay(trace, rules)
        if [(d.rule, d.vpage, d.offset) for d in report.detections] == [
            ("implant", 16 + target, off)
        ]:
            caught += 1
        cases += 1
    _criterion(
        3,
        cases == 100 and hidden == 100 and caught == 100,
        f"{hidden}/100 payloads invisible to the static scan, "
        f"{caught}/100 detected after the unpacking write",
    )


def test_04_read_only_and_data_pages_never_snapshot():
    traces = 0
    stray_snapshots = stray_scans = 0
    for seed in range(20):
        rng = random.Random(4000 + seed)
        lines = ["PROC uid=1", "PROC uid=2"]
        areas = []
        for pid in (1, 2):
            for i, perms in enumerate(("r", "rw")):
                at = 16 + (pid * 2 + i) * 8
                pages = rng.randint(1, 3)
                content = bytes(rng.randrange(256) for _ in range(pages * 32))
                lines.append(
                    f"MMAP pid={pid} perms={perms} pages={pages} at={at} content={content.hex()}"
                )
                areas.append((pid, perms, at, pages))
        for _ in range(rng.randint(60, 120)):
            pid, perms, at, pages = rng.choice(areas)
            addr = (at + rng.randrange(pages)) * PS + rng.randrange(PS - 8)
            roll = rng.random()
            if roll < 0.40 and perms == "rw":
                payload = bytes(rng.randrange(256) for _ in range(rng.randint(1, 8)))
                lines.append(f"WRITE pid={pid} tid=1 cpu=0 addr={addr} bytes={payload.hex()}")
            elif roll < 0.75:
                lines.append(f"READ pid={pid} tid=1 cpu=0 addr={addr}")
            elif roll < 0.90:
                lines.append(f"FETCH pid={pid} tid=1 cpu=0 addr={addr}")  # segv, not a snapshot
            else:
                lines.append(f"MPROTECT pid={pid} start={at} pages={pages} perms={rng.choice(['r', 'rw'])}")
        report = replay("\n".join(lines) + "\n", None)
        stray_snapshots += report.metrics["snapshots_emitted"]
        stray_scans += report.metrics["scans_run"]
        traces += 1
    _criterion(
        4,
        traces == 20 and stray_snapshots == 0 and stray_scans == 0,
        f"{traces} read/write-only traces emitted {stray_snapshots} snapshots",
    )


def test_05_stale_tlb_entry_defeats_the_state_machine_without_flushes():
    def drive(suppress: bool):
        machine, _ = _quiet_rig()
        if suppress:
            machine.tlb_flush_one = lambda pte: None  # every flush is lost
        pid = machine.create_process(uid=1)
        machine.mmap(pid, "wx", 1, at=16)
        addr = 16 * PS
        results, observed = [], []
        for kind, cpu, payload in ((W, 1, b"\x90"), (F, 0, None), (W, 1, b"\xcc")):
            results.append(machine.access(pid, 1, cpu, addr, kind, payload))
            observed.append(wx_violations(machine))
        return results, observed

    stale_results, stale_observed = drive(suppress=True)
    clean_results, clean_observed = drive(suppress=False)
    stale_hit = any(stale_observed)  # checker flags the stale write window
    write_went_through = stale_results[2] is AccessResult.OK
    clean_ok = not any(clean_observed) and clean_results == [AccessResult.OK] * 3
    _criterion(
        5,
        stale_hit and write_went_through and clean_ok,
        "suppressed flush leaves a stale writable mapping on an exec-mode "
        f"page (flagged: {stale_hit}); with flushes on, zero violations",
    )


def test_06_flood_is_throttled_then_evicted_after_quiescence():
    guard = DosGuard(GuardConfig(threshold=8, ttl_penalty=100, ttl_evict=500))
    decisions = [guard.admit(uid=1, pid=1, now=0).admitted for _ in range(20)]
    exact_cutoff = decisions == [True] * 8 + [False] * 12
    second_pid_denied = not guard.admit(uid=1, pid=2, now=50).admitted
    for _ in range(8):
        guard.on_delivered(1, now=150)
    evicts_on_time = guard.tick(649) == [] and guard.tick(650) == [1]
    readmitted = guard.admit(uid=1, pid=3, now=651).admitted and guard.pending(1) == 1

    # same budget enforced end to end: the 9th fresh exec page is refused
    lines = ["PROC uid=7", "PROC uid=7",
             "MMAP pid=1 perms=rx pages=12 at=16 content=" + "c3" * 8,
             "MMAP pid=2 perms=rx pages=1 at=64 content=" + "c3" * 8]
    lines += [f"FETCH pid=1 tid=1 cpu=0 addr={(16 + i) * PS}" for i in range(12)]
    lines += [f"FETCH pid=2 tid=1 cpu=0 addr={64 * PS}"]
    report = replay(
        "\n".join(lines) + "\n",
        None,
        SimConfig(drain_every=0, guard=GuardConfig(threshold=8, ttl_penalty=100, ttl_evict=5000)),
    )
    replay_exact = (
        report.metrics["admits"] == 8
        and report.metrics["snapshots_emitted"] == 8
        and [a.pid for a in report.actions if a.cause == "throttle"] == [1, 2]
    )
    _criterion(
        6,
        exact_cutoff and second_pid_denied and evicts_on_time and readmitted and replay_exact,
        "8 admissions then deny, sibling pid denied in the window, "
        "eviction after quiescence, re-admission recreates the entry",
    )


def test_07_regained_write_access_forces_a_recheck():
    sig = bytes(range(0x90, 0xa2))
    rules = parse_rules(
        "rule implant family=packed severity=kill { "
        + " ".join(f"{b:02x}" for b in sig) + " }\n",
        page_size=PS,
    )
    trace_a = (
        "PROC uid=1\n"
        "MMAP pid=1 perms=rw pages=1 at=16\n"
        f"WRITE pid=1 tid=1 cpu=0 addr={16 * PS + 64} bytes={sig.hex()}\n"
        "MPROTECT pid=1 start=16 pages=1 perms=rx\n"
        f"FETCH pid=1 tid=1 cpu=0 addr={16 * PS}\n"
    )
    ra = replay(trace_a, rules)
    a_ok = (
        ra.metrics["snapshots_emitted"] == 1
        and [(d.rule, d.offset) for d in ra.detections] == [("implant", 64)]
    )
    trace_b = (
        "PROC uid=1\n"
        f"MMAP pid=1 perms=rx pages=1 at=16 content={'c3' * 32}\n"
        f"FETCH pid=1 tid=1 cpu=0 addr={16 * PS}\n"
        "MPROTECT pid=1 start=16 pages=1 perms=wx\n"
        f"WRITE pid=1 tid=1 cpu=0 addr={16 * PS + 32} bytes={sig.hex()}\n"
        f"FETCH pid=1 tid=1 cpu=0 addr={16 * PS}\n"
    )
    rb = replay(trace_b, rules)
    b_ok = (
        rb.metrics["snapshots_emitted"] == 2
        and [(d.rule, d.offset) for d in rb.detections] == [("implant", 32)]
    )
    _criterion(
        7,
        a_ok and b_ok,
        "write-then-mprotect-exec snapshots and scans the written bytes; "
        "regaining write and writing again snapshots a second time",
    )


def test_08_pipeline_loses_and_duplicates_nothing_under_contention():
    producers, per_producer, reps = 8, 1000, 100
    total = producers * per_producer
    clean_reps = 0
    for _ in range(reps):
        table = SnapshotTable(16)
        drained: list[PageSnapshot] = []
        stop = threading.Event()

        def produce(pid: int):
            for i in range(per_producer):
                table.enqueue(
                    PageSnapshot(content=b"x", vpage=i, pid=pid, uid=1)
                )

        def consume():
            while not stop.is_set():
                drained.extend(table.drain(max_items=256))
            drained.extend(table.drain())

        consumer = threading.Thread(target=consume)
        consumer.start()
        workers = [threading.Thread(target=produce, args=(pid,)) for pid in range(producers)]
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        stop.set()
        consumer.join()
        seqs = sorted(s.seq for s in drained)
        fifo = all(
            [s.vpage for s in drained if s.pid == pid] == list(range(per_producer))
            for pid in range(producers)
        )
        if len(drained) == total and seqs == list(range(total)) and fifo:
            clean_reps += 1
    _criterion(
        8,
        clean_reps == reps,
        f"{clean_reps}/{reps} stress rounds ({producers}x{per_producer} + "
        "concurrent drain) with zero loss or duplication",
    )


def test_09_scanner_agrees_with_the_sliding_window_oracle():
    rng = random.Random(909)
    agree = 0
    cases = 10_000
    alphabet = (0x41, 0x42, 0x43, 0x44)
    for case in range(cases):
        page_len = 4096 if case % 100 == 0 else rng.choice((64, 96))
        page = bytearray(rng.choice(alphabet) for _ in range(page_len))
        specs = []
        for r in range(rng.randint(1, 3)):
            atoms = tuple(
                None if rng.random() < 0.25 else rng.choice(alphabet)
                for _ in range(rng.randint(3, 6))
            )
            if all(a is None for a in atoms):
                atoms = atoms[:-1] + (rng.choice(alphabet),)
            specs.append((f"r{r}", atoms))
        mode = rng.random()
        name, atoms = rng.choice(specs)
        literal = bytes(a if a is not None else rng.choice(alphabet) for a in atoms)
        if mode < 0.3:
            off = rng.randint(0, page_len - len(literal))
            page[off:off + len(literal)] = literal
        elif mode < 0.5:
            page[page_len - len(literal):] = literal  # flush against the page end
        elif mode < 0.65:
            b = rng.choice(alphabet)
            run = bytes([b]) * (len(atoms) + len(atoms) // 2)
            off = rng.randint(0, page_len - len(run))
            page[off:off + len(run)] = run  # overlapping matches for same-byte rules
        text = "\n".join(
            f"rule {n} family=f severity=alert {{ "
            + " ".join("??" if a is None else f"{a:02x}" for a in ats)
            + " }"
            for n, ats in specs
        )
        rules = parse_rules(text + "\n", page_size=page_len)
        got = [(m.offset, m.rule) for m in scan_page(bytes(page), rules)]
        if got == naive_scan(bytes(page), specs):
            agree += 1
    _criterion(
        9,
        agree == cases,
        f"{agree}/{cases} random page/ruleset pairs match the sliding-window "
        "oracle exactly (boundary and overlapping hits included)",
    )


def test_10_shadow_engine_is_invisible_to_benign_workloads():
    def run(trace_text: str, shadow: bool):
        ctx = build_run(SimConfig(shadow=shadow), rules=None)
        outcomes = []
        for event in parse_trace(trace_text, PS):
            try:
                outcomes.append(_apply_event(ctx.machine, event))
            except (SimError, ValueError) as exc:
                outcomes.append(("error", str(exc)))
            ctx.agent.step()
        return outcomes, ctx.machine.memory_map()

    identical = 0
    for seed in range(100):
        trace = random_benign_trace(random.Random(7000 + seed), PS)
        shadow_out, shadow_mem = run(trace, shadow=True)
        plain_out, plain_mem = run(trace, shadow=False)
        if shadow_out == plain_out and shadow_mem == plain_mem:
            identical += 1
    _criterion(
        10,
        identical == 100,
        f"{identical}/100 random benign traces behave identically with the "
        "shadow engine on and off (outcomes and final memory)",
    )
