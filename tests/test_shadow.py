"""The W^X state machine: mode flips, snapshots, checks, mprotect."""

from __future__ import annotations

import inspect
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jitscan import shadow as shadow_module
from jitscan import signatures as signatures_module
from jitscan.agent import SimConfig, build_run, replay
from jitscan.guard import GuardConfig
from jitscan.mmu import AccessKind, AccessResult, Machine, PageTableEntry
from jitscan.report import Report
from jitscan.shadow import ShadowEngine
from jitscan.signatures import parse_rules, sync_check

from conftest import (
    SYNC_RULES_TEXT, SYNC_STUB, naive_scan, quiet_run, snapshot_reference, wx_violations,
)

PS = 4096
W = AccessKind.WRITE
F = AccessKind.FETCH
R = AccessKind.READ


def rig(rules_text: str | None = None, **settings):
    rules = parse_rules(rules_text, page_size=PS) if rules_text else None
    ctx = quiet_run(rules, PS, **settings)
    return ctx.machine, ctx.pipeline, ctx.machine.engine


def one_wx_page(machine: Machine) -> int:
    pid = machine.create_process(uid=1)
    machine.mmap(pid, "wx", 1, at=16)
    return pid


def flags(machine: Machine, pid: int, vpage: int = 16):
    pte = machine.spaces[pid].ptes[vpage]
    return pte.writable, pte.exec_disabled, pte.orig_write, pte.orig_exe


class TestMaterialize:
    def test_wx_page_starts_in_write_mode(self):
        machine, pipeline, _ = rig()
        pid = one_wx_page(machine)
        assert machine.access(pid, 0, 16 * PS, W, b"\x90") is AccessResult.OK
        # W=1 XD=1, the masked execute permission remembered in orig_exe
        assert flags(machine, pid) == (True, True, False, True)
        assert pipeline.pending_count() == 0  # writes never snapshot

    def test_fetch_materialization_checks_once(self):
        machine, pipeline, _ = rig()
        pid = one_wx_page(machine)
        assert machine.access(pid, 0, 16 * PS, F) is AccessResult.OK
        assert flags(machine, pid) == (False, False, True, False)  # exec mode
        assert pipeline.pending_count() == 1  # one snapshot, not two

    def test_exec_only_area_checked_at_fetch_materialization(self):
        machine, pipeline, _ = rig()
        pid = machine.create_process(uid=1)
        machine.mmap(pid, "rx", 1, backing=b"\xc3", at=16)
        assert machine.access(pid, 0, 16 * PS, F) is AccessResult.OK
        assert flags(machine, pid) == (False, False, False, False)  # no shadow bits
        assert pipeline.pending_count() == 1
        # second fetch does not fault and does not snapshot again
        assert machine.access(pid, 0, 16 * PS, F) is AccessResult.OK
        assert pipeline.pending_count() == 1

    def test_data_areas_never_enter_the_machine(self):
        machine, pipeline, _ = rig()
        pid = machine.create_process(uid=1)
        machine.mmap(pid, "rw", 2, at=16)
        machine.access(pid, 0, 16 * PS, W, b"hi")
        machine.access(pid, 0, 17 * PS, R)
        for vpage in (16, 17):
            pte = machine.spaces[pid].ptes[vpage]
            assert (pte.orig_write, pte.orig_exe) == (False, False)
            assert pte.exec_disabled
        assert pipeline.pending_count() == 0


class TestWriteFault:
    def test_shadow_write_flips_back_to_write_mode(self):
        machine, pipeline, _ = rig()
        pid = one_wx_page(machine)
        machine.access(pid, 0, 16 * PS, F)  # exec mode
        assert machine.access(pid, 0, 16 * PS, W, b"\x41") is AccessResult.OK
        assert flags(machine, pid) == (True, True, False, True)
        assert machine.read_page(pid, 16)[0] == 0x41

    def test_write_to_readonly_present_page_is_genuine(self):
        machine, _, _ = rig()
        pid = machine.create_process(uid=1)
        machine.mmap(pid, "r", 1, at=16)
        machine.access(pid, 0, 16 * PS, R)
        assert machine.access(pid, 0, 16 * PS, W, b"x") is AccessResult.SEGV_DELIVERED

    def test_write_transition_flushes_the_page_entry(self):
        machine, _, _ = rig()
        pid = one_wx_page(machine)
        machine.access(pid, 0, 16 * PS, F)
        machine.access(pid, 1, 16 * PS, F)  # cpu1 caches exec-mode flags
        machine.access(pid, 0, 16 * PS, W, b"\x41")  # flips to write mode
        assert 1 not in machine.spaces[pid].ptes[16].tlb


class TestExecFault:
    def test_fetch_after_write_snapshots_current_content(self):
        machine, pipeline, _ = rig()
        pid = one_wx_page(machine)
        machine.access(pid, 0, 16 * PS + 7, W, b"\xeb\xfe")
        assert machine.access(pid, 0, 16 * PS + 7, F) is AccessResult.OK
        snaps = pipeline.drain()
        assert len(snaps) == 1
        assert snaps[0].content[7:9] == b"\xeb\xfe"
        assert snaps[0].pid == pid and snaps[0].uid == 1

    def test_fetch_into_non_executable_page_is_genuine(self):
        machine, _, _ = rig()
        pid = machine.create_process(uid=1)
        machine.mmap(pid, "rw", 1, at=16)
        machine.access(pid, 0, 16 * PS, W, b"\x90")
        assert machine.access(pid, 0, 16 * PS, F) is AccessResult.SEGV_DELIVERED

    def test_sync_hit_kills_without_snapshot_or_flip(self):
        machine, pipeline, engine = rig(SYNC_RULES_TEXT)
        pid = one_wx_page(machine)
        machine.access(pid, 0, 16 * PS, W, SYNC_STUB)
        assert machine.access(pid, 0, 16 * PS, F) is AccessResult.KILLED
        assert not machine.spaces[pid].alive
        assert pipeline.pending_count() == 0
        assert flags(machine, pid) == (True, True, False, True)  # still write mode
        det = engine.report.detections
        assert len(det) == 1 and det[0].path == "sync" and det[0].rule == "stub_shellcode"

    def test_sync_check_disabled_lets_content_through_to_async(self):
        machine, pipeline, _ = rig(SYNC_RULES_TEXT, sync_check=False)
        pid = one_wx_page(machine)
        machine.access(pid, 0, 16 * PS, W, SYNC_STUB)
        assert machine.access(pid, 0, 16 * PS, F) is AccessResult.OK
        assert pipeline.pending_count() == 1

    def test_throttle_denial_blocks_before_snapshot(self):
        guard = GuardConfig(threshold=1, penalty_action="block", ttl_penalty=100, ttl_evict=500)
        ctx = build_run(SimConfig(page_size=PS, guard=guard))
        machine, pipeline = ctx.machine, ctx.pipeline
        pid = machine.create_process(uid=9)
        machine.mmap(pid, "rx", 3, backing=b"\xc3" * (3 * PS), at=16)
        assert machine.access(pid, 0, 16 * PS, F) is AccessResult.OK
        assert machine.access(pid, 0, 17 * PS, F) is AccessResult.BLOCKED
        assert machine.spaces[pid].blocked
        assert machine.access(pid, 0, 18 * PS, F) is AccessResult.BLOCKED
        assert pipeline.pending_count() == 1  # only the admitted fetch


class TestMprotect:
    def test_grant_x_forces_recheck_of_written_page(self):
        machine, pipeline, _ = rig()
        pid = machine.create_process(uid=1)
        machine.mmap(pid, "rw", 1, at=16)
        machine.access(pid, 0, 16 * PS, W, b"\xcc\xcc")
        machine.mprotect(pid, 16, 1, "rx")
        pte = machine.spaces[pid].ptes[16]
        assert (pte.exec_disabled, pte.orig_exe, pte.writable) == (True, True, False)
        assert machine.access(pid, 0, 16 * PS, F) is AccessResult.OK
        assert pipeline.pending_count() == 1
        snaps = pipeline.drain()
        assert snaps[0].content[:2] == b"\xcc\xcc"
        # rechecked page is a plain executable page now
        assert flags(machine, pid) == (False, False, False, False)

    def test_grant_w_on_exec_page_enters_write_mode(self):
        machine, pipeline, _ = rig()
        pid = machine.create_process(uid=1)
        machine.mmap(pid, "rx", 1, backing=b"\xc3", at=16)
        machine.access(pid, 0, 16 * PS, F)
        machine.mprotect(pid, 16, 1, "wx")
        assert flags(machine, pid) == (True, True, False, True)
        machine.access(pid, 0, 16 * PS, W, b"\x90")
        assert machine.access(pid, 0, 16 * PS, F) is AccessResult.OK
        assert pipeline.enqueued_total == 2  # one per checked fetch

    def test_each_page_keeps_its_own_former_w(self):
        # one mprotect over areas that differed in w: each page's orig_write says which it had
        machine, _, _ = rig()
        pid = machine.create_process(uid=1)
        machine.mmap(pid, "wx", 1, at=16)
        machine.mmap(pid, "rx", 1, backing=b"\xc3", at=17)
        for vpage in (16, 17):
            assert machine.access(pid, 0, vpage * PS, F) is AccessResult.OK
        assert flags(machine, pid, 16) == (False, False, True, False)
        assert flags(machine, pid, 17) == (False, False, False, False)
        machine.mprotect(pid, 16, 2, "rwx")
        assert flags(machine, pid, 16) == (False, False, True, False)  # w kept: stays checked
        assert flags(machine, pid, 17) == (True, True, False, True)  # w granted: write mode

    def test_losing_x_leaves_the_machine(self):
        machine, _, _ = rig()
        pid = one_wx_page(machine)
        machine.access(pid, 0, 16 * PS, F)  # exec mode, orig_write set
        machine.mprotect(pid, 16, 1, "rw")
        assert flags(machine, pid) == (True, True, False, False)
        assert machine.access(pid, 0, 16 * PS, W, b"x") is AccessResult.OK
        assert machine.access(pid, 0, 16 * PS, F) is AccessResult.SEGV_DELIVERED

    def test_unchanged_perms_change_no_shadow_bits(self):
        machine, _, _ = rig()
        pid = one_wx_page(machine)
        machine.access(pid, 0, 16 * PS, F)
        before = flags(machine, pid)
        machine.mprotect(pid, 16, 1, "wx")
        assert flags(machine, pid) == before

    def test_wx_to_rx_keeps_pending_recheck(self):
        # the packer pattern: write payload, drop W, execute
        machine, pipeline, _ = rig()
        pid = one_wx_page(machine)
        machine.access(pid, 0, 16 * PS, W, b"\xde\xad")
        machine.mprotect(pid, 16, 1, "rx")
        pte = machine.spaces[pid].ptes[16]
        assert not pte.writable and pte.exec_disabled and pte.orig_exe
        assert machine.access(pid, 0, 16 * PS, F) is AccessResult.OK
        assert pipeline.drain()[0].content[:2] == b"\xde\xad"


class TestStateMachineProperties:
    def test_snapshot_sequence_matches_reference_exhaustively(self):
        # every write/fetch history up to length 8 over one fresh page
        for length in range(1, 9):
            for mask in range(2 ** length):
                ops = ["write" if mask & (1 << i) else "fetch" for i in range(length)]
                machine, pipeline, _ = rig()
                pid = one_wx_page(machine)
                seen = []
                for op in ops:
                    before = pipeline.enqueued_total
                    if op == "write":
                        machine.access(pid, 0, 16 * PS, W, b"\x41")
                    else:
                        assert machine.access(pid, 0, 16 * PS, F) is AccessResult.OK
                    seen.append(pipeline.enqueued_total - before == 1)
                assert seen == snapshot_reference(ops), ops

    @given(st.lists(st.sampled_from(["write", "fetch"]), min_size=1, max_size=40))
    @settings(max_examples=120, deadline=None)
    def test_snapshot_sequence_matches_reference_random(self, ops):
        machine, pipeline, _ = rig()
        pid = one_wx_page(machine)
        seen = []
        for op in ops:
            before = pipeline.enqueued_total
            if op == "write":
                machine.access(pid, 0, 16 * PS, W, b"\x41")
            else:
                machine.access(pid, 0, 16 * PS, F)
            seen.append(pipeline.enqueued_total - before == 1)
        assert seen == snapshot_reference(ops)

    def test_wx_exclusion_and_bit_complementarity_hold_randomly(self):
        rng = random.Random(99)
        machine, _, _ = rig()
        pid = machine.create_process(uid=1)
        machine.mmap(pid, "wx", 4, at=16)
        machine.mmap(pid, "rx", 2, backing=b"\x90" * (2 * PS), at=32)
        machine.mmap(pid, "rw", 2, at=48)
        for _ in range(2000):
            vpage = rng.choice([16, 17, 18, 19, 32, 33, 48, 49])
            cpu = rng.randrange(3)
            if rng.random() < 0.5 and machine.spaces[pid].find_area(vpage).logical_w:
                machine.access(pid, cpu, vpage * PS, W, b"\x41")
            else:
                machine.access(pid, cpu, vpage * PS, F)
            assert wx_violations(machine) == []
            for vp, pte in machine.spaces[pid].ptes.items():
                area = machine.spaces[pid].find_area(vp)
                if area.logical_w and area.logical_x:
                    assert pte.orig_write != pte.orig_exe  # exactly one set

    def test_transparent_for_benign_behavior(self):
        def run(shadow: bool):
            machine = quiet_run(page_size=PS, shadow=shadow).machine
            pid = machine.create_process(uid=1)
            machine.mmap(pid, "wx", 2, at=16)
            outcomes = [
                machine.access(pid, 0, 16 * PS, W, b"\x90\x90"),
                machine.access(pid, 0, 16 * PS, F),
                machine.access(pid, 1, 16 * PS + 1, W, b"\xc3"),
                machine.access(pid, 0, 16 * PS, F),
                machine.access(pid, 2, 17 * PS, F),
                machine.access(pid, 0, 99 * PS, R),
            ]
            return outcomes, machine.memory_map()

        shadow_out, shadow_mem = run(True)
        plain_out, plain_mem = run(False)
        assert shadow_out == plain_out
        assert shadow_mem == plain_mem


def test_the_engine_takes_no_defaults():
    """Only `build_run` wires an engine, so it must name every collaborator."""
    params = inspect.signature(ShadowEngine).parameters.values()
    assert [p.name for p in params] == [
        "machine", "rules", "pipeline", "guard", "report", "sync_check", "detection_action",
    ]
    assert all(p.default is inspect.Parameter.empty for p in params)


def test_the_engine_shares_the_runs_collaborators():
    rules = parse_rules(SYNC_RULES_TEXT, page_size=PS)
    ctx = build_run(SimConfig(page_size=PS, sync_check=True, detection_action="block"), rules)
    engine = ctx.machine.engine
    assert engine.rules is rules and ctx.agent.rules is rules
    assert engine.pipeline is ctx.pipeline and engine.guard is ctx.guard
    assert engine.report is ctx.report and engine.sync_check is True
    assert engine.detection_action == "block"
    pid = one_wx_page(ctx.machine)
    ctx.machine.access(pid, 0, 16 * PS, W, SYNC_STUB)
    ctx.machine.access(pid, 0, 16 * PS, F)
    assert [(d.path, d.rule) for d in ctx.report.detections] == [("sync", "stub_shellcode")]
    assert [a.action for a in ctx.report.actions] == ["block"]


# ---- every executable page starts unchecked ------------------------------

STUB_AT = 16 * PS
RX_MMAP = ["PROC uid=7", f"MMAP pid=1 perms=rx pages=1 at=16 content={SYNC_STUB.hex()}"]
RW_THEN_RX = [
    "PROC uid=7", f"MMAP pid=1 perms=rw pages=1 at=16 content={SYNC_STUB.hex()}",
    "MPROTECT pid=1 start=16 pages=1 perms=rx",
]
READ_STUB = f"READ pid=1 tid=1 cpu=0 addr={STUB_AT}"
FETCH_STUB = f"FETCH pid=1 tid=1 cpu=0 addr={STUB_AT}"
ASYNC_ALERT_RULES = (
    "rule stub_alert family=stub severity=alert { fe ed c0 de de ad be ef ca fe ba be }\n"
)


def replay_lines(lines: list[str], rules_text: str) -> Report:
    return replay("\n".join(lines) + "\n", parse_rules(rules_text, page_size=PS),
                  SimConfig(page_size=PS))


class TestReadBeforeFirstFetch:
    @pytest.mark.parametrize("setup", [RX_MMAP, RW_THEN_RX], ids=["rx-mmap", "rw-mprotect-rx"])
    def test_sync_kill_payload_is_caught_after_a_read(self, setup):
        read_first = replay_lines(setup + [READ_STUB, FETCH_STUB], SYNC_RULES_TEXT)
        fetch_first = replay_lines(setup + [FETCH_STUB, READ_STUB], SYNC_RULES_TEXT)
        assert [(d.path, d.action) for d in read_first.detections] == [("sync", "kill")]
        assert read_first.detections == fetch_first.detections
        assert read_first.actions == fetch_first.actions
        # after the kill, the fetch-first trace's READ names a dead pid
        assert read_first.outcomes == {"ok": len(setup) + 1, "killed": 1}
        assert fetch_first.outcomes == {"ok": len(setup), "killed": 1, "dead": 1}

    def test_async_alert_sees_one_snapshot_after_a_read(self):
        read_first = replay_lines(RX_MMAP + [READ_STUB, FETCH_STUB], ASYNC_ALERT_RULES)
        fetch_first = replay_lines(RX_MMAP + [FETCH_STUB, READ_STUB], ASYNC_ALERT_RULES)
        for report in (read_first, fetch_first):
            assert report.metrics["snapshots_emitted"] == 1
            assert report.metrics["scans_run"] == 1
            assert report.outcomes == {"ok": 4}
        assert [(d.path, d.action) for d in read_first.detections] == [("async", "alert")]
        assert read_first.detections == fetch_first.detections


def write_16(off: int) -> str:
    return f"WRITE pid=1 tid=1 cpu=0 addr={STUB_AT + off} bytes={'90' * 16}"


class TestFirstCheckSpans:
    """A page's first check is narrow once its content is known clean: a blank
    page by the zero-page rule, an image page by a walk at install, a data page
    by a walk when mprotect makes it executable."""

    def first_fetch_spans(self, monkeypatch, lines: list[str], rules_text: str):
        seen = []

        def spy(content, rules, spans=None):
            seen.append(None if spans is None else list(spans))
            return sync_check(content, rules, spans)

        monkeypatch.setattr(shadow_module, "sync_check", spy)
        replay_lines(["PROC uid=7", *lines, FETCH_STUB], rules_text)
        assert len(seen) == 1
        return seen[0]

    def test_blank_wx_page_gets_exactly_its_writes(self, monkeypatch):
        lines = ["MMAP pid=1 perms=wx pages=1 at=16", write_16(0x100), write_16(0x800)]
        spans = self.first_fetch_spans(monkeypatch, lines, SYNC_RULES_TEXT)
        assert spans == [(0x100, 0x110), (0x800, 0x810)]

    def test_page_with_a_clean_mmap_image_gets_only_its_writes(self, monkeypatch):
        lines = ["MMAP pid=1 perms=wx pages=1 content=c3 at=16", write_16(0x100)]
        assert self.first_fetch_spans(monkeypatch, lines, SYNC_RULES_TEXT) == [(0x100, 0x110)]

    def test_image_holding_a_sync_match_is_checked_whole(self, monkeypatch):
        lines = [f"MMAP pid=1 perms=wx pages=1 content={SYNC_STUB.hex()} at=16", write_16(0x100)]
        assert self.first_fetch_spans(monkeypatch, lines, SYNC_RULES_TEXT) is None

    def test_image_holding_an_async_match_is_checked_whole(self, monkeypatch):
        # the install walk uses the full set: a sync-only walk would miss this
        image = bytes.fromhex("feedc0dedeadbeefcafebabe")
        lines = [f"MMAP pid=1 perms=wx pages=1 content={image.hex()} at=16", write_16(0x100)]
        rules_text = SYNC_RULES_TEXT + ASYNC_ALERT_RULES
        assert self.first_fetch_spans(monkeypatch, lines, rules_text) is None

    def test_image_whose_match_needs_the_zero_padding_is_checked_whole(self, monkeypatch):
        # c3 00 00 matches the frame at 0, not the one-byte image alone
        rules_text = SYNC_RULES_TEXT + "rule tail family=t severity=alert { c3 00 00 }\n"
        lines = ["MMAP pid=1 perms=wx pages=1 content=c3 at=16", write_16(0x100)]
        assert self.first_fetch_spans(monkeypatch, lines, rules_text) is None

    def test_rules_that_match_a_zero_page_check_it_whole(self, monkeypatch):
        rules_text = SYNC_RULES_TEXT + "rule zeros family=t severity=alert { 00 ?? 00 }\n"
        lines = ["MMAP pid=1 perms=wx pages=1 at=16", write_16(0x100)]
        assert self.first_fetch_spans(monkeypatch, lines, rules_text) is None

    def test_data_page_made_executable_gets_only_later_writes(self, monkeypatch):
        lines = [
            "MMAP pid=1 perms=rw pages=1 at=16", write_16(0x100),
            "MPROTECT pid=1 start=16 pages=1 perms=rwx", write_16(0x800),
        ]
        assert self.first_fetch_spans(monkeypatch, lines, SYNC_RULES_TEXT) == [(0x800, 0x810)]

    def test_data_page_written_with_a_match_then_made_executable_is_checked_whole(
        self, monkeypatch,
    ):
        lines = [
            "MMAP pid=1 perms=rw pages=1 at=16",
            f"WRITE pid=1 tid=1 cpu=0 addr={STUB_AT} bytes={SYNC_STUB.hex()}",
            "MPROTECT pid=1 start=16 pages=1 perms=rx",
        ]
        assert self.first_fetch_spans(monkeypatch, lines, SYNC_RULES_TEXT) is None


class TestWholePageWalks:
    """Unknown content is walked once, with the full set, before its first fetch."""

    @pytest.mark.parametrize("lines,walks", [
        (["MMAP pid=1 perms=wx pages=1 content=c3 at=16", write_16(0x100)], [[(0, 1)]]),
        (["MMAP pid=1 perms=rw pages=1 at=16", write_16(0x100),
          "MPROTECT pid=1 start=16 pages=1 perms=rx"], [[(0x100, 0x110)]]),
        (["MMAP pid=1 perms=wx pages=1 at=16", write_16(0x100)], []),
    ], ids=["image", "rw-then-rx", "blank-wx"])
    def test_first_fetch_walks(self, monkeypatch, lines, walks):
        seen = []
        scan = signatures_module._MultiPattern.scan

        def spy(self, data, spans=None):
            seen.append(None if spans is None else list(spans))
            return scan(self, data, spans)

        monkeypatch.setattr(signatures_module._MultiPattern, "scan", spy)
        report = replay_lines(["PROC uid=7", *lines, FETCH_STUB], SYNC_RULES_TEXT)
        assert report.metrics["scans_run"] == 1 and report.outcomes == {"ok": len(lines) + 2}
        # the rules match no zero page, so a walk covers the nonzero extent;
        # then the fetch's sync check and async scan see the writes since
        since = [] if "MPROTECT" in lines[-1] else [(0x100, 0x110)]
        assert seen == [*walks, since, since]

    def test_narrowed_walks_find_what_whole_and_naive_scans_find(self, monkeypatch):
        """A walk over the nonzero extent, or none over an all-zero frame, decides
        as the whole-frame walk does, on pages with zero runs and rule sets that
        do and do not match a zero page."""
        walks = []
        real_scan = shadow_module.scan_page

        def spy(content, rules, spans=None):
            hits = real_scan(content, rules, spans)
            walks.append((spans, hits))
            return hits

        monkeypatch.setattr(shadow_module, "scan_page", spy)
        rng, page_size = random.Random(2525), 64
        seen = dict.fromkeys(["narrowed", "unscanned", "whole", "matched"], 0)
        for _ in range(400):
            rules_text = ""
            for i in range(rng.randint(1, 4)):
                atoms = [
                    rng.choice(["41", "42", "00", "00", "??"]) for _ in range(rng.randint(1, 5))
                ]
                if all(a == "??" for a in atoms):
                    atoms[0] = "00"
                rules_text += f"rule r{i} family=t severity=alert {{ {' '.join(atoms)} }}\n"
            rules = parse_rules(rules_text, page_size=page_size)
            frame = bytearray(page_size)
            for _ in range(rng.choice([0, 0, 1, 2, 4])):  # runs of bytes between runs of zeros
                lo = rng.randrange(page_size)
                for i in range(lo, min(page_size, lo + rng.randint(1, 12))):
                    frame[i] = rng.choice([0x41, 0x42, 0x00])
            content = bytes(frame)
            whole = signatures_module.scan_page(content, rules)
            assert [(m.offset, m.rule) for m in whole] == naive_scan(
                content, [(r.name, r.atoms) for r in rules.rules]
            )
            pte = PageTableEntry(frame)
            walks.clear()
            quiet_run(rules, page_size).machine.engine._walk_unknown(pte)
            assert pte.written == ([] if not whole else None)
            if not walks:
                assert rules.zero_page_clean and not any(content)
                seen["unscanned"] += 1
                continue
            ((spans, hits),) = walks
            assert hits == whole
            if rules.zero_page_clean and not (content[0] and content[-1]):
                nonzero = [i for i, b in enumerate(content) if b]
                assert spans == [(nonzero[0], nonzero[-1] + 1)]
                seen["narrowed"] += 1
            else:
                assert spans is None
                seen["whole"] += 1
            seen["matched"] += bool(hits)
        assert min(seen.values()) >= 20, seen


def mode_bits(perms: str, checked: bool) -> tuple[bool, bool, bool, bool]:
    """flags() of a present page of an area with perms: the two-mode table."""
    w = "w" in perms
    if "x" not in perms:
        return (w, True, False, False)  # plain data
    return (False, False, w, False) if checked else (w, True, False, True)


# every page state each start can reach before its mprotect
MODE_STARTS = [
    ("rw", "untouched"), ("rw", "data"), ("r", "untouched"), ("r", "data"),
    *((perms, state) for perms in ("rx", "wx", "rwx") for state in ("untouched", "write", "exec")),
]
NON_EMPTY_PERMS = ("r", "w", "x", "rw", "rx", "wx", "rwx")


class TestModeRule:
    @pytest.mark.parametrize("start,state", MODE_STARTS)
    def test_mprotect_leaves_one_of_the_two_modes(self, start, state):
        for perms in NON_EMPTY_PERMS:
            machine, _, _ = rig()
            pid = machine.create_process(uid=1)
            machine.mmap(pid, start, 1, backing=b"\x90", at=16)
            if state == "data":
                machine.access(pid, 0, 16 * PS, R)
            elif state == "write" and "w" in start:
                machine.access(pid, 0, 16 * PS, F)
                machine.access(pid, 1, 16 * PS, W, b"\xc3")
            elif state == "write":
                machine.access(pid, 1, 16 * PS, R)
            elif state == "exec":
                machine.access(pid, 0, 16 * PS, F)
                machine.access(pid, 1, 16 * PS, R)
            if state != "untouched":
                assert flags(machine, pid) == mode_bits(start, state == "exec"), (start, state)
            machine.mprotect(pid, 16, 1, perms)
            assert wx_violations(machine) == [], (start, state, perms)
            if state == "untouched":
                # the first touch materializes it; only a fetch checks it
                kind = R if machine.spaces[pid].find_area(16).permits(R) else F
                assert machine.access(pid, 0, 16 * PS, kind) is AccessResult.OK
                checked = kind is F
            else:
                # a page stays checked only from exec mode, and only if no w was granted
                checked = state == "exec" and ("w" in start or "w" not in perms)
            assert flags(machine, pid) == mode_bits(perms, checked), (start, state, perms)
            assert wx_violations(machine) == [], (start, state, perms)
