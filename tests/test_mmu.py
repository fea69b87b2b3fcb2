"""Machine basics: demand paging, TLB behavior, process lifecycle."""

from __future__ import annotations

import inspect
import random
import time

import pytest

import jitscan
from jitscan import mmu as mmu_module
from jitscan import trace as trace_module
from jitscan.mmu import (
    AccessKind,
    AccessResult,
    DeadProcessError,
    Machine,
    OverlapError,
    PageNotPresentError,
    SimError,
    UnknownProcessError,
    UnmappedRangeError,
)
from jitscan.agent import SimConfig, _apply_event, build_run, replay
from jitscan.shadow import BaselineEngine, ShadowEngine
from jitscan.signatures import RuleSet, RuleSyntaxError, parse_rules
from jitscan.trace import TraceError, parse_trace

from conftest import quiet_run, reference_access, wx_violations

PS = 4096


def plain_machine(page_size: int = PS) -> Machine:
    return quiet_run(page_size=page_size, shadow=False).machine


def shadow_machine(page_size: int = PS) -> Machine:
    return quiet_run(page_size=page_size).machine


class TestCreateProcess:
    def test_assigns_sequential_pids(self):
        machine = plain_machine()
        assert machine.create_process(uid=1000) == 1
        assert machine.create_process(uid=1000) == 2
        assert machine.spaces[1].uid == 1000

    def test_image_areas_are_kept_sorted(self):
        machine = plain_machine()
        pid = machine.create_process(uid=0)
        machine.mmap(pid, "rx", 2, at=40)
        machine.mmap(pid, "rw", 4, at=16)
        starts = [a.start_vpage for a in machine.spaces[pid].areas]
        assert starts == [16, 40]

    def test_overlapping_image_rejected(self):
        machine = plain_machine()
        pid = machine.create_process(uid=0)
        first = machine.mmap(pid, "rw", 4, at=16)
        with pytest.raises(OverlapError):
            machine.mmap(pid, "r", 1, at=18)
        assert machine.spaces[pid].areas == [first]

    @pytest.mark.parametrize("bad", [
        "MMAP pid=1 perms=rw pages=1 at=-2", "MMAP pid=1 perms=rw pages=0 at=16",
        "MMAP pid=1 perms=r2 pages=1 at=16",
    ], ids=["negative-start", "no-pages", "non-bool-perms"])
    def test_bad_image_area_rejected_before_a_pid_is_taken(self, bad):
        # parse_trace checks every line before the first is applied, so a
        # bad area in a process's image leaves the PROC before it unrun
        machine = build_run(SimConfig(page_size=64)).machine
        trace = f"PROC uid=0\nMMAP pid=1 perms=rx pages=1 at=40\n{bad}\n"
        with pytest.raises(TraceError, match="line 3"):
            for event in parse_trace(trace, 64):
                _apply_event(machine, event)
        assert (machine.spaces, machine._next_pid) == ({}, 1)
        pid = machine.create_process(uid=0)
        assert pid == 1
        result = machine.access(pid, 1, 0, -128, AccessKind.WRITE, b"w")
        assert result is AccessResult.SEGV_DELIVERED

    def test_no_pages_present_before_first_touch(self):
        machine = plain_machine()
        pid = machine.create_process(uid=0)
        machine.mmap(pid, "rw", 8, at=16)
        assert machine.spaces[pid].ptes == {}


class TestAccess:
    def test_write_materializes_only_the_touched_page(self):
        machine = plain_machine()
        pid = machine.create_process(uid=0)
        machine.mmap(pid, "rw", 8, at=16)
        result = machine.access(pid, 1, 0, 17 * PS + 5, AccessKind.WRITE, b"hi")
        assert result is AccessResult.OK
        assert set(machine.spaces[pid].ptes) == {17}
        assert machine.read_page(pid, 17)[5:7] == b"hi"

    def test_demand_paging_present_equals_touched(self):
        rng = random.Random(7)
        machine = plain_machine()
        pid = machine.create_process(uid=0)
        machine.mmap(pid, "rw", 32, at=16)
        touched = set()
        for _ in range(200):
            vpage = 16 + rng.randrange(32)
            machine.access(pid, 1, 0, vpage * PS, AccessKind.READ)
            touched.add(vpage)
        assert set(machine.spaces[pid].ptes) == touched

    def test_unmapped_address_delivers_segv(self):
        machine = plain_machine()
        pid = machine.create_process(uid=0)
        machine.mmap(pid, "rw", 2, at=16)
        assert machine.access(pid, 1, 0, 999 * PS, AccessKind.READ) is AccessResult.SEGV_DELIVERED
        assert 999 not in machine.spaces[pid].ptes

    def test_write_to_readonly_area_delivers_segv_without_materializing(self):
        machine = plain_machine()
        pid = machine.create_process(uid=0)
        machine.mmap(pid, "r", 2, at=16)
        assert machine.access(pid, 1, 0, 16 * PS, AccessKind.WRITE, b"x") is AccessResult.SEGV_DELIVERED
        assert machine.spaces[pid].ptes == {}

    def test_fetch_from_non_exec_area_delivers_segv(self):
        machine = plain_machine()
        pid = machine.create_process(uid=0)
        machine.mmap(pid, "rw", 2, at=16)
        machine.access(pid, 1, 0, 16 * PS, AccessKind.WRITE, b"x")
        assert machine.access(pid, 1, 0, 16 * PS, AccessKind.FETCH) is AccessResult.SEGV_DELIVERED

    def test_unknown_pid_raises(self):
        machine = plain_machine()
        with pytest.raises(UnknownProcessError):
            machine.access(99, 1, 0, 16 * PS, AccessKind.READ)

    def test_write_crossing_page_boundary_rejected(self):
        machine = plain_machine()
        pid = machine.create_process(uid=0)
        machine.mmap(pid, "rw", 2, at=16)
        with pytest.raises(ValueError):
            machine.access(pid, 1, 0, 17 * PS - 1, AccessKind.WRITE, b"ab")

    @pytest.mark.parametrize("perms", ["", "rr"])
    def test_perms_the_trace_grammar_refuses_are_refused(self, perms):
        machine = plain_machine()
        pid = machine.create_process(uid=0)
        machine.mmap(pid, "rw", 2, at=16)
        space = machine.spaces[pid]
        before = list(space.areas)
        with pytest.raises(ValueError, match="bad perms"):
            machine.mmap(pid, perms, 1, at=32)
        with pytest.raises(ValueError, match="bad perms"):
            machine.mprotect(pid, 16, 1, perms)
        assert space.areas == before and space.mmap_cursor == 18
        assert trace_module._PERMS is mmu_module._PERMS  # one set for the whole program

    def test_content_longer_than_the_pages_is_refused(self):
        machine = plain_machine(page_size=64)
        pid = machine.create_process(uid=0)
        space = machine.spaces[pid]
        with pytest.raises(ValueError, match=r"content is 100 bytes, more than 1 page\(s\) of 64"):
            machine.mmap(pid, "rw", 1, backing=bytes(100), at=16)
        assert (space.areas, space.images, space.mmap_cursor) == ([], {}, 16)
        machine.mmap(pid, "rw", 2, backing=bytes(range(100)), at=16)  # two pages hold it all
        assert {vpage: bytes(image) for vpage, image in space.images.items()} == {
            16: bytes(range(64)), 17: bytes(range(64, 100)),
        }

    def test_a_negative_start_is_refused(self):
        machine = plain_machine(page_size=64)
        pid = machine.create_process(uid=0)
        space = machine.spaces[pid]
        with pytest.raises(ValueError, match="at must be >= 0, got -2"):
            machine.mmap(pid, "rw", 1, at=-2)
        assert (space.areas, space.mmap_cursor) == ([], 16)
        result = machine.access(pid, 1, 0, -2 * 64, AccessKind.WRITE, b"x")
        assert result is AccessResult.SEGV_DELIVERED
        assert space.ptes == {}

    def test_an_unknown_kind_is_refused_before_any_state_changes(self):
        machine = shadow_machine(page_size=64)
        pid = machine.create_process(uid=0)
        machine.mmap(pid, "rw", 1, at=16)
        space = machine.spaces[pid]
        with pytest.raises(ValueError, match="unknown access kind 'write'"):
            machine.access(pid, 1, 0, 1024, "write", b"A")  # not present
        assert space.ptes == {}
        assert machine.access(pid, 1, 0, 1024, AccessKind.WRITE, b"B") is AccessResult.OK
        pte = space.ptes[16]
        tlb, frame = dict(pte.tlb), bytes(pte.frame)
        for kind in ("exec", trace_module.PROC, None):  # on a TLB hit, then a miss
            with pytest.raises(ValueError, match="unknown access kind"):
                machine.access(pid, 1, 0, 1024, kind, b"C")
            with pytest.raises(ValueError, match="unknown access kind"):
                machine.access(pid, 1, 1, 1024, kind)
        assert (space.ptes, pte.tlb, bytes(pte.frame)) == ({16: pte}, tlb, frame)

    def test_backing_image_copied_on_materialize(self):
        machine = plain_machine()
        pid = machine.create_process(uid=0)
        machine.mmap(pid, "rx", 2, backing=b"\x90" * PS + b"\xc3" * 10, at=16)
        machine.access(pid, 1, 0, 17 * PS, AccessKind.READ)
        page = machine.read_page(pid, 17)
        assert page[:10] == b"\xc3" * 10
        assert page[10:] == b"\x00" * (PS - 10)


class TestTlb:
    def test_successful_walk_fills_every_referencing_cpu(self):
        machine = plain_machine()
        pid = machine.create_process(uid=0)
        machine.mmap(pid, "rw", 1, at=16)
        machine.access(pid, 1, 0, 16 * PS, AccessKind.READ)
        machine.access(pid, 1, 1, 16 * PS, AccessKind.READ)
        tlb = machine.spaces[pid].ptes[16].tlb
        assert tlb[0] == (True, True)
        assert tlb[1] == (True, True)

    def test_flush_one_is_a_broadcast(self):
        machine = plain_machine()
        pid = machine.create_process(uid=0)
        machine.mmap(pid, "rw", 2, at=16)
        for cpu in (0, 1, 2):
            machine.access(pid, 1, cpu, 16 * PS, AccessKind.READ)
            machine.access(pid, 1, cpu, 17 * PS, AccessKind.READ)
        ptes = machine.spaces[pid].ptes
        machine.tlb_flush_one(ptes[16])
        for cpu in (0, 1, 2):
            assert cpu not in ptes[16].tlb
            assert cpu in ptes[17].tlb

    def test_flush_of_uncached_page_is_a_noop(self):
        machine = plain_machine()
        pid = machine.create_process(uid=0)
        machine.mmap(pid, "rw", 1, at=16)
        machine.access(pid, 1, 0, 16 * PS, AccessKind.READ)
        pte = machine.spaces[pid].ptes[16]
        machine.tlb_flush_one(pte)
        machine.tlb_flush_one(pte)  # nothing cached, nothing raised
        assert pte.tlb == {}

    def test_stale_entry_is_honored_until_flushed(self):
        # write perms are revoked behind cpu 1's back; with the flush
        # suppressed its stale entry keeps authorizing writes
        machine = shadow_machine()
        machine.tlb_flush_one = lambda pte: None
        pid = machine.create_process(uid=0)
        machine.mmap(pid, "wx", 1, at=16)
        machine.access(pid, 1, 1, 16 * PS, AccessKind.WRITE, b"\x90")
        assert machine.access(pid, 1, 0, 16 * PS, AccessKind.FETCH) is AccessResult.OK
        pte = machine.spaces[pid].ptes[16]
        assert (pte.writable, pte.exec_disabled) == (False, False)  # exec mode
        assert pte.tlb[1] == (True, True)  # stale
        assert machine.access(pid, 1, 1, 16 * PS, AccessKind.WRITE, b"\x41") is AccessResult.OK
        assert wx_violations(machine) == [(pid, 16)]

    def test_hits_are_served_from_the_cached_pair(self):
        machine = plain_machine()
        pid = machine.create_process(uid=0)
        machine.mmap(pid, "rwx", 1, at=16)
        machine.access(pid, 1, 0, 16 * PS, AccessKind.READ)
        pte = machine.spaces[pid].ptes[16]
        assert (pte.writable, pte.exec_disabled) == (True, False)
        # a read hit returns at once, whatever the pair: present implies readable
        pte.tlb[0], pte.written = (False, True), [(1, 2)]
        frame = bytes(pte.frame)
        assert machine.access(pid, 1, 0, 16 * PS + 5, AccessKind.READ) is AccessResult.OK
        assert (bytes(pte.frame), pte.written, pte.tlb) == (frame, [(1, 2)], {0: (False, True)})
        # a write hit writes and adds its span, with no walk and no refill
        pte.tlb[0] = (True, True)
        assert machine.access(pid, 1, 0, 16 * PS + 8, AccessKind.WRITE, b"AB") is AccessResult.OK
        assert pte.frame[8:10] == b"AB"
        assert (pte.written, pte.tlb) == ([(1, 2), (8, 10)], {0: (True, True)})
        # a fetch hit that the pair allows does nothing else
        pte.tlb[0] = (False, False)
        assert machine.access(pid, 1, 0, 16 * PS, AccessKind.FETCH) is AccessResult.OK
        assert (pte.written, pte.tlb) == ([(1, 2), (8, 10)], {0: (False, False)})
        # a write or fetch its cached pair denies drops the entry and walks
        pte.tlb[0] = (False, True)
        assert machine.access(pid, 1, 0, 16 * PS + 3, AccessKind.WRITE, b"C") is AccessResult.OK
        assert (pte.frame[3], pte.written[-1], pte.tlb) == (ord("C"), (3, 4), {0: (True, False)})
        pte.tlb[0] = (True, True)
        assert machine.access(pid, 1, 0, 16 * PS, AccessKind.FETCH) is AccessResult.OK
        assert pte.tlb == {0: (True, False)}  # refilled by the walk

    def test_faulting_cpu_drops_its_own_stale_entry(self):
        machine = shadow_machine()
        machine.tlb_flush_one = lambda pte: None  # flushes are lost
        pid = machine.create_process(uid=0)
        machine.mmap(pid, "wx", 1, at=16)
        machine.access(pid, 1, 0, 16 * PS, AccessKind.WRITE, b"\x90")
        machine.access(pid, 1, 0, 16 * PS, AccessKind.FETCH)  # traps, drops cpu0 entry
        assert machine.spaces[pid].ptes[16].tlb[0] == (False, False)  # refilled post-walk


class TestReadPage:
    def test_zero_fill_for_anonymous_pages(self):
        machine = plain_machine()
        pid = machine.create_process(uid=0)
        machine.mmap(pid, "rw", 1, at=16)
        machine.access(pid, 1, 0, 16 * PS, AccessKind.READ)
        assert machine.read_page(pid, 16) == b"\x00" * PS

    def test_not_present_page_raises(self):
        machine = plain_machine()
        pid = machine.create_process(uid=0)
        machine.mmap(pid, "rw", 1, at=16)
        with pytest.raises(PageNotPresentError):
            machine.read_page(pid, 16)

    def test_returns_a_copy(self):
        machine = plain_machine()
        pid = machine.create_process(uid=0)
        machine.mmap(pid, "rw", 1, at=16)
        machine.access(pid, 1, 0, 16 * PS, AccessKind.WRITE, b"old")
        copy = machine.read_page(pid, 16)
        machine.access(pid, 1, 0, 16 * PS, AccessKind.WRITE, b"new")
        assert copy[:3] == b"old"


class TestKillProcess:
    def test_access_after_kill_raises(self):
        machine = plain_machine()
        pid = machine.create_process(uid=0)
        machine.mmap(pid, "rw", 1, at=16)
        machine.kill_process(pid)
        with pytest.raises(DeadProcessError):
            machine.access(pid, 1, 0, 16 * PS, AccessKind.READ)

    def test_kill_is_idempotent(self):
        machine = plain_machine()
        pid = machine.create_process(uid=0)
        machine.kill_process(pid)
        machine.kill_process(pid)
        assert not machine.spaces[pid].alive

    def test_kill_unknown_pid_raises(self):
        machine = plain_machine()
        with pytest.raises(UnknownProcessError):
            machine.kill_process(42)

    def test_kill_drops_tlb_entries(self):
        machine = plain_machine()
        pid = machine.create_process(uid=0)
        other = machine.create_process(uid=0)
        for p in (pid, other):
            machine.mmap(p, "rw", 1, at=16)
            machine.access(p, 1, 0, 16 * PS, AccessKind.READ)
        machine.kill_process(pid)
        assert 0 not in machine.spaces[pid].ptes[16].tlb
        # only the killed pid's entries go: the other pid's, on the same cpu, stay
        assert machine.spaces[other].ptes[16].tlb[0] == (True, True)


class TestMmapMprotect:
    def test_mmap_auto_placement_is_deterministic(self):
        machine = plain_machine()
        pid = machine.create_process(uid=0)
        a = machine.mmap(pid, "rw", 3)
        b = machine.mmap(pid, "rx", 2)
        assert (a.start_vpage, b.start_vpage) == (16, 19)

    def test_mmap_overlap_rejected(self):
        machine = plain_machine()
        pid = machine.create_process(uid=0)
        machine.mmap(pid, "rw", 4, at=16)
        with pytest.raises(OverlapError):
            machine.mmap(pid, "rw", 1, at=18)

    def test_mprotect_subrange_splits_the_area(self):
        machine = plain_machine()
        pid = machine.create_process(uid=0)
        machine.mmap(pid, "rw", 6, backing=bytes(range(1, 7)) * PS, at=16)
        machine.mprotect(pid, 18, 2, "r")
        areas = machine.spaces[pid].areas
        assert [(a.start_vpage, a.n_pages, a.perms()) for a in areas] == [
            (16, 2, "rw"),
            (18, 2, "r"),
            (20, 2, "rw"),
        ]
        # backing follows the split: page 18 keeps its slice of the image
        machine.access(pid, 1, 0, 18 * PS, AccessKind.READ)
        original = (bytes(range(1, 7)) * PS)[2 * PS : 3 * PS]
        assert machine.read_page(pid, 18) == original

    def test_mprotect_unmapped_range_raises(self):
        machine = plain_machine()
        pid = machine.create_process(uid=0)
        machine.mmap(pid, "rw", 2, at=16)
        with pytest.raises(UnmappedRangeError):
            machine.mprotect(pid, 16, 4, "r")

    def test_mprotect_applies_to_present_pages(self):
        machine = plain_machine()
        pid = machine.create_process(uid=0)
        machine.mmap(pid, "rw", 1, at=16)
        machine.access(pid, 1, 0, 16 * PS, AccessKind.WRITE, b"x")
        machine.mprotect(pid, 16, 1, "r")
        assert machine.access(pid, 1, 0, 16 * PS, AccessKind.WRITE, b"y") is AccessResult.SEGV_DELIVERED
        assert machine.read_page(pid, 16)[:1] == b"x"

    @pytest.mark.parametrize("n", [10**8, 10**20])
    def test_mprotect_cost_follows_present_pages_not_range_size(self, n):
        machine = shadow_machine()
        pid = machine.create_process(uid=0)
        machine.mmap(pid, "rw", n, at=16)
        touched = 16 + n // 2
        machine.access(pid, 1, 0, touched * PS, AccessKind.WRITE, b"x")
        t0 = time.perf_counter()
        machine.mprotect(pid, 16, n, "rx")
        elapsed = time.perf_counter() - t0
        pte = machine.spaces[pid].ptes[touched]
        # gained X: the next fetch must re-run the content check
        assert (pte.writable, pte.exec_disabled, pte.orig_exe, pte.orig_write) == (
            False, True, True, False,
        )
        assert machine.access(pid, 1, 0, touched * PS, AccessKind.FETCH) is AccessResult.OK
        assert elapsed < 1.0

    def test_small_mprotect_cost_does_not_follow_process_size(self):
        ps = 64
        machine = shadow_machine(page_size=ps)
        pid = machine.create_process(uid=0)
        n = 2 * 10**4
        machine.mmap(pid, "rw", n, at=16)
        for vpage in range(16, 16 + n):
            machine.access(pid, 1, 0, vpage * ps, AccessKind.WRITE, b"x")
        t0 = time.perf_counter()
        for i in range(2000):
            machine.mprotect(pid, 16 + i % 8, 1, "rx" if i // 8 % 2 == 0 else "rw")
        elapsed = time.perf_counter() - t0
        ptes = machine.spaces[pid].ptes
        assert [ptes[16 + i].writable for i in range(8)] == [True] * 8
        assert machine.access(pid, 1, 0, 16 * ps, AccessKind.FETCH) is AccessResult.SEGV_DELIVERED
        assert elapsed < 1.0

    def test_shootdown_cost_does_not_follow_cpu_count(self):
        machine = shadow_machine()
        pid = machine.create_process(uid=0)
        machine.mmap(pid, "wx", 1, at=16)
        t0 = time.perf_counter()
        for cpu in range(10**4):
            assert machine.access(pid, 1, cpu, 16 * PS, AccessKind.WRITE, b"\x90") is AccessResult.OK
            assert machine.access(pid, 1, cpu, 16 * PS, AccessKind.FETCH) is AccessResult.OK
        elapsed = time.perf_counter() - t0
        # every flip shot down the previous cpu's entry: only the last fetch's stays
        assert machine.spaces[pid].ptes[16].tlb == {10**4 - 1: (False, False)}
        assert wx_violations(machine) == []
        assert elapsed < 1.0

    def test_kill_cost_does_not_follow_machine_size(self):
        ps = 64
        machine = plain_machine(page_size=ps)
        pids = [machine.create_process(uid=0) for _ in range(2 * 10**4)]
        for i, pid in enumerate(pids):
            machine.mmap(pid, "rw", 1, at=16)
            machine.access(pid, 1, i % 4, 16 * ps, AccessKind.READ)
        t0 = time.perf_counter()
        for pid in pids[::10]:
            machine.kill_process(pid)
        elapsed = time.perf_counter() - t0
        for i, pid in enumerate(pids):
            tlb = machine.spaces[pid].ptes[16].tlb
            assert tlb == ({} if i % 10 == 0 else {i % 4: (True, True)})
        assert elapsed < 0.5

    def test_area_lookup_cost_does_not_follow_area_count(self):
        ps = 64
        machine = plain_machine(page_size=ps)
        pid = machine.create_process(uid=0)
        n = 8000
        t0 = time.perf_counter()
        for i in range(n):
            machine.mmap(pid, "r" if i % 2 == 0 else "rw", 1, at=16 + i)
        for vpage in range(16, 16 + n):
            assert machine.access(pid, 1, 0, vpage * ps, AccessKind.READ) is AccessResult.OK
        elapsed = time.perf_counter() - t0
        areas = machine.spaces[pid].areas
        assert [(a.start_vpage, a.perms()) for a in areas] == [
            (16 + i, "r" if i % 2 == 0 else "rw") for i in range(n)
        ]
        assert elapsed < 1.0

    def test_mprotect_cost_does_not_follow_area_count(self):
        machine = plain_machine(page_size=64)
        pid = machine.create_process(uid=0)
        n = 4000
        for i in range(n):  # one-page areas with one-page holes between, so nothing merges
            machine.mmap(pid, "r" if i % 2 == 0 else "rw", 1, at=16 + 2 * i)
        t0 = time.perf_counter()
        for i in range(n):
            machine.mprotect(pid, 16 + 2 * i, 1, "rx")
        elapsed = time.perf_counter() - t0
        assert len(machine.spaces[pid].areas) == n
        assert elapsed < 1.0

    def test_mmap_merges_touching_equal_neighbours(self):
        machine = plain_machine()
        pid = machine.create_process(uid=0)
        space = machine.spaces[pid]
        machine.mmap(pid, "rw", 2, at=16)
        area = machine.mmap(pid, "rw", 2, at=18)
        assert [(a.start_vpage, a.n_pages, a.perms()) for a in space.areas] == [(16, 4, "rw")]
        assert area is space.areas[0]
        machine.mmap(pid, "r", 1, at=20)
        machine.mmap(pid, "wx", 2, at=30)
        machine.mmap(pid, "wx", 2, at=34)
        area = machine.mmap(pid, "wx", 2, at=32)  # fills the hole between them
        assert [(a.start_vpage, a.n_pages, a.perms()) for a in space.areas] == [
            (16, 4, "rw"),
            (20, 1, "r"),
            (30, 6, "wx"),
        ]
        assert area is space.areas[2]

    def test_overlap_error_names_the_first_overlapped_area(self):
        machine = plain_machine()
        pid = machine.create_process(uid=0)
        machine.mmap(pid, "rw", 2, at=16)
        machine.mmap(pid, "rw", 2, at=18)  # merges into [16, 20)
        machine.mmap(pid, "r", 2, at=21)
        before = list(machine.spaces[pid].areas)
        with pytest.raises(OverlapError, match=r"mapping \[15, 23\) overlaps \[16, 20\)$"):
            machine.mmap(pid, "rx", 8, at=15)
        assert machine.spaces[pid].areas == before

    def test_a_refused_edit_past_the_cursor_leaves_it_alone(self):
        machine = plain_machine()
        pid = machine.create_process(uid=0)
        space = machine.spaces[pid]
        machine.mmap(pid, "rw", 4)  # [16, 20)
        before = list(space.areas)
        with pytest.raises(OverlapError, match=r"mapping \[18, 26\) overlaps \[16, 20\)$"):
            machine.mmap(pid, "rx", 8, at=18)
        with pytest.raises(UnmappedRangeError, match=r"vpages \[18, 26\) not fully mapped$"):
            machine.mprotect(pid, 18, 8, "rx")
        assert space.areas == before and space.mmap_cursor == 20

    def test_flipping_every_page_and_back_leaves_one_area(self):
        machine = plain_machine()
        pid = machine.create_process(uid=0)
        machine.mmap(pid, "rw", 400, at=16)
        for vpage in range(16, 416):
            machine.mprotect(pid, vpage, 1, "rx")
            machine.mprotect(pid, vpage, 1, "rw")
        assert [(a.start_vpage, a.n_pages, a.perms()) for a in machine.spaces[pid].areas] == [
            (16, 400, "rw"),
        ]


class TestFreeRange:
    """A range that no area overlaps or touches: an mmap is one insert, an
    mprotect the same UnmappedRangeError as any partly mapped range."""

    def test_an_mmap_into_a_hole_inserts_between_untouched_neighbours(self):
        machine = plain_machine()
        pid = machine.create_process(uid=0)
        space = machine.spaces[pid]
        left = machine.mmap(pid, "rw", 2, at=16)
        right = machine.mmap(pid, "rw", 2, at=30)
        area = machine.mmap(pid, "rw", 3, at=22)  # gaps [18, 22) and [25, 30) keep all three
        assert len(space.areas) == 3
        assert all(a is b for a, b in zip(space.areas, (left, area, right)))
        assert [(a.start_vpage, a.n_pages, a.perms()) for a in space.areas] == [
            (16, 2, "rw"), (22, 3, "rw"), (30, 2, "rw"),
        ]

    def test_an_mmap_below_the_cursor_leaves_it_alone(self):
        machine = plain_machine()
        pid = machine.create_process(uid=0)
        space = machine.spaces[pid]
        machine.mmap(pid, "rx", 4)  # [16, 20)
        machine.mmap(pid, "rw", 2, at=40)
        assert space.mmap_cursor == 42
        machine.mmap(pid, "rw", 3, at=25)
        machine.mmap(pid, "r", 1, at=2)
        assert space.mmap_cursor == 42
        assert machine.mmap(pid, "r", 1).start_vpage == 42

    @pytest.mark.parametrize("areas", [(), ((16, 2), (30, 2))])
    @pytest.mark.parametrize("start, n", [(22, 3), (2, 3), (40, 2)])
    def test_an_mprotect_over_a_hole_raises_and_changes_nothing(self, areas, start, n):
        machine = plain_machine()
        pid = machine.create_process(uid=0)
        space = machine.spaces[pid]
        for at, pages in areas:
            machine.mmap(pid, "rw", pages, at=at)
        before, cursor = list(space.areas), space.mmap_cursor
        error = rf"^pid 1: vpages \[{start}, {start + n}\) not fully mapped$"
        with pytest.raises(UnmappedRangeError, match=error):
            machine.mprotect(pid, start, n, "rx")
        assert len(space.areas) == len(before)
        assert all(a is b for a, b in zip(space.areas, before))
        assert space.mmap_cursor == cursor


PERMS = ["", "r", "w", "x", "rw", "rx", "wx", "rwx"]


def _area_map_step(rng, machine, pid, perms_model, bytes_model, ps):
    """One random MMAP, MPROTECT or touch, applied to machine and models alike."""
    space = machine.spaces[pid]
    roll = rng.random()
    if roll < 0.2:
        n = rng.randint(1, 6)
        at = None if rng.random() < 0.3 else rng.randrange(16, 80)
        backing = None
        if rng.random() < 0.6:
            backing = bytes(rng.randrange(1, 256) for _ in range(rng.randrange(n * ps + 1)))
        start = space.mmap_cursor if at is None else at
        if any(v in perms_model for v in range(start, start + n)):
            before, cursor = list(space.areas), space.mmap_cursor
            perms = rng.choice(PERMS)
            with pytest.raises(ValueError if perms == "" else OverlapError):
                machine.mmap(pid, perms, n, backing=backing, at=at)
            assert space.areas == before and space.mmap_cursor == cursor
            return
        perms = rng.choice(PERMS)
        if perms == "":  # the trace grammar's refusal, made by the machine too
            before, cursor = list(space.areas), space.mmap_cursor
            with pytest.raises(ValueError, match="bad perms"):
                machine.mmap(pid, perms, n, backing=backing, at=at)
            assert space.areas == before and space.mmap_cursor == cursor
            return
        area = machine.mmap(pid, perms, n, backing=backing, at=at)
        assert any(a is area for a in space.areas) and area.perms() == perms
        assert area.start_vpage <= start and start + n <= area.end_vpage
        image = backing or b""
        for i in range(n):
            perms_model[start + i] = perms
            bytes_model[start + i] = image[i * ps : (i + 1) * ps].ljust(ps, b"\x00")
        return
    if roll < 0.6 and space.areas:
        area = rng.choice(space.areas)
        how = rng.choice(["inside", "flush-start", "flush-end", "across"])
        if how == "inside":
            start = rng.randrange(area.start_vpage, area.end_vpage)
            end = rng.randint(start + 1, area.end_vpage)
        elif how == "flush-start":
            start, end = area.start_vpage, rng.randint(area.start_vpage + 1, area.end_vpage)
        elif how == "flush-end":
            start, end = rng.randrange(area.start_vpage, area.end_vpage), area.end_vpage
        else:  # across boundaries, and over holes where the areas do not touch
            start = rng.randrange(area.start_vpage, area.end_vpage)
            end = start + rng.randint(1, 12)
        perms = rng.choice(PERMS)
        if perms == "":
            before = list(space.areas)
            with pytest.raises(ValueError, match="bad perms"):
                machine.mprotect(pid, start, end - start, perms)
            assert space.areas == before
            return
        if any(v not in perms_model for v in range(start, end)):
            before = list(space.areas)
            snapshot = [(a.start_vpage, a.n_pages, a.perms()) for a in before]
            with pytest.raises(UnmappedRangeError):
                machine.mprotect(pid, start, end - start, perms)
            assert space.areas == before
            assert [(a.start_vpage, a.n_pages, a.perms()) for a in space.areas] == snapshot
            return
        machine.mprotect(pid, start, end - start, perms)
        for v in range(start, end):
            perms_model[v] = perms
        return
    vpage = rng.randrange(14, space.mmap_cursor + 2)
    perms = perms_model.get(vpage, "")
    if rng.random() < 0.5:
        data = bytes([rng.randrange(1, 256)])
        off = rng.randrange(ps)
        result = machine.access(pid, 1, 0, vpage * ps + off, AccessKind.WRITE, data)
        assert (result is AccessResult.OK) == ("w" in perms)
        if "w" in perms:
            page = bytes_model[vpage]
            bytes_model[vpage] = page[:off] + data + page[off + 1 :]
    else:
        result = machine.access(pid, 1, 0, vpage * ps, AccessKind.READ)
        assert result is AccessResult.SEGV_DELIVERED or vpage in perms_model
    return False


@pytest.mark.parametrize("seed", range(8))
def test_area_map_matches_per_page_model(seed):
    rng = random.Random(seed)
    ps = 8
    machine = plain_machine(page_size=ps)
    pid = machine.create_process(uid=0)
    space = machine.spaces[pid]
    perms_model: dict[int, str] = {}  # vpage -> perms of every mapped page
    bytes_model: dict[int, bytes] = {}  # vpage -> the page's content
    for _ in range(400):
        _area_map_step(rng, machine, pid, perms_model, bytes_model, ps)
        areas = space.areas
        assert all(a.n_pages > 0 for a in areas)
        assert all(a.end_vpage <= b.start_vpage for a, b in zip(areas, areas[1:]))
        for vpage in range(0, space.mmap_cursor + 2):
            area = space.find_area(vpage)
            assert (None if area is None else area.perms()) == perms_model.get(vpage)
        assert not any(
            a.end_vpage == b.start_vpage and a.perms() == b.perms()
            for a, b in zip(areas, areas[1:])
        )
        for vpage in space.ptes:
            assert machine.read_page(pid, vpage) == bytes_model[vpage]


class PermissiveStub:
    """Fault engine that records each hook's arguments and allows every trap unchanged."""

    def __init__(self):
        self.calls = []

    def on_materialize(self, space, area, vpage, kind):
        self.calls.append(("on_materialize", space, area, vpage, kind))
        return AccessResult.OK

    def handle_write_fault(self, area, pte):
        self.calls.append(("handle_write_fault", area, pte))
        return AccessResult.OK

    def handle_exec_fault(self, space, area, pte, vpage):
        self.calls.append(("handle_exec_fault", space, area, pte, vpage))
        return AccessResult.OK


class RecordingPlainEngine(BaselineEngine):
    """The plain engine, recording each on_mprotect call."""

    def __init__(self, machine):
        super().__init__(machine)
        self.mprotects = []

    def on_mprotect(self, pte, area):
        self.mprotects.append((pte, area))
        super().on_mprotect(pte, area)


class TestPerPageMprotect:
    """Machine.mprotect hands the engine one present page of its range at a
    time, with the area now holding it, and flushes that page after."""

    def _machine(self):
        machine = Machine(page_size=PS)
        engine = RecordingPlainEngine(machine)
        machine.attach_engine(engine)
        pid = machine.create_process(uid=0)
        machine.mmap(pid, "rw", 8, at=16)
        machine.mmap(pid, "rw", 1, at=30)
        for vpage in (16, 17, 19, 22, 30):
            assert machine.access(pid, 1, 1, vpage * PS, AccessKind.READ) is AccessResult.OK
        return machine, engine, machine.spaces[pid]

    def _check(self, machine, engine, space, start, n, perms):
        machine.mprotect(space.pid, start, n, perms)
        vpage_of = {id(pte): vpage for vpage, pte in space.ptes.items()}
        seen = sorted(vpage_of[id(pte)] for pte, _ in engine.mprotects)
        in_range = sorted(v for v in space.ptes if start <= v < start + n)
        assert seen == in_range  # once each, none outside the range
        for pte, area in engine.mprotects:
            assert area is space.find_area(vpage_of[id(pte)]) and area.perms() == perms
        for vpage, pte in space.ptes.items():
            assert pte.tlb == ({} if vpage in in_range else {1: (True, True)}), vpage

    def test_a_range_shorter_than_the_present_pages(self):
        machine, engine, space = self._machine()
        self._check(machine, engine, space, 17, 2, "r")  # 2 vpages, 5 present
        assert len(engine.mprotects) == 1

    def test_fewer_present_pages_than_the_range(self):
        machine, engine, space = self._machine()
        self._check(machine, engine, space, 16, 8, "rx")  # 8 vpages, 5 present
        assert len(engine.mprotects) == 4

    def test_both_engines_expose_the_hooks_with_equal_signatures(self):
        shadow, plain = shadow_machine().engine, plain_machine().engine
        params = {
            "on_materialize": ["space", "area", "vpage", "kind"],
            "handle_write_fault": ["area", "pte"],
            "handle_exec_fault": ["space", "area", "pte", "vpage"],
            "on_mprotect": ["pte", "area"],
        }
        for hook, names in params.items():
            assert inspect.signature(getattr(shadow, hook)) == inspect.signature(
                getattr(plain, hook)
            ), hook
            assert list(inspect.signature(getattr(shadow, hook)).parameters) == names, hook


class TestWalk:
    """A TLB miss walks the page entry; only a fault reads the area or calls the engine."""

    TRACE = (
        "PROC uid=1\n"
        "MMAP pid=1 perms=wx pages=1 at=16\n"
        "MMAP pid=1 perms=rw pages=2 at=17\n"
        "WRITE pid=1 tid=1 cpu=0 addr=0x10000 bytes=90\n"  # not present: materialize
        "WRITE pid=1 tid=1 cpu=1 addr=0x10001 bytes=90\n"  # miss, write mode permits
        "READ pid=1 tid=1 cpu=1 addr=0x10000\n"  # hit
        "READ pid=1 tid=1 cpu=2 addr=0x10000\n"  # miss, present implies readable
        "FETCH pid=1 tid=1 cpu=0 addr=0x10000\n"  # hit denies: exec fault, flip, flush
        "FETCH pid=1 tid=1 cpu=1 addr=0x10000\n"  # miss (flushed), exec mode permits
        "READ pid=1 tid=1 cpu=2 addr=0x10000\n"  # miss (flushed)
        "WRITE pid=1 tid=1 cpu=1 addr=0x10002 bytes=90\n"  # hit denies: write fault, flush
        "WRITE pid=1 tid=1 cpu=2 addr=0x10003 bytes=90\n"  # miss, write mode permits
        "READ pid=1 tid=1 cpu=0 addr=0x11000\n"  # not present: materialize
        "WRITE pid=1 tid=1 cpu=1 addr=0x11000 bytes=41\n"  # miss, writable
        "FETCH pid=1 tid=1 cpu=2 addr=0x11000\n"  # exec disabled: exec fault, segv
        "MPROTECT pid=1 start=16 pages=3 perms=rx\n"  # two of three pages present
        "READ pid=1 tid=1 cpu=1 addr=0x11000\n"  # miss (flushed)
        "FETCH pid=1 tid=1 cpu=0 addr=0x11000\n"  # exec fault: checked, flip, flush
        "FETCH pid=1 tid=1 cpu=1 addr=0x11000\n"  # miss, exec mode permits
    )

    def test_a_permitted_miss_reads_no_area_and_calls_no_hook(self, monkeypatch):
        calls = []

        def spy(cls, name):
            real = getattr(cls, name)

            def recording(self, *args):
                calls.append(name)
                return real(self, *args)

            monkeypatch.setattr(cls, name, recording)

        spy(mmu_module.AddressSpace, "find_area")
        for hook in ("on_materialize", "handle_write_fault", "handle_exec_fault", "on_mprotect"):
            spy(ShadowEngine, hook)
        machine = build_run(SimConfig()).machine
        per_event = []
        for event in parse_trace(self.TRACE):
            calls.clear()
            per_event.append((_apply_event(machine, event), calls[:]))
        area_fault = ["find_area", "on_materialize"]
        exec_fault = ["find_area", "handle_exec_fault"]
        assert per_event == [
            ("ok", []), ("ok", []), ("ok", []),
            ("ok", area_fault), ("ok", []), ("ok", []), ("ok", []),
            ("ok", exec_fault), ("ok", []), ("ok", []),
            ("ok", ["find_area", "handle_write_fault"]), ("ok", []),
            ("ok", area_fault), ("ok", []), ("segv_delivered", exec_fault),
            ("ok", ["on_mprotect", "on_mprotect"]),
            ("ok", []), ("ok", exec_fault), ("ok", []),
        ]

    def test_tlb_flush_one_runs_once_per_flushed_page(self, monkeypatch):
        flushed = []
        real = Machine.tlb_flush_one

        def recording(self, pte):
            flushed.append(pte)
            return real(self, pte)

        monkeypatch.setattr(Machine, "tlb_flush_one", recording)
        ctx = build_run(SimConfig())
        lines = []
        for event in parse_trace(self.TRACE):
            before = len(flushed)
            _apply_event(ctx.machine, event)
            lines += [event[1]] * (len(flushed) - before)
        ptes = ctx.machine.spaces[1].ptes
        # the exec flip, the write flip, the two present pages mprotected, the exec flip
        assert lines == [8, 11, 16, 16, 18]
        assert flushed == [ptes[16], ptes[16], ptes[16], ptes[17], ptes[17]]


class RecordingEngine:
    """Wraps an engine and records each fault hook's call by value: pid,
    area range and perms, vpage and kind, so two machines' calls compare."""

    def __init__(self, machine, engine):
        self.machine, self.engine, self.calls = machine, engine, []

    def _vpage(self, pte):
        return next(
            (space.pid, vpage) for space in self.machine.spaces.values()
            for vpage, page in space.ptes.items() if page is pte
        )

    def on_materialize(self, space, area, vpage, kind):
        self.calls.append(("on_materialize", space.pid, area.start_vpage, area.n_pages,
                           area.perms(), vpage, kind))
        return self.engine.on_materialize(space, area, vpage, kind)

    def handle_write_fault(self, area, pte):
        self.calls.append(("handle_write_fault", area.start_vpage, area.n_pages, area.perms(),
                           self._vpage(pte)))
        return self.engine.handle_write_fault(area, pte)

    def handle_exec_fault(self, space, area, pte, vpage):
        self.calls.append(("handle_exec_fault", space.pid, area.start_vpage, area.n_pages,
                           area.perms(), self._vpage(pte), vpage))
        return self.engine.handle_exec_fault(space, area, pte, vpage)

    def on_mprotect(self, pte, area):
        self.engine.on_mprotect(pte, area)


class TestReferencePath:
    """Machine.access, one path per kind, equals the one-path reference
    (conftest.reference_access) step by step."""

    PS = 64
    RULES = "rule s family=t severity=kill sync { 41 42 41 }\n"
    PAIRS = ((False, False), (False, True), (True, False), (True, True))

    def _machine(self, shape):
        suppress, plain, action = shape
        machine = quiet_run(
            parse_rules(self.RULES, self.PS), self.PS, shadow=not plain, detection_action=action,
        ).machine
        if suppress:
            machine.tlb_flush_one = lambda pte: None  # flushes are lost
        recorder = RecordingEngine(machine, machine.engine)
        machine.attach_engine(recorder)
        for uid in (0, 1, 1):
            pid = machine.create_process(uid)
            machine.mmap(pid, "rw", 2, at=16)
            machine.mmap(pid, "rwx", 1, backing=b"AB\x90" * 3, at=18)
            for vpage, perms in ((19, "rx"), (20, "wx"), (21, "r"), (22, "x")):
                machine.mmap(pid, perms, 1, at=vpage)
        return machine, recorder

    @staticmethod
    def _state(machine, recorder):
        return recorder.calls, [
            (space.alive, space.blocked, [area.perms() for area in space.areas], {
                vpage: (bytes(pte.frame), pte.written, dict(pte.tlb),
                        pte.writable, pte.exec_disabled, pte.orig_write, pte.orig_exe)
                for vpage, pte in space.ptes.items()
            })
            for space in machine.spaces.values()
        ]

    @staticmethod
    def _outcome(call):
        try:
            return call()
        except (SimError, ValueError) as err:
            return type(err), str(err)

    def _access(self, rng, n_cpus):
        kind = rng.choice([AccessKind.READ, AccessKind.WRITE, AccessKind.FETCH] * 8
                          + ["exec", None, trace_module.PROC])
        vaddr = rng.randrange(14, 24) * self.PS + rng.randrange(self.PS)
        data = bytes(rng.choice(b"AB\x90") for _ in range(rng.randint(1, 3)))
        if rng.random() < 0.05:
            data = b""
        elif rng.random() < 0.05:
            data *= self.PS  # crosses into the next page
        if kind is not AccessKind.WRITE and rng.random() < 0.8:
            data = None
        return rng.randint(1, 4), rng.randrange(3), rng.randrange(n_cpus), vaddr, kind, data

    def test_access_equals_the_reference(self):
        rng = random.Random(35)
        seen = set()  # the results, error types and hooks met
        for _ in range(60):
            shape = (rng.random() < 0.5, rng.random() < 0.25, rng.choice(["kill", "block"]))
            n_cpus = rng.randint(1, 4)
            fast, fast_rec = self._machine(shape)
            ref, ref_rec = self._machine(shape)
            for _ in range(250):
                roll = rng.random()
                if roll < 0.8:
                    args = self._access(rng, n_cpus)
                    got = self._outcome(lambda: fast.access(*args))
                    want = self._outcome(lambda: reference_access(ref, *args))
                    seen.add(got if isinstance(got, str) else got[0])
                elif roll < 0.9:  # a stale pair on a present page, planted on both
                    pid, cpu = rng.randint(1, 3), rng.randrange(n_cpus)
                    vpages = sorted(fast.spaces[pid].ptes)
                    if vpages:
                        vpage, pair = rng.choice(vpages), rng.choice(self.PAIRS)
                        for machine in (fast, ref):
                            machine.spaces[pid].ptes[vpage].tlb[cpu] = pair
                    got = want = None
                elif roll < 0.97:
                    args = (rng.randint(1, 3), rng.randrange(15, 23), rng.randint(1, 3),
                            rng.choice(["r", "rw", "rx", "wx", "rwx", "x"]))
                    got = self._outcome(lambda: fast.mprotect(*args))
                    want = self._outcome(lambda: ref.mprotect(*args))
                elif roll < 0.985:
                    pid = rng.randint(1, 3)
                    got, want = fast.kill_process(pid), ref.kill_process(pid)
                else:
                    pid = rng.randint(1, 3)
                    fast.spaces[pid].blocked = ref.spaces[pid].blocked = True
                    got = want = None
                assert got == want
                assert self._state(fast, fast_rec) == self._state(ref, ref_rec)
            seen.update(call[0] for call in fast_rec.calls)
        assert seen >= {
            "on_materialize", "handle_write_fault", "handle_exec_fault",
            AccessResult.OK, AccessResult.SEGV_DELIVERED, AccessResult.KILLED,
            AccessResult.BLOCKED, ValueError, DeadProcessError,
        }


class TestFaultEngineContract:
    def test_ok_without_materializing_is_a_sim_error(self):
        machine = Machine(page_size=PS)
        stub = PermissiveStub()
        machine.attach_engine(stub)
        pid = machine.create_process(uid=0)
        area = machine.mmap(pid, "rw", 2, at=16)
        with pytest.raises(SimError, match="allowed read of pid 1 vpage 17 but left it"):
            machine.access(pid, 7, 0, 17 * PS + 3, AccessKind.READ)
        space = machine.spaces[pid]
        assert stub.calls == [("on_materialize", space, area, 17, AccessKind.READ)]
        assert stub.calls[0][1] is space and stub.calls[0][2] is area
        assert space.ptes == {}

    def test_ok_leaving_bits_unchanged_is_a_sim_error(self):
        machine = Machine(page_size=PS)
        machine.attach_engine(BaselineEngine(machine))
        pid = machine.create_process(uid=0)
        area = machine.mmap(pid, "r", 1, at=16)
        assert machine.access(pid, 1, 0, 16 * PS, AccessKind.READ) is AccessResult.OK
        stub = PermissiveStub()
        machine.attach_engine(stub)
        space = machine.spaces[pid]
        pte = space.ptes[16]
        with pytest.raises(SimError, match="allowed write of pid 1 vpage 16 but left it"):
            machine.access(pid, 2, 1, 16 * PS + 1, AccessKind.WRITE, b"w")
        with pytest.raises(SimError, match="allowed fetch of pid 1 vpage 16 but left it"):
            machine.access(pid, 3, 1, 16 * PS + 2, AccessKind.FETCH)
        assert stub.calls == [
            ("handle_write_fault", area, pte),
            ("handle_exec_fault", space, area, pte, 16),
        ]
        assert stub.calls[0][2] is pte and stub.calls[1][3] is pte


    def test_a_fault_with_no_engine_attached_is_a_sim_error(self):
        machine = Machine(page_size=64)
        pid = machine.create_process(uid=0)
        machine.mmap(pid, "rw", 1, at=16)
        with pytest.raises(SimError, match="^no fault engine attached$"):
            machine.access(pid, 1, 0, 16 * 64, AccessKind.READ)
        assert machine.spaces[pid].ptes == {}

    def test_a_forbidding_or_missing_area_never_reaches_the_engine(self):
        machine = Machine(page_size=PS)
        stub = PermissiveStub()
        machine.attach_engine(stub)
        pid = machine.create_process(uid=0)
        machine.mmap(pid, "r", 1, at=16)
        space = machine.spaces[pid]
        result = machine.access(pid, 1, 0, 16 * PS, AccessKind.WRITE, b"w")
        assert result is AccessResult.SEGV_DELIVERED
        result = machine.access(pid, 1, 0, 40 * PS, AccessKind.FETCH)  # unmapped hole
        assert result is AccessResult.SEGV_DELIVERED
        assert stub.calls == []
        assert space.ptes == {}


def test_every_public_name_resolves():
    assert [n for n in jitscan.__all__ if not hasattr(jitscan, n)] == []


@pytest.mark.parametrize("page_size, error", [
    (0, "page_size must be positive, got 0"),
    (-1, "page_size must be positive, got -1"),
    (2**21 + 1, "page_size must be <= 2097152, got 2097153"),
], ids=["0", "-1", "2097153"])
def test_every_entry_point_refuses_a_page_size_out_of_range(page_size, error):
    # one check in mmu.py; parse_rules and parse_trace raise it before reading a line
    trace = (
        "PROC uid=1\nMMAP pid=1 perms=rw pages=1\n"
        "WRITE pid=1 tid=1 cpu=0 addr=0x10000 bytes=41\n"
    )
    entry_points = [
        lambda: Machine(page_size=page_size),
        lambda: replay(trace, None, SimConfig(page_size=page_size)),
        lambda: RuleSet((), page_size),
        lambda: parse_rules("rule r family=f severity=kill { 41 42 }\n", page_size=page_size),
        lambda: parse_trace(trace, page_size),
    ]
    for entry_point in entry_points:
        with pytest.raises(ValueError, match=f"^{error}$") as caught:
            entry_point()
        assert not isinstance(caught.value, (RuleSyntaxError, TraceError))
