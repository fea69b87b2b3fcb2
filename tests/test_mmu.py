"""Machine basics: demand paging, TLB behavior, process lifecycle."""

from __future__ import annotations

import random
import time

import pytest

import jitscan
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
    VmArea,
)
from jitscan.shadow import BaselineEngine, ShadowEngine

from conftest import wx_violations

PS = 4096


def plain_machine(page_size: int = PS, suppress_tlb_flush: bool = False) -> Machine:
    machine = Machine(page_size=page_size, suppress_tlb_flush=suppress_tlb_flush)
    machine.attach_engine(BaselineEngine(machine))
    return machine


def shadow_machine(page_size: int = PS, suppress_tlb_flush: bool = False) -> Machine:
    machine = Machine(page_size=page_size, suppress_tlb_flush=suppress_tlb_flush)
    machine.attach_engine(ShadowEngine(machine))
    return machine


class TestCreateProcess:
    def test_assigns_sequential_pids(self):
        machine = plain_machine()
        assert machine.create_process(uid=1000) == 1
        assert machine.create_process(uid=1000) == 2
        assert machine.spaces[1].uid == 1000

    def test_image_areas_are_kept_sorted(self):
        machine = plain_machine()
        pid = machine.create_process(
            uid=0,
            image=[VmArea(40, 2, True, False, True), VmArea(16, 4, True, True, False)],
        )
        starts = [a.start_vpage for a in machine.spaces[pid].areas]
        assert starts == [16, 40]

    def test_overlapping_image_rejected(self):
        machine = plain_machine()
        with pytest.raises(OverlapError):
            machine.create_process(
                uid=0,
                image=[VmArea(16, 4, True, True, False), VmArea(18, 1, True, False, False)],
            )

    def test_no_pages_present_before_first_touch(self):
        machine = plain_machine()
        pid = machine.create_process(uid=0, image=[VmArea(16, 8, True, True, False)])
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
        machine.tlb_flush_one(pid, 16)
        ptes = machine.spaces[pid].ptes
        for cpu in (0, 1, 2):
            assert cpu not in ptes[16].tlb
            assert cpu in ptes[17].tlb

    def test_flush_of_uncached_page_is_a_noop(self):
        machine = plain_machine()
        pid = machine.create_process(uid=0)
        machine.tlb_flush_one(pid, 12345)  # nothing cached, nothing raised

    def test_stale_entry_is_honored_until_flushed(self):
        # write perms are revoked behind cpu 1's back; with the flush
        # suppressed its stale entry keeps authorizing writes
        machine = shadow_machine(suppress_tlb_flush=True)
        pid = machine.create_process(uid=0)
        machine.mmap(pid, "wx", 1, at=16)
        machine.access(pid, 1, 1, 16 * PS, AccessKind.WRITE, b"\x90")
        assert machine.access(pid, 1, 0, 16 * PS, AccessKind.FETCH) is AccessResult.OK
        pte = machine.spaces[pid].ptes[16]
        assert (pte.writable, pte.exec_disabled) == (False, False)  # exec mode
        assert pte.tlb[1] == (True, True)  # stale
        assert machine.access(pid, 1, 1, 16 * PS, AccessKind.WRITE, b"\x41") is AccessResult.OK
        assert wx_violations(machine) == [(pid, 16)]

    def test_faulting_cpu_drops_its_own_stale_entry(self):
        machine = shadow_machine(suppress_tlb_flush=True)
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
            before = list(space.areas)
            with pytest.raises(OverlapError):
                machine.mmap(pid, rng.choice(PERMS), n, backing=backing, at=at)
            assert space.areas == before
            return
        perms = rng.choice(PERMS)
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

    def on_materialize(self, space, area, vpage, vaddr, tid, kind):
        self.calls.append(("on_materialize", space, area, vpage, vaddr, tid, kind))
        return AccessResult.OK

    def handle_write_fault(self, space, area, pte, vpage):
        self.calls.append(("handle_write_fault", space, area, pte, vpage))
        return AccessResult.OK

    def handle_exec_fault(self, space, area, pte, vpage, vaddr, tid):
        self.calls.append(("handle_exec_fault", space, area, pte, vpage, vaddr, tid))
        return AccessResult.OK


class TestFaultEngineContract:
    def test_ok_without_materializing_is_a_sim_error(self):
        machine = Machine(page_size=PS)
        stub = PermissiveStub()
        machine.attach_engine(stub)
        pid = machine.create_process(uid=0)
        area = machine.mmap(pid, "rw", 2, at=16)
        with pytest.raises(SimError, match="left it impermissible"):
            machine.access(pid, 7, 0, 17 * PS + 3, AccessKind.READ)
        space = machine.spaces[pid]
        assert stub.calls == [("on_materialize", space, area, 17, 17 * PS + 3, 7, AccessKind.READ)]
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
        with pytest.raises(SimError, match="left it impermissible"):
            machine.access(pid, 2, 1, 16 * PS + 1, AccessKind.WRITE, b"w")
        with pytest.raises(SimError, match="left it impermissible"):
            machine.access(pid, 3, 1, 16 * PS + 2, AccessKind.FETCH)
        assert stub.calls == [
            ("handle_write_fault", space, area, pte, 16),
            ("handle_exec_fault", space, area, pte, 16, 16 * PS + 2, 3),
        ]
        assert all(call[3] is pte for call in stub.calls)


def test_every_public_name_resolves():
    assert [n for n in jitscan.__all__ if not hasattr(jitscan, n)] == []
