"""Simulated address spaces: page tables, demand paging, per-CPU TLBs.

Everything here is deterministic and single-threaded: one logical
simulation thread applies accesses in trace order, and each simulated
CPU keeps an infinite TLB caching the (writable, exec_disabled) pair a
page walk last produced.  Stale entries are honored on purpose; a
permission edit becomes visible to a CPU only once the page's entry is
flushed or the access traps.  Fault handling is delegated to a
pluggable engine, the shadow W^X engine or a plain baseline, whose
hooks take the space, area and page entry the access walk resolved and
return the AccessResult the access ends with, OK meaning it proceeds.

An address space keeps its areas sorted, disjoint and merged: after an
mprotect no two touching areas have equal permissions.  Areas carry
permissions only.  An mmap's initial content waits per page in the
space's ``images`` until that page is first touched, and an entry in
``ptes`` means the page is present.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass, field

DEFAULT_PAGE_SIZE = 4096


class SimError(Exception):
    """Invalid request against the simulated machine."""


class UnknownProcessError(SimError):
    pass


class DeadProcessError(SimError):
    pass


class OverlapError(SimError):
    pass


class UnmappedRangeError(SimError):
    pass


class PageNotPresentError(SimError):
    pass


class AccessKind(str, enum.Enum):
    READ = "read"
    WRITE = "write"
    FETCH = "fetch"


class AccessResult(str, enum.Enum):
    OK = "ok"
    SEGV_DELIVERED = "segv_delivered"
    KILLED = "killed"
    BLOCKED = "blocked"


@dataclass
class PageTableEntry:
    """One present page's physical flags, the two spare shadow bits and its bytes."""

    frame: bytearray
    writable: bool = False
    exec_disabled: bool = False
    orig_write: bool = False
    orig_exe: bool = False


@dataclass
class VmArea:
    """A contiguous mapping with logical (requested) permissions."""

    start_vpage: int
    n_pages: int
    logical_r: bool
    logical_w: bool
    logical_x: bool

    @property
    def end_vpage(self) -> int:
        return self.start_vpage + self.n_pages

    def contains(self, vpage: int) -> bool:
        return self.start_vpage <= vpage < self.end_vpage

    def permits(self, kind: AccessKind) -> bool:
        # x86-flavored: a writable mapping is implicitly readable
        if kind is AccessKind.READ:
            return self.logical_r or self.logical_w
        if kind is AccessKind.WRITE:
            return self.logical_w
        return self.logical_x

    def perms(self) -> str:
        return ("r" if self.logical_r else "") + ("w" if self.logical_w else "") + (
            "x" if self.logical_x else ""
        )


@dataclass
class AddressSpace:
    """One process's areas, initial page images and page table.

    ``areas`` is sorted by start and disjoint, and ``protect`` keeps it
    merged: no two touching areas have equal permissions after it.
    ``images`` maps a vpage to the mmap content it starts with, held
    until the page is first touched; ``ptes`` holds the present pages.
    """

    pid: int
    uid: int
    areas: list[VmArea] = field(default_factory=list)
    images: dict[int, memoryview] = field(default_factory=dict)
    ptes: dict[int, PageTableEntry] = field(default_factory=dict)
    alive: bool = True
    blocked: bool = False
    mmap_cursor: int = 16  # next auto-placed area start, in vpages

    def find_area(self, vpage: int) -> VmArea | None:
        for area in self.areas:
            if area.contains(vpage):
                return area
        return None

    def insert(self, area: VmArea) -> None:
        """Add area in start order; raises if it overlaps a mapped page."""
        for other in self.areas:
            if area.start_vpage < other.end_vpage and other.start_vpage < area.end_vpage:
                raise OverlapError(
                    f"pid {self.pid}: mapping [{area.start_vpage}, {area.end_vpage}) overlaps"
                    f" [{other.start_vpage}, {other.end_vpage})"
                )
        bisect.insort(self.areas, area, key=lambda a: a.start_vpage)
        self.mmap_cursor = max(self.mmap_cursor, area.end_vpage)

    def protect(self, start: int, n_pages: int, perms: str) -> list[tuple[int, int, bool, bool]]:
        """Give vpages [start, start+n) perms, merging touching areas left equal.

        Returns (lo, hi, old_w, old_x) for each former area's part of the
        range, in order; raises, changing nothing, if any page in the
        range is unmapped.
        """
        end = start + n_pages
        new = ("r" in perms, "w" in perms, "x" in perms)
        pieces: list[tuple[int, int, bool, bool]] = []
        runs: list[list] = []  # [start, end, (r, w, x), the area while nothing cut or grew it]
        for area in self.areas:
            a0 = area.start_vpage
            a1 = a0 + area.n_pages
            old = (area.logical_r, area.logical_w, area.logical_x)
            cuts = ((a0, a1, old, area),)
            if a0 < end and start < a1:
                lo, hi = max(a0, start), min(a1, end)
                pieces.append((lo, hi, old[1], old[2]))
                cuts = ((a0, lo, old, None), (lo, hi, new, None), (hi, a1, old, None))
            for c0, c1, rwx, whole in cuts:
                if c0 == c1:
                    continue
                if runs and runs[-1][1] == c0 and runs[-1][2] == rwx:
                    runs[-1][1], runs[-1][3] = c1, None
                else:
                    runs.append([c0, c1, rwx, whole])
        if sum(hi - lo for lo, hi, _, _ in pieces) != n_pages:
            raise UnmappedRangeError(
                f"pid {self.pid}: vpages [{start}, {end}) not fully mapped"
            )
        self.areas = [whole or VmArea(c0, c1 - c0, *rwx) for c0, c1, rwx, whole in runs]
        return pieces


@dataclass
class SimCpu:
    cpu_id: int
    # (pid, vpage) -> (writable, exec_disabled) as of the last walk
    tlb: dict[tuple[int, int], tuple[bool, bool]] = field(default_factory=dict)


def _permits(kind: AccessKind, writable: bool, exec_disabled: bool) -> bool:
    if kind is AccessKind.WRITE:
        return writable
    if kind is AccessKind.FETCH:
        return not exec_disabled
    return True  # present implies readable


class Machine:
    """The simulated machine: processes, frames, CPUs, logical clock.

    A fault engine must be attached before accesses run.  Per trap,
    ``access`` calls on_materialize(space, area, vpage, vaddr, tid, kind)
    for a page not present, handle_write_fault(space, area, pte, vpage) for
    a denied write or handle_exec_fault(space, area, pte, vpage, vaddr, tid)
    for a denied fetch.  Each applies any kill or block (see the shadow
    module) and returns the AccessResult of the access, OK to proceed.
    """

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE, suppress_tlb_flush: bool = False):
        if page_size < 1:
            raise ValueError("page_size must be positive")
        self.page_size = page_size
        self.suppress_tlb_flush = suppress_tlb_flush
        self.spaces: dict[int, AddressSpace] = {}
        self.cpus: dict[int, SimCpu] = {}
        self.now = 0
        self.engine = None
        self._next_pid = 1

    def attach_engine(self, engine) -> None:
        self.engine = engine

    # ---- processes and mappings -------------------------------------

    def create_process(self, uid: int, image: list[VmArea] | None = None) -> int:
        space = AddressSpace(pid=self._next_pid, uid=uid)
        for area in image or []:
            space.insert(area)
        self._next_pid += 1
        self.spaces[space.pid] = space
        return space.pid

    def space(self, pid: int, require_alive: bool = True) -> AddressSpace:
        space = self.spaces.get(pid)
        if space is None:
            raise UnknownProcessError(f"no such pid {pid}")
        if require_alive and not space.alive:
            raise DeadProcessError(f"pid {pid} is dead")
        return space

    def mmap(
        self,
        pid: int,
        perms: str,
        n_pages: int,
        backing: bytes | None = None,
        at: int | None = None,
    ) -> VmArea:
        if n_pages < 1:
            raise ValueError("n_pages must be >= 1")
        space = self.space(pid)
        start = space.mmap_cursor if at is None else at
        area = VmArea(start, n_pages, "r" in perms, "w" in perms, "x" in perms)
        space.insert(area)
        if backing is not None:
            image, ps = memoryview(backing), self.page_size
            for off in range(0, min(len(image), n_pages * ps), ps):
                space.images[start + off // ps] = image[off : off + ps]
        return area

    def mprotect(self, pid: int, start_vpage: int, n_pages: int, perms: str) -> None:
        if n_pages < 1:
            raise ValueError("n_pages must be >= 1")
        self.engine.on_mprotect(pid, start_vpage, n_pages, perms)

    def relabel(self, pid: int, start_vpage: int, n_pages: int, perms: str, rule) -> None:
        """Set the logical perms of vpages [start, start+n) of pid.

        rule(pte, area, old_w, old_x) re-derives each present page's bits,
        then the page is flushed from every TLB.
        """
        space = self.space(pid)
        pieces = space.protect(start_vpage, n_pages, perms)
        area = space.find_area(start_vpage)  # the merged range lies in one area
        for lo, hi, old_w, old_x in pieces:
            # walk the fewer of the piece's vpages and the pid's present pages
            for vpage in range(lo, hi) if hi - lo <= len(space.ptes) else space.ptes:
                pte = space.ptes.get(vpage)
                if pte is not None and lo <= vpage < hi:
                    rule(pte, area, old_w, old_x)
                    self.tlb_flush_one(pid, vpage)

    def kill_process(self, pid: int) -> None:
        space = self.space(pid, require_alive=False)
        if not space.alive:
            return  # idempotent
        space.alive = False
        for cpu in self.cpus.values():
            for key in [k for k in cpu.tlb if k[0] == pid]:
                del cpu.tlb[key]

    # ---- page plumbing ------------------------------------------------

    def cpu(self, cpu_id: int) -> SimCpu:
        cpu = self.cpus.get(cpu_id)
        if cpu is None:
            cpu = self.cpus[cpu_id] = SimCpu(cpu_id)
        return cpu

    def install_page(
        self,
        space: AddressSpace,
        vpage: int,
        *,
        writable: bool,
        exec_disabled: bool,
        orig_exe: bool = False,
    ) -> PageTableEntry:
        """Make vpage present, its frame the page's mmap image zero-padded."""
        frame = bytearray(self.page_size)
        image = space.images.pop(vpage, b"")
        frame[: len(image)] = image
        pte = PageTableEntry(
            frame, writable=writable, exec_disabled=exec_disabled, orig_exe=orig_exe,
        )
        space.ptes[vpage] = pte
        return pte

    def read_page(self, pid: int, vpage: int) -> bytes:
        space = self.space(pid, require_alive=False)
        pte = space.ptes.get(vpage)
        if pte is None:
            raise PageNotPresentError(f"pid {pid}: vpage {vpage} not present")
        return bytes(pte.frame)

    def tlb_flush_one(self, pid: int, vpage: int) -> None:
        """Drop one page's entry from every CPU (broadcast shootdown)."""
        if self.suppress_tlb_flush:
            return
        key = (pid, vpage)
        for cpu in self.cpus.values():
            cpu.tlb.pop(key, None)

    def memory_map(self) -> dict[tuple[int, int], bytes]:
        """Present page contents keyed by (pid, vpage)."""
        out: dict[tuple[int, int], bytes] = {}
        for pid, space in self.spaces.items():
            for vpage, pte in space.ptes.items():
                out[(pid, vpage)] = bytes(pte.frame)
        return out

    # ---- the access path ----------------------------------------------

    def access(
        self,
        pid: int,
        tid: int,
        cpu_id: int,
        vaddr: int,
        kind: AccessKind,
        data: bytes | None = None,
    ) -> AccessResult:
        """One memory access: TLB lookup, walk, fault dispatch, retry.

        Returns how the access ended; raises SimError for requests that
        are invalid regardless of page state (unknown or dead pid,
        malformed write payload).
        """
        space = self.space(pid)
        if space.blocked:
            return AccessResult.BLOCKED
        if kind is AccessKind.WRITE:
            if not data:
                raise ValueError("write access requires payload bytes")
            if (vaddr % self.page_size) + len(data) > self.page_size:
                raise ValueError("write payload crosses a page boundary")
        cpu = self.cpu(cpu_id)
        vpage = vaddr // self.page_size
        key = (pid, vpage)
        cached = cpu.tlb.get(key)
        if cached is not None:
            writable, exec_disabled = cached
            if _permits(kind, writable, exec_disabled):
                pte = space.ptes.get(vpage)
                if pte is not None:
                    # stale flags honored: no walk, no refill
                    self._apply(pte, vaddr, kind, data)
                    return AccessResult.OK
            # a trapping access drops the local entry (the walk redoes it)
            del cpu.tlb[key]

        area = space.find_area(vpage)
        pte = space.ptes.get(vpage)
        result = AccessResult.OK
        if area is None or pte is None:
            result = self.engine.on_materialize(space, area, vpage, vaddr, tid, kind)
        elif kind is AccessKind.WRITE and not pte.writable:
            result = self.engine.handle_write_fault(space, area, pte, vpage)
        elif kind is AccessKind.FETCH and pte.exec_disabled:
            result = self.engine.handle_exec_fault(space, area, pte, vpage, vaddr, tid)
        if result is not AccessResult.OK:
            return result

        pte = space.ptes.get(vpage)
        if pte is None or not _permits(kind, pte.writable, pte.exec_disabled):
            raise SimError(
                f"fault engine allowed {kind.value} of pid {pid} vpage {vpage}"
                " but left it impermissible"
            )
        self._apply(pte, vaddr, kind, data)
        cpu.tlb[key] = (pte.writable, pte.exec_disabled)
        return AccessResult.OK

    def _apply(self, pte: PageTableEntry, vaddr: int, kind: AccessKind, data: bytes | None) -> None:
        if kind is AccessKind.WRITE:
            off = vaddr % self.page_size
            pte.frame[off : off + len(data)] = data
