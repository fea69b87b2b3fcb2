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
"""

from __future__ import annotations

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
    """One page's physical flags plus the two spare shadow bits."""

    present: bool = False
    writable: bool = False
    exec_disabled: bool = False
    orig_write: bool = False
    orig_exe: bool = False
    frame: bytearray | None = None  # the page's bytes while present


@dataclass
class VmArea:
    """A contiguous mapping with logical (requested) permissions.

    ``backing`` is the initial image copied in at materialization,
    zero-padded per page; ``None`` means anonymous zero-fill.
    """

    start_vpage: int
    n_pages: int
    logical_r: bool
    logical_w: bool
    logical_x: bool
    backing: bytes | None = None

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

    def backing_for(self, vpage: int, page_size: int) -> bytes:
        """Initial content of one page, zero-padded past the image end."""
        off = (vpage - self.start_vpage) * page_size
        chunk = b"" if self.backing is None else self.backing[off : off + page_size]
        return chunk.ljust(page_size, b"\x00")

    def split(self, lo: int, hi: int, page_size: int) -> VmArea:
        """A copy of this area restricted to vpages [lo, hi)."""
        off = (lo - self.start_vpage) * page_size
        length = (hi - lo) * page_size
        backing = None if self.backing is None else self.backing[off : off + length]
        return VmArea(lo, hi - lo, self.logical_r, self.logical_w, self.logical_x, backing)


@dataclass
class AddressSpace:
    pid: int
    uid: int
    areas: list[VmArea] = field(default_factory=list)
    ptes: dict[int, PageTableEntry] = field(default_factory=dict)
    alive: bool = True
    blocked: bool = False
    mmap_cursor: int = 16  # next auto-placed area start, in vpages

    def find_area(self, vpage: int) -> VmArea | None:
        for area in self.areas:
            if area.contains(vpage):
                return area
        return None

    def carve(self, start: int, n_pages: int, page_size: int) -> list[VmArea]:
        """Split areas at the [start, start+n) boundaries.

        Returns the pieces exactly covering the range; raises if any
        page in the range is unmapped.
        """
        end = start + n_pages
        covered = 0
        kept: list[VmArea] = []
        pieces: list[VmArea] = []
        for area in self.areas:
            a0, a1 = area.start_vpage, area.end_vpage
            if a1 <= start or a0 >= end:
                kept.append(area)
                continue
            lo, hi = max(a0, start), min(a1, end)
            covered += hi - lo
            if a0 < lo:
                kept.append(area.split(a0, lo, page_size))
            mid = area.split(lo, hi, page_size)
            pieces.append(mid)
            kept.append(mid)
            if hi < a1:
                kept.append(area.split(hi, a1, page_size))
        if covered != n_pages:
            raise UnmappedRangeError(
                f"pid {self.pid}: vpages [{start}, {end}) not fully mapped"
            )
        kept.sort(key=lambda a: a.start_vpage)
        self.areas = kept
        pieces.sort(key=lambda a: a.start_vpage)
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
        areas = sorted(image or [], key=lambda a: a.start_vpage)
        for prev, cur in zip(areas, areas[1:]):
            if cur.start_vpage < prev.end_vpage:
                raise OverlapError(
                    f"areas overlap at vpage {cur.start_vpage}"
                )
        pid = self._next_pid
        self._next_pid += 1
        space = AddressSpace(pid=pid, uid=uid, areas=areas)
        if areas:
            space.mmap_cursor = max(space.mmap_cursor, areas[-1].end_vpage)
        self.spaces[pid] = space
        return pid

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
        area = VmArea(start, n_pages, "r" in perms, "w" in perms, "x" in perms, backing)
        for existing in space.areas:
            if area.start_vpage < existing.end_vpage and existing.start_vpage < area.end_vpage:
                raise OverlapError(
                    f"pid {pid}: mapping [{area.start_vpage}, {area.end_vpage}) overlaps"
                    f" [{existing.start_vpage}, {existing.end_vpage})"
                )
        space.areas.append(area)
        space.areas.sort(key=lambda a: a.start_vpage)
        space.mmap_cursor = max(space.mmap_cursor, area.end_vpage)
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
        for area in space.carve(start_vpage, n_pages, self.page_size):
            old_w, old_x = area.logical_w, area.logical_x
            area.logical_r = "r" in perms
            area.logical_w = "w" in perms
            area.logical_x = "x" in perms
            # walk the fewer of the piece's vpages and the pid's present pages
            vpages = range(area.start_vpage, area.end_vpage)
            for vpage in vpages if len(vpages) <= len(space.ptes) else space.ptes:
                pte = space.ptes.get(vpage)
                if pte is not None and pte.present and area.contains(vpage):
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
        area: VmArea,
        vpage: int,
        *,
        writable: bool,
        exec_disabled: bool,
        orig_exe: bool = False,
    ) -> PageTableEntry:
        pte = PageTableEntry(
            present=True,
            writable=writable,
            exec_disabled=exec_disabled,
            orig_exe=orig_exe,
            frame=bytearray(area.backing_for(vpage, self.page_size)),
        )
        space.ptes[vpage] = pte
        return pte

    def read_page(self, pid: int, vpage: int) -> bytes:
        space = self.space(pid, require_alive=False)
        pte = space.ptes.get(vpage)
        if pte is None or not pte.present:
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
                if pte.present:
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
                if pte is not None and pte.present:
                    # stale flags honored: no walk, no refill
                    self._apply(pte, vaddr, kind, data)
                    return AccessResult.OK
            # a trapping access drops the local entry (the walk redoes it)
            del cpu.tlb[key]

        area = space.find_area(vpage)
        pte = space.ptes.get(vpage)
        result = AccessResult.OK
        if area is None or pte is None or not pte.present:
            result = self.engine.on_materialize(space, area, vpage, vaddr, tid, kind)
        elif kind is AccessKind.WRITE and not pte.writable:
            result = self.engine.handle_write_fault(space, area, pte, vpage)
        elif kind is AccessKind.FETCH and pte.exec_disabled:
            result = self.engine.handle_exec_fault(space, area, pte, vpage, vaddr, tid)
        if result is not AccessResult.OK:
            return result

        pte = space.ptes.get(vpage)
        if pte is None or not pte.present or not _permits(kind, pte.writable, pte.exec_disabled):
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
