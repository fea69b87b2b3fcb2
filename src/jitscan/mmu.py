"""Simulated address spaces: page tables, demand paging, TLB entries.

Everything here is deterministic and single-threaded: one logical
simulation thread applies accesses in trace order.  Each simulated CPU
has an infinite TLB caching the (writable, exec_disabled) pair a page
walk last produced, and that entry is stored on the page entry it
caches, keyed by CPU id, so a hit, fill, trap, flush or kill touches
only the pages involved.  Stale entries are honored on purpose; a
permission edit becomes visible to a CPU only once the page's entry is
flushed or the access traps.  Fault handling is delegated to a
pluggable engine, the shadow W^X engine or a plain baseline, whose
hooks take the space, area and page entry the access walk resolved and
return the AccessResult the access ends with, OK meaning it proceeds.

An address space keeps its areas sorted, disjoint and merged after every
mmap and mprotect: no two touching areas have equal permissions, so an
edit rebuilds only the areas around its range.  Areas carry permissions
only.  An mmap's initial content waits per page in the space's ``images``
until that page is first touched; an entry in ``ptes`` means it is present.
"""

from __future__ import annotations

import bisect
import enum
import operator
from dataclasses import dataclass, field

DEFAULT_PAGE_SIZE = 4096

# most written spans a page keeps before its next check goes whole-page
MAX_WRITTEN_SPANS = 8


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


@dataclass(slots=True)
class PageTableEntry:
    """One present page's physical flags, the two spare shadow bits and its bytes.

    ``written`` lists the in-page ``[lo, hi)`` spans written since the
    page's last clean content check, in write order.  None means the next
    check must cover the whole page: the page was never checked, its last
    check found a match, or it took more than MAX_WRITTEN_SPANS writes.
    A blank page of an executable area starts at ``[]`` instead when the
    rule set cannot match a zero page: its zeros are a clean check.
    Only ``Machine._apply`` adds a span, and only to a list.
    ``tlb`` maps a CPU id to the (writable, exec_disabled) pair that CPU
    cached at its last walk of the page.
    """

    frame: bytearray
    writable: bool = False
    exec_disabled: bool = False
    orig_write: bool = False
    orig_exe: bool = False
    written: list[tuple[int, int]] | None = None
    tlb: dict[int, tuple[bool, bool]] = field(default_factory=dict)


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

    def permits(self, kind: AccessKind) -> bool:
        # x86-flavored: a writable mapping is implicitly readable
        if kind is AccessKind.READ:
            return self.logical_r or self.logical_w
        if kind is AccessKind.WRITE:
            return self.logical_w
        return self.logical_x

    def part(self, start: int, end: int) -> VmArea:
        """This area's permissions over vpages [start, end); itself if that is all of it."""
        if start == self.start_vpage and end - start == self.n_pages:
            return self
        return VmArea(start, end - start, self.logical_r, self.logical_w, self.logical_x)

    def perms(self) -> str:
        return ("r" if self.logical_r else "") + ("w" if self.logical_w else "") + (
            "x" if self.logical_x else ""
        )


@dataclass
class AddressSpace:
    """One process's areas, initial page images and page table.

    ``areas`` is sorted by start, disjoint and merged (see the module docstring).
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
    mmap_cursor: int = 16  # next auto-placed area start, in vpages: past every area

    def find_area(self, vpage: int) -> VmArea | None:
        i = bisect.bisect_right(self.areas, vpage, key=_start)
        if i and vpage < self.areas[i - 1].end_vpage:
            return self.areas[i - 1]
        return None

    def insert(self, area: VmArea) -> VmArea:
        """Map area's free range; returns the area now holding it (see _splice)."""
        return self._splice(area, False)

    def protect(self, start: int, n_pages: int, perms: str) -> VmArea:
        """Give mapped vpages [start, start+n) perms; returns the area now holding them."""
        return self._splice(VmArea(start, n_pages, "r" in perms, "w" in perms, "x" in perms), True)

    def _splice(self, new: VmArea, mapped: bool) -> VmArea:
        """Put new in place of the areas that overlap or touch its range.

        Raises, changing nothing, unless it is all mapped (if mapped) or all
        free.  Outer parts of the first and last stay; alike ones merge into new.
        """
        areas = self.areas
        start, end = new.start_vpage, new.end_vpage
        i = bisect.bisect_left(areas, start, key=_start)
        lo = i - 1 if i and areas[i - 1].end_vpage >= start else i
        hi = bisect.bisect_right(areas, end, i, key=_start)
        covered = 0
        for area in areas[lo:hi]:  # a touching area covers 0
            a0, a1 = area.start_vpage, area.start_vpage + area.n_pages
            covered += (a1 if a1 < end else end) - (a0 if a0 > start else start)
            if covered and not mapped:
                raise OverlapError(
                    f"pid {self.pid}: mapping [{start}, {end}) overlaps"
                    f" [{area.start_vpage}, {area.end_vpage})"
                )
        if mapped and covered != end - start:
            raise UnmappedRangeError(f"pid {self.pid}: vpages [{start}, {end}) not fully mapped")
        self.mmap_cursor = max(self.mmap_cursor, end)
        edit = []
        if lo < hi:
            first, last = areas[lo], areas[hi - 1]
            if _perms(first) == _perms(new):
                start = min(start, first.start_vpage)
            elif first.start_vpage < start:
                edit.append(first.part(first.start_vpage, start))
            if _perms(last) == _perms(new):
                end = max(end, last.end_vpage)
            new = new.part(start, end)
        edit.append(new)
        if lo < hi and last.end_vpage > end:
            edit.append(last.part(end, last.end_vpage))
        areas[lo:hi] = edit
        return new


_start = operator.attrgetter("start_vpage")
_perms = operator.attrgetter("logical_r", "logical_w", "logical_x")


def _permits(kind: AccessKind, writable: bool, exec_disabled: bool) -> bool:
    if kind is AccessKind.WRITE:
        return writable
    if kind is AccessKind.FETCH:
        return not exec_disabled
    return True  # present implies readable


class Machine:
    """The simulated machine: processes, frames, logical clock.

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
        area = space.insert(VmArea(start, n_pages, "r" in perms, "w" in perms, "x" in perms))
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

        rule(pte, area) re-derives each present page's bits from the area
        now holding the range (a page in exec mode still carries its former
        area's w in orig_write), then the page is flushed from every TLB.
        """
        space = self.space(pid)
        area = space.protect(start_vpage, n_pages, perms)
        end, ptes = start_vpage + n_pages, space.ptes
        # walk the fewer of the range's vpages and the pid's present pages
        for vpage in range(start_vpage, end) if n_pages <= len(ptes) else ptes:
            pte = ptes.get(vpage)
            if pte is not None and start_vpage <= vpage < end:
                rule(pte, area)
                self.tlb_flush_one(pid, vpage)

    def kill_process(self, pid: int) -> None:
        space = self.space(pid, require_alive=False)
        if not space.alive:
            return  # idempotent
        space.alive = False
        for pte in space.ptes.values():
            pte.tlb.clear()

    # ---- page plumbing ------------------------------------------------

    def install_page(self, space: AddressSpace, vpage: int) -> PageTableEntry:
        """Make vpage present, its bits clear, its frame the mmap image zero-padded."""
        frame = bytearray(self.page_size)
        image = space.images.pop(vpage, b"")
        frame[: len(image)] = image
        pte = PageTableEntry(frame)
        space.ptes[vpage] = pte
        return pte

    def read_page(self, pid: int, vpage: int) -> bytes:
        space = self.space(pid, require_alive=False)
        pte = space.ptes.get(vpage)
        if pte is None:
            raise PageNotPresentError(f"pid {pid}: vpage {vpage} not present")
        return bytes(pte.frame)

    def tlb_flush_one(self, pid: int, vpage: int) -> None:
        """Drop the page's entry on every CPU that holds one."""
        pte = self.space(pid, require_alive=False).ptes.get(vpage)
        if pte is not None and not self.suppress_tlb_flush:
            pte.tlb.clear()

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
        vpage = vaddr // self.page_size
        pte = space.ptes.get(vpage)
        cached = pte.tlb.get(cpu_id) if pte is not None else None
        if cached is not None:
            writable, exec_disabled = cached
            if _permits(kind, writable, exec_disabled):
                # stale flags honored: no walk, no refill
                self._apply(pte, vaddr, kind, data)
                return AccessResult.OK
            # a trapping access drops the local entry (the walk redoes it)
            del pte.tlb[cpu_id]

        area = space.find_area(vpage)
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
        pte.tlb[cpu_id] = (pte.writable, pte.exec_disabled)
        return AccessResult.OK

    def _apply(self, pte: PageTableEntry, vaddr: int, kind: AccessKind, data: bytes | None) -> None:
        if kind is AccessKind.WRITE:
            off = vaddr % self.page_size
            end = off + len(data)
            pte.frame[off:end] = data
            written = pte.written
            if written is not None:
                if len(written) < MAX_WRITTEN_SPANS:
                    written.append((off, end))
                else:
                    pte.written = None
