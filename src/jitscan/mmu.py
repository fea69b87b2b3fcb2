"""Simulated address spaces: page tables, demand paging, TLB entries.

Everything here is deterministic and single-threaded: one logical
simulation thread applies accesses in trace order.  Each simulated CPU
has an infinite TLB caching the (writable, exec_disabled) pair a page
walk last produced, and that entry is stored on the page entry it
caches, keyed by CPU id, so a hit, fill, trap, flush or kill touches
only the pages involved.  Stale entries are honored on purpose; a
permission edit becomes visible to a CPU only once the page's entry is
flushed or the access traps.  As in a software MMU, each access kind
has its own hit and miss path, and only a fault leaves it: a TLB miss
walks the page entry alone, as a hardware walk does, so a present page
whose bits permit the access fills the TLB at once, and the areas are
read only when the walk faults.
Fault handling is delegated to a pluggable engine, the shadow W^X engine
or a plain baseline, whose hooks act on one page the machine resolved: a
fault hook takes the parts of the access it reads (see Machine) and
returns the result it ends with, OK meaning it proceeds;
on_mprotect(pte, area) takes one present page of an mprotect's range.

An access kind is READ, FETCH or WRITE, the trace's first three op codes;
an access result is OK, SEGV_DELIVERED, KILLED or BLOCKED, the outcome key
a report counts it under.  ``AccessKind`` and ``AccessResult`` name them.

An address space keeps its areas sorted, disjoint and merged after every
mmap and mprotect: no two touching areas have equal permissions, so an
edit rebuilds only the areas around its range.  Areas carry permissions
only.  An mmap's initial content waits per page in the space's ``images``
until that page is first touched; an entry in ``ptes`` means it is present.
Only this module reads a space's ``areas`` or ``images``: each area edit
goes through ``AddressSpace._splice``, each image out through ``install_page``.
"""

from __future__ import annotations

import bisect
import operator
from itertools import permutations

DEFAULT_PAGE_SIZE = 4096

# the perms an area may have: every non-empty subset of rwx, each letter at
# most once, in any order (the trace grammar takes the same set)
_PERMS = frozenset("".join(p) for n in (1, 2, 3) for p in permutations("rwx", n))

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


# the access kinds and results (see the module docstring)
READ, FETCH, WRITE = range(3)
OK, SEGV_DELIVERED, KILLED, BLOCKED = "ok", "segv_delivered", "killed", "blocked"
_KIND_NAMES = ("read", "fetch", "write")  # indexed by kind, for error text


class AccessKind:
    READ, FETCH, WRITE = READ, FETCH, WRITE


class AccessResult:
    OK, SEGV_DELIVERED, KILLED, BLOCKED = OK, SEGV_DELIVERED, KILLED, BLOCKED


class PageTableEntry:
    """One present page's physical flags, the two spare shadow bits and its bytes.

    ``written`` lists the in-page ``[lo, hi)`` spans written since the
    page's last clean content check, in write order.  None means the next
    check must cover the whole page: nothing has checked its content, its
    last check found a match, or it took more than MAX_WRITTEN_SPANS writes.
    A page of an executable area starts at ``[]`` when its content is known
    clean: its mmap image found nothing when walked at install, or, with
    no image, the rule set cannot match a zero page.  A data page made
    executable by mprotect is walked then, and starts at ``[]`` the same way.
    With a rule set that cannot match a zero page, such a walk covers only
    the frame's nonzero extent (see the shadow module).
    Only ``Machine._write`` adds a span, and only to a list.
    ``tlb`` maps a CPU id to the (writable, exec_disabled) pair that CPU
    cached at its last walk of the page.
    """

    __slots__ = ("frame", "writable", "exec_disabled", "orig_write", "orig_exe", "written", "tlb")

    def __init__(self, frame: bytearray):
        self.frame, self.written, self.tlb = frame, None, {}
        self.writable = self.exec_disabled = self.orig_write = self.orig_exe = False


class VmArea:
    """A contiguous mapping with logical (requested) permissions; never edited."""

    __slots__ = ("start_vpage", "n_pages", "end_vpage", "logical_r", "logical_w", "logical_x")

    def __init__(
        self, start_vpage: int, n_pages: int, logical_r: bool, logical_w: bool, logical_x: bool,
    ):
        self.start_vpage, self.n_pages = start_vpage, n_pages
        self.end_vpage = start_vpage + n_pages
        self.logical_r, self.logical_w, self.logical_x = logical_r, logical_w, logical_x

    def permits(self, kind: int) -> bool:
        # x86-flavored: every mapping is readable (no execute-only pages),
        # as every present page is (see Machine.access's fault tail)
        if kind is READ:
            return True
        if kind is WRITE:
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


class AddressSpace:
    """One process's areas, initial page images and page table.

    ``areas`` is sorted by start, disjoint and merged (see the module
    docstring); only ``_splice`` edits it.  ``images`` maps a vpage to the
    mmap content it starts with, held until ``Machine.install_page`` takes
    it at the page's first touch; ``ptes`` holds the present pages.
    """

    __slots__ = ("pid", "uid", "areas", "images", "ptes", "alive", "blocked", "mmap_cursor")

    def __init__(self, pid: int, uid: int):
        self.pid, self.uid = pid, uid
        self.areas: list[VmArea] = []
        self.images: dict[int, memoryview] = {}
        self.ptes: dict[int, PageTableEntry] = {}
        self.alive, self.blocked = True, False
        self.mmap_cursor = 16  # next auto-placed area start, in vpages: past every area

    def find_area(self, vpage: int) -> VmArea | None:
        i = bisect.bisect_right(self.areas, vpage, key=_start)
        if i and vpage < self.areas[i - 1].end_vpage:
            return self.areas[i - 1]
        return None

    def _splice(self, start: int, n_pages: int, perms: str, mapped: bool) -> VmArea:
        """Give vpages [start, start+n) perms; returns the area now holding them.

        Raises, changing nothing, unless the range is all mapped (if mapped,
        an mprotect) or all free (an mmap).  The new area replaces the areas
        that overlap or touch it: outer parts of the first and last stay,
        alike ones merge into it.  ``mmap_cursor`` moves past the range.
        """
        areas = self.areas
        end = start + n_pages
        new = VmArea(start, n_pages, "r" in perms, "w" in perms, "x" in perms)
        i = bisect.bisect_left(areas, start, key=_start)
        lo = i - 1 if i and areas[i - 1].end_vpage >= start else i
        hi = bisect.bisect_right(areas, end, i, key=_start)
        if lo != hi or mapped:  # else free and touching no area: nothing to check
            covered = 0
            for area in areas[lo:hi]:  # a touching area covers 0
                a0, a1 = area.start_vpage, area.end_vpage
                covered += (a1 if a1 < end else end) - (a0 if a0 > start else start)
                if covered and not mapped:
                    raise OverlapError(
                        f"pid {self.pid}: mapping [{start}, {end}) overlaps [{a0}, {a1})"
                    )
            if mapped and covered != n_pages:
                raise UnmappedRangeError(
                    f"pid {self.pid}: vpages [{start}, {end}) not fully mapped"
                )
        if end > self.mmap_cursor:
            self.mmap_cursor = end
        if lo == hi:  # an mmap of a free range that touches no area (mprotect raised)
            areas.insert(lo, new)
            return new
        first, last = areas[lo], areas[hi - 1]
        edit = []
        if _perms(first) == _perms(new):
            start = min(start, first.start_vpage)
        elif first.start_vpage < start:
            edit.append(first.part(first.start_vpage, start))
        if _perms(last) == _perms(new):
            end = max(end, last.end_vpage)
        new = new.part(start, end)
        edit.append(new)
        if last.end_vpage > end:
            edit.append(last.part(end, last.end_vpage))
        areas[lo:hi] = edit
        return new


_start = operator.attrgetter("start_vpage")
_perms = operator.attrgetter("logical_r", "logical_w", "logical_x")


# the largest page size, x86-64's 2 MiB huge page: a page is allocated whole
MAX_PAGE_SIZE = 2**21


def check_page_size(page_size: int) -> None:
    """ValueError unless 1 <= page_size <= MAX_PAGE_SIZE: the one check of every entry point."""
    if page_size < 1:
        raise ValueError(f"page_size must be positive, got {page_size}")
    if page_size > MAX_PAGE_SIZE:
        raise ValueError(f"page_size must be <= {MAX_PAGE_SIZE}, got {page_size}")


def _check_request(perms: str, n_pages: int) -> None:
    """ValueError unless an mmap or mprotect asks for _PERMS over one page or more."""
    if perms not in _PERMS:
        raise ValueError(f"bad perms {perms!r} (subset of rwx)")
    if n_pages < 1:
        raise ValueError("n_pages must be >= 1")


class _NoEngine:
    """``Machine.engine`` until ``attach_engine``: every hook raises SimError."""

    def _missing(self, *args):
        raise SimError("no fault engine attached")

    on_materialize = handle_write_fault = handle_exec_fault = on_mprotect = _missing


# The four TLB entries, indexed [writable][exec_disabled]: a fill shares
# one instead of building a GC-tracked tuple per miss.
_TLB_ENTRIES = (((False, False), (False, True)), ((True, False), (True, True)))


class Machine:
    """The simulated machine: processes, frames, logical clock.

    Until ``attach_engine``, every engine hook raises SimError.  ``access``
    branches once on the kind, and a TLB hit or a miss on a present page
    whose bits permit the access stays on that kind's path, reading
    neither the areas nor the engine.  Per trap, the one shared tail
    reads the page's area, then calls on_materialize(space, area, vpage,
    kind) for a not-present page whose area permits the access (else the
    access ends SEGV_DELIVERED),
    handle_write_fault(area, pte) for a denied write or
    handle_exec_fault(space, area, pte, vpage) for a denied fetch.  Each
    applies any kill or block (see the shadow module) and returns the
    result of the access, OK to proceed.
    ``mprotect`` calls on_mprotect(pte, area) per present page in range, then flushes it.
    Every flush of a live page goes through ``tlb_flush_one``; a test fakes
    a lost flush by replacing it on its machine.  ``kill_process`` clears
    a dead process's entries itself.
    """

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE):
        check_page_size(page_size)
        self.page_size = page_size
        self.spaces: dict[int, AddressSpace] = {}
        self.now = 0
        self.engine = _NoEngine()  # faults raise until attach_engine; hits never read it
        self._next_pid = 1

    def attach_engine(self, engine) -> None:
        self.engine = engine

    # ---- processes and mappings -------------------------------------

    def create_process(self, uid: int) -> int:
        """A new process with no areas mapped; ``mmap`` maps them."""
        space = AddressSpace(self._next_pid, uid)
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
        _check_request(perms, n_pages)
        ps = self.page_size
        if backing is not None and len(backing) > n_pages * ps:
            raise ValueError(f"content is {len(backing)} bytes, more than {n_pages} page(s) of {ps}")
        if at is not None and at < 0:
            raise ValueError(f"at must be >= 0, got {at}")
        space = self.space(pid)
        start = space.mmap_cursor if at is None else at
        area = space._splice(start, n_pages, perms, False)
        if backing is not None:
            image = memoryview(backing)
            for off in range(0, len(image), ps):
                space.images[start + off // ps] = image[off : off + ps]
        return area

    def mprotect(self, pid: int, start_vpage: int, n_pages: int, perms: str) -> None:
        """Set the logical perms of vpages [start, start+n) of pid.

        on_mprotect(pte, area) re-derives each present page's bits from the
        area now holding the range (a page in exec mode still carries its
        former area's w in orig_write), then the page is flushed from every TLB.
        """
        _check_request(perms, n_pages)
        space = self.space(pid)
        area = space._splice(start_vpage, n_pages, perms, True)
        end, ptes = start_vpage + n_pages, space.ptes
        # walk the fewer of the range's vpages and the pid's present pages
        for vpage in range(start_vpage, end) if n_pages <= len(ptes) else ptes:
            pte = ptes.get(vpage)
            if pte is not None and start_vpage <= vpage < end:
                self.engine.on_mprotect(pte, area)
                self.tlb_flush_one(pte)

    def kill_process(self, pid: int) -> None:
        space = self.space(pid, require_alive=False)
        if not space.alive:
            return  # idempotent
        space.alive = False
        for pte in space.ptes.values():
            pte.tlb.clear()

    # ---- page plumbing ------------------------------------------------

    def install_page(self, space: AddressSpace, vpage: int) -> tuple[PageTableEntry, bool]:
        """Make vpage present, its bits clear, its frame the mmap image zero-padded;
        returns the new page entry and whether an image was copied into it."""
        frame = bytearray(self.page_size)
        image = space.images.pop(vpage, None)
        if image is not None:  # a blank page stays all zero
            frame[: len(image)] = image
        pte = PageTableEntry(frame)
        space.ptes[vpage] = pte
        return pte, image is not None

    def read_page(self, pid: int, vpage: int) -> bytes:
        space = self.space(pid, require_alive=False)
        pte = space.ptes.get(vpage)
        if pte is None:
            raise PageNotPresentError(f"pid {pid}: vpage {vpage} not present")
        return bytes(pte.frame)

    def tlb_flush_one(self, pte: PageTableEntry) -> None:
        """Drop the page's entry on every CPU that holds one."""
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
        self, pid: int, cpu_id: int, vaddr: int, kind: int, data: bytes | None = None,
    ) -> str:
        """One memory access: TLB lookup, walk, fault dispatch, retry.

        Each kind takes its own path once the pid and page entry are
        looked up.  A read of a present page returns OK at once (present
        implies readable), filling the CPU's TLB entry on a miss.  A write
        or fetch honours a cached pair that permits it, drops one that
        denies it, and then walks the page entry: bits that permit it fill
        the TLB with no area lookup and no engine call.  Only a fault, a
        page not present or bits that deny the access, reaches the shared
        tail, which reads the area and dispatches to the engine.  Returns
        how the access ended, BLOCKED at once for a blocked pid.  An
        unknown or dead pid raises its SimError subclass; an empty or
        page-crossing write payload, or a kind other than READ, FETCH and
        WRITE, raises ValueError.  Each raises before any state changes.
        """
        space = self.spaces.get(pid)
        if space is None or not space.alive:
            self.space(pid)  # raises the unknown or dead pid's error
        if space.blocked:
            return BLOCKED
        vpage = vaddr // self.page_size
        pte = space.ptes.get(vpage)
        # stale pairs are honored: a hit neither walks nor refills
        if kind is READ:
            if pte is not None:
                tlb = pte.tlb
                if cpu_id not in tlb:
                    tlb[cpu_id] = _TLB_ENTRIES[pte.writable][pte.exec_disabled]
                return OK
        elif kind is WRITE:
            if not data:
                raise ValueError("write access requires payload bytes")
            off = vaddr % self.page_size
            if off + len(data) > self.page_size:
                raise ValueError("write payload crosses a page boundary")
            if pte is not None:
                tlb = pte.tlb
                cached = tlb.get(cpu_id)
                if cached is not None:
                    if cached[0]:
                        self._write(pte, off, data)
                        return OK
                    del tlb[cpu_id]  # a trapping access drops the local entry
                if pte.writable:
                    self._write(pte, off, data)
                    tlb[cpu_id] = _TLB_ENTRIES[True][pte.exec_disabled]
                    return OK
        elif kind is FETCH:
            if pte is not None:
                tlb = pte.tlb
                cached = tlb.get(cpu_id)
                if cached is not None:
                    if not cached[1]:
                        return OK
                    del tlb[cpu_id]
                if not pte.exec_disabled:
                    tlb[cpu_id] = _TLB_ENTRIES[pte.writable][False]
                    return OK
        else:
            raise ValueError(f"unknown access kind {kind!r}")

        # the walk faults: only now is the area read
        area = space.find_area(vpage)
        if area is None or pte is None:
            if area is None or not area.permits(kind):
                return SEGV_DELIVERED  # nothing materializes
            result = self.engine.on_materialize(space, area, vpage, kind)
        elif kind is WRITE:
            result = self.engine.handle_write_fault(area, pte)
        else:  # a fetch of an exec-disabled page
            result = self.engine.handle_exec_fault(space, area, pte, vpage)
        if result is not OK:
            return result
        pte = space.ptes.get(vpage)  # present implies readable
        if pte is None or kind is WRITE and not pte.writable or kind is FETCH and pte.exec_disabled:
            raise SimError(
                f"fault engine allowed {_KIND_NAMES[kind]} of pid {pid} vpage {vpage}"
                " but left it impermissible"
            )
        if kind is WRITE:
            self._write(pte, off, data)
        pte.tlb[cpu_id] = _TLB_ENTRIES[pte.writable][pte.exec_disabled]
        return OK

    def _write(self, pte: PageTableEntry, off: int, data: bytes) -> None:
        end = off + len(data)
        pte.frame[off:end] = data
        written = pte.written
        if written is not None:
            if len(written) < MAX_WRITTEN_SPANS:
                written.append((off, end))
            else:
                pte.written = None
