"""W^X shadow paging engine, and the plain baseline it replaces.

An executable page never runs unchecked content, and a writable one
never exposes write and execute at once.  Its physical bits alternate
between two modes, W and orig_write following the area's w:

    write mode:  W=<area w> XD=1 orig_exe=1    (unchecked: fetches trap)
    exec mode:   W=0 XD=0 orig_write=<area w>  (checked: writes trap)

The spare orig_* bits mark a trapped access as shadow-induced -- the
masked permission was originally granted -- rather than a genuine
violation.  On a shadow write trap the page flips to write mode and the
write proceeds.  On a shadow fetch trap the page content is checked
(synchronous signature check, then flood-guard admission, then a
snapshot for the asynchronous scanner) before the page flips to exec
mode and the fetch proceeds; the guard's admission sweeps it first, at
the previous event's tick.  Every flag edit is followed
by a cross-CPU flush of that page's TLB entry (``Machine.tlb_flush_one``,
which a test replaces to fake a lost flush); without it a stale entry
on another CPU would let writes land on a page that is currently
executable.

Every executable page starts in write mode, whatever touched it first,
so its first fetch checks it; a page of an area without execute rights
is plain data, with both orig_* bits clear.  ``_set_mode`` is the one
place a page's four bits are set, from its area and whether it is
checked.  Each hook takes one page the machine resolved and only what
it reads of it: the area and page entry, with the space and vpage where
a page is installed or checked, or an mprotected page and its area.

A content check costs what was written, not the page: the sync check
and the snapshot's async scan look only at windows around the spans
written since the page's last checked fetch (``PageTableEntry.written``),
and go back to the whole page after a match.  Content nothing has
checked yet is walked once, with the full rule set, when it becomes
checkable: an executable area's page with an mmap image at install
(its zero-padded frame), and a data page when mprotect moves it into
an executable area.  When no rule matches a zero page
(``RuleSet.zero_page_clean``), every match overlaps a nonzero byte, so
the walk covers only the frame's nonzero extent, from its first nonzero
byte to its last, and an all-zero frame is clean without a scan;
otherwise it covers the whole frame.  The sync rules are a subset of
the full set, so a walk that finds nothing starts the page's span list
empty, and its first fetch checks only the bytes written since; a walk
that finds a match leaves it whole.  A blank page (no mmap image) of an
executable area is not walked: it starts empty when no rule matches a
zero page.

``respond`` is the single point where a process is killed or blocked,
for the sync check, the flood guard and the async agent alike;
``signature_hit`` is the one place a signature match is recorded.
"""

from __future__ import annotations

from .guard import DosGuard
from .mmu import (
    BLOCKED, FETCH, KILLED, OK, SEGV_DELIVERED, AddressSpace, Machine, PageTableEntry, VmArea,
)
from .pipeline import PageSnapshot, SnapshotTable
from .report import ActionTaken, Detection, Report
from .signatures import RuleSet, SignatureRule, scan_page, sync_check

DETECTION_ACTIONS = ("kill", "block", "alert")  # responses to a kill-severity match

# maps every nonzero byte to 1, so a frame's nonzero extent is where its
# translation holds 1s: C-speed at any density, where bytearray.strip
# takes a memchr call per byte it strips
_NONZERO = bytes(1) + b"\1" * 255


def respond(
    machine: Machine, report: Report, pid: int, uid: int, action: str, cause: str,
    rule: str | None = None, path: str | None = None,
) -> str:
    """Kill or block pid, recording the action only if it changed anything.

    A kill applies to a process that is still alive; a block to one that
    is alive and not blocked yet.  Returns how the stopped access ends.
    """
    space = machine.spaces.get(pid)
    if space is not None and space.alive and not (action == "block" and space.blocked):
        if action == "kill":
            machine.kill_process(pid)
        else:
            space.blocked = True
        report.actions.append(ActionTaken(pid, uid, action, cause, rule, path))
    return KILLED if action == "kill" else BLOCKED


def signature_hit(
    machine: Machine, report: Report, rule: SignatureRule, pid: int, uid: int,
    vpage: int, offset: int, path: str, detection_action: str,
) -> str:
    """Record a match of rule at (vpage, offset) and respond to it.

    Kill-severity matches get detection_action, alert-severity ones are
    only recorded.  Returns OK when the process may go on.
    """
    action = detection_action if rule.severity == "kill" else "alert"
    report.detections.append(
        Detection(
            pid=pid, uid=uid, vpage=vpage,
            offset=offset, vaddr=vpage * machine.page_size + offset,
            rule=rule.name, family=rule.family, severity=rule.severity,
            path=path, action=action,
        )
    )
    if action == "alert":
        return OK
    return respond(machine, report, pid, uid, action, "signature", rule.name, path)


def _set_mode(pte: PageTableEntry, area: VmArea, checked: bool) -> None:
    """Set a present page's four bits: exec mode if checked, else write mode.

    A page of an area without x is plain data whatever checked says:
    write mode's bits with both orig_* clear.
    """
    x = area.logical_x
    checked = checked and x
    pte.writable = area.logical_w and not checked
    pte.exec_disabled = not checked
    pte.orig_exe = x and not checked
    pte.orig_write = checked and area.logical_w


def _plain_relabel(pte: PageTableEntry, area: VmArea) -> None:
    pte.writable = area.logical_w
    pte.exec_disabled = not area.logical_x


class ShadowEngine:
    """Fault hooks implementing the shadow state machine; only ``build_run`` wires
    one.  A test keeps a stale TLB entry by replacing ``Machine.tlb_flush_one``."""

    def __init__(
        self, machine: Machine, rules: RuleSet, pipeline: SnapshotTable, guard: DosGuard,
        report: Report, *, sync_check: bool, detection_action: str,
    ):
        self.machine, self.rules, self.pipeline = machine, rules, pipeline
        self.guard, self.report = guard, report
        self.sync_check, self.detection_action = sync_check, detection_action

    # ---- fault hooks ---------------------------------------------------

    def on_materialize(
        self, space: AddressSpace, area: VmArea, vpage: int, kind: int,
    ) -> str:
        """Not-present fault: install the page unchecked; a fetch then checks it."""
        pte, imaged = self.machine.install_page(space, vpage)
        if area.logical_x:
            if imaged:
                self._walk_unknown(pte)
            elif self.rules.zero_page_clean:
                pte.written = []
        _set_mode(pte, area, checked=False)
        if kind is FETCH:
            # materialize-then-check in one step: a single snapshot
            return self.handle_exec_fault(space, area, pte, vpage)
        return OK

    def handle_write_fault(self, area: VmArea, pte: PageTableEntry) -> str:
        """Write trap: shadow-induced ones flip the page to write mode."""
        if not area.logical_w or not pte.orig_write:
            return SEGV_DELIVERED
        _set_mode(pte, area, checked=False)
        self.machine.tlb_flush_one(pte)
        return OK

    def handle_exec_fault(
        self, space: AddressSpace, area: VmArea, pte: PageTableEntry, vpage: int,
    ) -> str:
        """Fetch trap: check content, snapshot it, flip to exec mode."""
        if not pte.orig_exe:
            return SEGV_DELIVERED
        result = self._checked_fetch(space, pte, vpage)
        if result is not OK:
            return result
        _set_mode(pte, area, checked=True)
        self.machine.tlb_flush_one(pte)
        return OK

    def on_mprotect(self, pte: PageTableEntry, area: VmArea) -> None:
        """Shadow bits of one present page of an mprotect's range, whose area is now area.

        A page stays checked only if it is in exec mode and the edit grants no
        w that orig_write, its area's w when it was checked, lacks; a new x
        cannot reach a page in exec mode, which only an executable area holds.
        A data page (exec_disabled, orig_exe clear) that the edit makes
        executable is walked first if its content is unknown.
        """
        if area.logical_x and pte.written is None and pte.exec_disabled and not pte.orig_exe:
            self._walk_unknown(pte)
        _set_mode(pte, area, not pte.exec_disabled and (pte.orig_write or not area.logical_w))

    def _walk_unknown(self, pte: PageTableEntry) -> None:
        """Scan a page's frame with the full set; if clean, its span list starts empty.

        When no rule matches a zero page, every match overlaps a nonzero
        byte: the walk covers the nonzero extent only, and an all-zero
        frame is clean unscanned.  A frame nonzero at both ends is its own
        extent, walked whole without the search.
        """
        frame, spans = pte.frame, None
        if self.rules.zero_page_clean and not (frame[0] and frame[-1]):
            marks = frame.translate(_NONZERO)
            end = marks.rfind(1) + 1
            if not end:
                pte.written = []
                return
            spans = [(marks.find(1), end)]
        if not scan_page(bytes(frame), self.rules, spans):
            pte.written = []

    # ---- the exec-side content check ------------------------------------

    def _checked_fetch(self, space: AddressSpace, pte: PageTableEntry, vpage: int) -> str:
        """Sync check, flood-guard admission, snapshot emission."""
        machine = self.machine
        pid, uid = space.pid, space.uid
        content = bytes(pte.frame)
        spans, pte.written = pte.written, []
        if self.sync_check:
            hit = sync_check(content, self.rules, spans)
            if hit is not None:
                pte.written = None  # the next check must see this match again
                result = signature_hit(
                    machine, self.report, self.rules.by_name[hit.rule], pid, uid,
                    vpage, hit.offset, "sync", self.detection_action,
                )
                if result is not OK:
                    return result
        penalty = self.guard.admit(uid, machine.now)
        if penalty is not None:
            return respond(machine, self.report, pid, uid, penalty, "throttle")
        # Every return above stops the process for good (a blocked one
        # never traps again), so a page's snapshots pair one to one with
        # its checked fetches, and spans are the bytes written since the
        # page's previous snapshot.
        self.pipeline.enqueue(PageSnapshot(content, vpage, pid, uid, spans))
        return OK


class BaselineEngine:
    """Plain demand paging: logical permissions applied verbatim.

    No shadow bits, no checks, no snapshots; violations are genuine and
    deliver a segv.  Used to show the shadow engine changes nothing a
    well-behaved program can observe.
    """

    def __init__(self, machine: Machine):
        self.machine = machine

    def on_materialize(
        self, space: AddressSpace, area: VmArea, vpage: int, kind: int,
    ) -> str:
        _plain_relabel(self.machine.install_page(space, vpage)[0], area)
        return OK

    def handle_write_fault(self, area: VmArea, pte: PageTableEntry) -> str:
        return SEGV_DELIVERED

    def handle_exec_fault(
        self, space: AddressSpace, area: VmArea, pte: PageTableEntry, vpage: int,
    ) -> str:
        return SEGV_DELIVERED

    on_mprotect = staticmethod(_plain_relabel)
