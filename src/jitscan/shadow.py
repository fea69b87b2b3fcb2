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
mode and the fetch proceeds.  Every flag edit is followed by a
cross-CPU flush of that page's TLB entry; without it a stale entry on
another CPU would let writes land on a page that is currently
executable.

Every executable page starts in write mode, whatever touched it first,
so its first fetch checks it; a page of an area without execute rights
is plain data, with both orig_* bits clear.  ``_set_mode`` is the one
place a page's four bits are set, from its area and whether it is
checked.  Each hook takes the space, area and page entry
``Machine.access`` resolved.

A content check costs what was written, not the page: the sync check
and the snapshot's async scan look only at windows around the spans
written since the page's last checked fetch (``PageTableEntry.written``),
and go back to the whole page after a match.  A blank page (no mmap
image) of an executable area starts with an empty span list when no rule
matches a zero page (``RuleSet.zero_page_clean``), so even its first
check covers only the bytes written; any other page's is whole.

``respond`` is the single point where a process is killed or blocked,
for the sync check, the flood guard and the async agent alike;
``signature_hit`` is the one place a signature match is recorded.
"""

from __future__ import annotations

from .guard import DosGuard
from .mmu import AccessKind, AccessResult, AddressSpace, Machine, PageTableEntry, VmArea
from .pipeline import PageSnapshot, SnapshotTable
from .report import ActionTaken, Detection, Report
from .signatures import RuleSet, SignatureRule, sync_check


def respond(
    machine: Machine, report: Report, pid: int, uid: int, action: str, cause: str,
    rule: str | None = None, path: str | None = None,
) -> AccessResult:
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
        report.actions.append(ActionTaken(pid, uid, action, cause, rule=rule, path=path))
    return AccessResult.KILLED if action == "kill" else AccessResult.BLOCKED


def signature_hit(
    machine: Machine, report: Report, rule: SignatureRule, pid: int, uid: int,
    vpage: int, offset: int, path: str, detection_action: str,
) -> AccessResult:
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
        return AccessResult.OK
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


def _shadow_relabel(pte: PageTableEntry, area: VmArea) -> None:
    """Shadow bits of a present page whose area now has area's permissions.

    A page stays checked only if it is in exec mode and the edit grants no
    w that orig_write, its area's w when it was checked, lacks; a new x
    cannot reach a page in exec mode, which only an executable area holds.
    """
    _set_mode(pte, area, not pte.exec_disabled and (pte.orig_write or not area.logical_w))


def _plain_relabel(pte: PageTableEntry, area: VmArea) -> None:
    pte.writable = area.logical_w
    pte.exec_disabled = not area.logical_x


class ShadowEngine:
    """Fault hooks implementing the shadow state machine."""

    def __init__(
        self,
        machine: Machine,
        rules: RuleSet | None = None,
        pipeline: SnapshotTable | None = None,
        guard: DosGuard | None = None,
        *,
        sync_check_enabled: bool = True,
        detection_action: str = "kill",
        report: Report | None = None,
    ):
        if detection_action not in ("kill", "block", "alert"):
            raise ValueError(f"bad detection action {detection_action!r}")
        self.machine = machine
        self.rules = rules
        self.pipeline = pipeline
        self.guard = guard
        self.sync_check_enabled = sync_check_enabled
        self.detection_action = detection_action
        self.report = report if report is not None else Report()

    # ---- fault hooks ---------------------------------------------------

    def on_materialize(
        self, space: AddressSpace, area: VmArea | None, vpage: int, vaddr: int, tid: int,
        kind: AccessKind,
    ) -> AccessResult:
        """Not-present fault: install the page unchecked; a fetch then checks it."""
        if area is None or not area.permits(kind):
            return AccessResult.SEGV_DELIVERED  # nothing materializes
        blank = area.logical_x and vpage not in space.images  # tested before the pop
        pte = self.machine.install_page(space, vpage)
        if blank and self.rules is not None and self.rules.zero_page_clean:
            pte.written = []
        _set_mode(pte, area, checked=False)
        if kind is AccessKind.FETCH:
            # materialize-then-check in one step: a single snapshot
            return self.handle_exec_fault(space, area, pte, vpage, vaddr, tid)
        return AccessResult.OK

    def handle_write_fault(
        self, space: AddressSpace, area: VmArea, pte: PageTableEntry, vpage: int,
    ) -> AccessResult:
        """Write trap: shadow-induced ones flip the page to write mode."""
        if not area.logical_w or not pte.orig_write:
            return AccessResult.SEGV_DELIVERED
        _set_mode(pte, area, checked=False)
        self.machine.tlb_flush_one(space.pid, vpage)
        return AccessResult.OK

    def handle_exec_fault(
        self, space: AddressSpace, area: VmArea, pte: PageTableEntry, vpage: int, vaddr: int,
        tid: int,
    ) -> AccessResult:
        """Fetch trap: check content, snapshot it, flip to exec mode."""
        if not pte.orig_exe:
            return AccessResult.SEGV_DELIVERED
        result = self._checked_fetch(space, pte, vpage, vaddr, tid)
        if result is not AccessResult.OK:
            return result
        _set_mode(pte, area, checked=True)
        self.machine.tlb_flush_one(space.pid, vpage)
        return AccessResult.OK

    def on_mprotect(self, pid: int, start_vpage: int, n_pages: int, perms: str) -> None:
        """Update logical permissions and each present page's mode."""
        self.machine.relabel(pid, start_vpage, n_pages, perms, _shadow_relabel)

    # ---- the exec-side content check ------------------------------------

    def _checked_fetch(
        self, space: AddressSpace, pte: PageTableEntry, vpage: int, vaddr: int, tid: int,
    ) -> AccessResult:
        """Sync check, flood-guard admission, snapshot emission."""
        machine = self.machine
        pid, uid = space.pid, space.uid
        content = bytes(pte.frame)
        spans, pte.written = pte.written, []
        if self.sync_check_enabled and self.rules is not None:
            hit = sync_check(content, self.rules, spans)
            if hit is not None:
                pte.written = None  # the next check must see this match again
                result = signature_hit(
                    machine, self.report, self.rules.by_name[hit.rule], pid, uid,
                    vpage, hit.offset, "sync", self.detection_action,
                )
                if result is not AccessResult.OK:
                    return result
        if self.guard is not None:
            admission = self.guard.admit(uid, pid, machine.now)
            if not admission.admitted:
                return respond(machine, self.report, pid, uid, admission.action, "throttle")
        if self.pipeline is not None:
            # Every return above stops the process for good (a blocked one
            # never traps again), so a page's snapshots pair one to one
            # with its checked fetches, and spans are the bytes written
            # since the page's previous snapshot.
            self.pipeline.enqueue(
                PageSnapshot(
                    content=content, offset=vaddr % machine.page_size, vaddr=vaddr,
                    vpage=vpage, pid=pid, tid=tid, uid=uid, spans=spans,
                )
            )
        return AccessResult.OK


class BaselineEngine:
    """Plain demand paging: logical permissions applied verbatim.

    No shadow bits, no checks, no snapshots; violations are genuine and
    deliver a segv.  Used to show the shadow engine changes nothing a
    well-behaved program can observe.
    """

    def __init__(self, machine: Machine):
        self.machine = machine

    def on_materialize(
        self, space: AddressSpace, area: VmArea | None, vpage: int, vaddr: int, tid: int,
        kind: AccessKind,
    ) -> AccessResult:
        if area is None or not area.permits(kind):
            return AccessResult.SEGV_DELIVERED
        _plain_relabel(self.machine.install_page(space, vpage), area)
        return AccessResult.OK

    def handle_write_fault(
        self, space: AddressSpace, area: VmArea, pte: PageTableEntry, vpage: int,
    ) -> AccessResult:
        return AccessResult.SEGV_DELIVERED

    def handle_exec_fault(
        self, space: AddressSpace, area: VmArea, pte: PageTableEntry, vpage: int, vaddr: int,
        tid: int,
    ) -> AccessResult:
        return AccessResult.SEGV_DELIVERED

    def on_mprotect(self, pid: int, start_vpage: int, n_pages: int, perms: str) -> None:
        self.machine.relabel(pid, start_vpage, n_pages, perms, _plain_relabel)
