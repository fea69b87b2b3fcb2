"""W^X shadow paging engine, and the plain baseline it replaces.

A writable-and-executable page never exposes both permissions at once.
Its physical bits alternate between two modes:

    write mode:  W=1 XD=1 orig_exe=1    (fetches trap)
    exec mode:   W=0 XD=0 orig_write=1  (writes trap)

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

Pages that are executable but never writable get one content check on
the fetch that materializes them and are otherwise left alone; pages
without execute rights never interact with any of this.  Each hook takes
the space, area and page entry ``Machine.access`` resolved.

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


def _shadow_relabel(pte: PageTableEntry, area: VmArea, old_w: bool, old_x: bool) -> None:
    """Shadow bits of a present page whose area now has area's permissions."""
    if area.logical_x:
        gained_x = not old_x
        gained_w = area.logical_w and not old_w
        if gained_x or gained_w:
            # next fetch must re-run the content check
            pte.exec_disabled = True
            pte.writable = area.logical_w
            pte.orig_exe = True
            pte.orig_write = False
        elif pte.orig_exe:
            pte.writable = area.logical_w  # recheck still pending
        elif pte.orig_write:
            pte.writable = False
            if not area.logical_w:
                pte.orig_write = False  # leaves the machine
    else:
        pte.exec_disabled = True
        pte.writable = area.logical_w
        pte.orig_write = False
        pte.orig_exe = False


def _plain_relabel(pte: PageTableEntry, area: VmArea, old_w: bool, old_x: bool) -> None:
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
        """Not-present fault: materialize the page per its area class."""
        if area is None or not area.permits(kind):
            return AccessResult.SEGV_DELIVERED  # nothing materializes
        machine = self.machine
        if area.logical_x and area.logical_w:
            # fetches must trap until the content has been checked
            pte = machine.install_page(
                space, vpage, writable=True, exec_disabled=True, orig_exe=True,
            )
            if kind is AccessKind.FETCH:
                # materialize-then-check in one step: a single snapshot
                return self.handle_exec_fault(space, area, pte, vpage, vaddr, tid)
            return AccessResult.OK
        if area.logical_x:
            pte = machine.install_page(space, vpage, writable=False, exec_disabled=False)
            if kind is AccessKind.FETCH:
                return self._checked_fetch(space, pte, vpage, vaddr, tid)
            return AccessResult.OK
        machine.install_page(space, vpage, writable=area.logical_w, exec_disabled=True)
        return AccessResult.OK

    def handle_write_fault(
        self, space: AddressSpace, area: VmArea, pte: PageTableEntry, vpage: int,
    ) -> AccessResult:
        """Write trap: shadow-induced ones flip the page to write mode."""
        if not area.logical_w or not pte.orig_write:
            return AccessResult.SEGV_DELIVERED
        pte.exec_disabled = True
        pte.writable = True
        pte.orig_exe = True
        pte.orig_write = False
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
        pte.exec_disabled = False
        pte.writable = False
        pte.orig_exe = False
        # orig_write names the masked write permission; only W^X areas
        # stay under the machine once rechecked
        pte.orig_write = area.logical_w and area.logical_x
        self.machine.tlb_flush_one(space.pid, vpage)
        return AccessResult.OK

    def on_mprotect(self, pid: int, start_vpage: int, n_pages: int, perms: str) -> None:
        """Update logical permissions; force rechecks where X appears."""
        self.machine.relabel(pid, start_vpage, n_pages, perms, _shadow_relabel)

    # ---- the exec-side content check ------------------------------------

    def _checked_fetch(
        self, space: AddressSpace, pte: PageTableEntry, vpage: int, vaddr: int, tid: int,
    ) -> AccessResult:
        """Sync check, flood-guard admission, snapshot emission."""
        machine = self.machine
        pid, uid = space.pid, space.uid
        content = bytes(pte.frame)
        if self.sync_check_enabled and self.rules is not None:
            hit = sync_check(content, self.rules)
            if hit is not None:
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
            self.pipeline.enqueue(
                PageSnapshot(
                    content=content, offset=vaddr % machine.page_size, vaddr=vaddr,
                    vpage=vpage, pid=pid, tid=tid, uid=uid,
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
        self.machine.install_page(
            space, vpage, writable=area.logical_w, exec_disabled=not area.logical_x,
        )
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
