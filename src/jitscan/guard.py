"""Per-user flood guard for the snapshot pipeline.

Each uid gets a pending counter: +1 per admitted snapshot, -1 per
delivered one.  Pushing the counter past the threshold starts a penalty
window during which every admission for that uid is denied, whatever
pid it comes from (a fork bomb churning through pids still shares the
uid).  Entries that sit at zero long enough are evicted so setuid churn
cannot grow the table without bound; eviction reads only the idle uids,
oldest first, and relies on time never running backwards.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class GuardConfig:
    threshold: int = 256
    penalty_action: str = "kill"  # "kill" | "block"
    ttl_penalty: int = 1000  # ticks a penalty lasts
    ttl_evict: int = 5000  # ticks at pending==0 before the entry is dropped

    def __post_init__(self) -> None:
        if self.threshold < 1:
            raise ValueError("threshold must be >= 1")
        if self.penalty_action not in ("kill", "block"):
            raise ValueError("penalty_action must be 'kill' or 'block'")
        if self.ttl_penalty < 1 or self.ttl_evict < 1:
            raise ValueError("TTLs must be >= 1")


@dataclass
class ThrottleEntry:
    pending: int = 0
    penalized_until: int | None = None


@dataclass
class Admission:
    admitted: bool
    action: str | None = None  # penalty action when denied


class DosGuard:
    """Per-uid admission control; `now` never decreases from call to call.

    Only the simulation thread calls it, so it holds no lock.
    """

    def __init__(self, config: GuardConfig | None = None):
        self.config = config or GuardConfig()
        self.entries: dict[int, ThrottleEntry] = {}
        self._idle: dict[int, int] = {}  # uid -> tick pending reached 0, oldest first
        self.admits = 0
        self.denials = 0
        self.evictions = 0
        self.unknown_deliveries = 0

    def admit(self, uid: int, pid: int, now: int) -> Admission:
        """Decide one snapshot emission for (uid, pid) at tick `now`."""
        cfg = self.config
        entry = self.entries.get(uid)
        if entry is None:
            entry = self.entries[uid] = ThrottleEntry()
        if entry.penalized_until is not None and now >= entry.penalized_until:
            entry.penalized_until = None
        if entry.penalized_until is None and entry.pending + 1 > cfg.threshold:
            # denied requests never enqueue, so pending stays put
            entry.penalized_until = now + cfg.ttl_penalty
        if entry.penalized_until is not None:
            self.denials += 1
            return Admission(False, cfg.penalty_action)
        entry.pending += 1
        self._idle.pop(uid, None)
        self.admits += 1
        return Admission(True)

    def on_delivered(self, uid: int, now: int) -> None:
        """A snapshot for uid left the pipeline (scanned or dropped)."""
        entry = self.entries.get(uid)
        if entry is None or entry.pending == 0:
            self.unknown_deliveries += 1
            return
        entry.pending -= 1
        if entry.pending == 0:
            self._idle[uid] = now

    def tick(self, now: int) -> list[int]:
        """Evict uids idle at zero for ttl_evict ticks; returns them oldest first.

        Reads only idle uids, in idle-since order, and stops at the first
        one still too young; this order holds because `now` never decreases.
        With no idle uid it returns at once, so the per-event call costs
        one dict test.
        """
        if not self._idle:
            return []
        evicted: list[int] = []
        for uid, since in self._idle.items():
            if now - since < self.config.ttl_evict:
                break
            evicted.append(uid)
        for uid in evicted:
            del self._idle[uid], self.entries[uid]
        self.evictions += len(evicted)
        return evicted

    def pending(self, uid: int) -> int:
        entry = self.entries.get(uid)
        return 0 if entry is None else entry.pending
