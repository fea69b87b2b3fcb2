"""Per-user flood guard for the snapshot pipeline.

Each uid gets a pending counter: +1 per admitted snapshot, -1 as the
agent acknowledges each one it drains (``on_delivered``).  Pushing the
counter past the threshold starts a penalty window during which every
admission for that uid is denied, whatever pid it comes from (a fork
bomb churning through pids still shares the uid).  Entries that sit at
zero long enough are evicted so setuid churn cannot grow the table
without bound; the owner sweeps them (``tick``) before each admission
and once at the end, not on every event.  An eviction drops the entry
with its penalty, so a penalty lasts ``ttl_penalty`` ticks or until
the uid has sat idle ``ttl_evict`` ticks, whichever ends first.
"""

from __future__ import annotations

from typing import NamedTuple

PENALTY_ACTIONS = ("kill", "block")  # what a throttle denial does to the process


class GuardConfig:
    """Guard settings; the class attributes are the defaults."""

    threshold = 256
    penalty_action = "kill"  # one of PENALTY_ACTIONS
    ttl_penalty = 1000  # ticks a penalty lasts, unless an eviction (ttl_evict) ends it first
    ttl_evict = 5000  # ticks at pending==0 before the entry is dropped

    def __init__(
        self, threshold: int = threshold, penalty_action: str = penalty_action,
        ttl_penalty: int = ttl_penalty, ttl_evict: int = ttl_evict,
    ):
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if penalty_action not in PENALTY_ACTIONS:
            raise ValueError(f"penalty_action must be 'kill' or 'block', got {penalty_action!r}")
        if ttl_penalty < 1:
            raise ValueError(f"ttl_penalty must be >= 1, got {ttl_penalty}")
        if ttl_evict < 1:
            raise ValueError(f"ttl_evict must be >= 1, got {ttl_evict}")
        self.threshold, self.penalty_action = threshold, penalty_action
        self.ttl_penalty, self.ttl_evict = ttl_penalty, ttl_evict


class ThrottleEntry:
    __slots__ = ("pending", "penalized_until")

    def __init__(self):
        self.pending, self.penalized_until = 0, None


class Admission(NamedTuple):
    admitted: bool
    action: str | None = None  # penalty action when denied


_ADMITTED = Admission(True)


class DosGuard:
    """Per-uid admission control; `now` never decreases from call to call.

    Only the simulation thread calls it, so it holds no lock.  A denial's
    penalty action is read from the config once, at construction.
    """

    def __init__(self, config: GuardConfig | None = None):
        self.config = config or GuardConfig()
        self._denied = Admission(False, self.config.penalty_action)
        self.entries: dict[int, ThrottleEntry] = {}
        self._idle: dict[int, int] = {}  # uid -> tick pending reached 0, oldest first
        self.admits = 0
        self.denials = 0
        self.evictions = 0
        self.unknown_deliveries = 0

    def admit(self, uid: int, pid: int, now: int) -> Admission:
        """Decide one snapshot emission for (uid, pid) at tick `now`; the pid is
        never read: a penalty holds for the uid, whatever pid asks."""
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
            return self._denied
        entry.pending += 1
        self._idle.pop(uid, None)
        self.admits += 1
        return _ADMITTED

    def on_delivered(self, uid: int, now: int) -> None:
        """The agent drained a snapshot for uid at tick `now`."""
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
        One sweep at `now` evicts what sweeps at every tick up to `now` would.
        """
        idle, ttl = self._idle, self.config.ttl_evict
        evicted: list[int] = []
        for uid, since in idle.items():
            if now - since < ttl:
                break
            evicted.append(uid)
        for uid in evicted:
            del self._idle[uid], self.entries[uid]
        self.evictions += len(evicted)
        return evicted

    def pending(self, uid: int) -> int:
        entry = self.entries.get(uid)
        return 0 if entry is None else entry.pending
