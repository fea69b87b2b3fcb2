"""Per-user flood guard for the snapshot pipeline.

Each uid gets a pending counter: +1 per admitted snapshot, -1 as the
agent acknowledges each one it drains (``on_delivered``).  Pushing the
counter past the threshold starts a penalty window during which every
admission for that uid is denied, whatever pid it comes from (a fork
bomb churning through pids still shares the uid).  Entries that sit at
zero long enough are evicted so setuid churn cannot grow the table
without bound: ``admit`` sweeps them (``tick``) at the previous tick
before it decides, and the owner sweeps once more at the end, not on
every event.  An eviction drops the entry with its penalty, so a
penalty lasts ``ttl_penalty`` ticks or until the uid has sat idle
``ttl_evict`` ticks, whichever ends first.
"""

from __future__ import annotations

from typing import NamedTuple

from .mmu import SimError

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
        self.pending, self.penalized_until = 0, 0  # no penalty once now >= penalized_until


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
        self.admits = self.denials = self.evictions = 0

    def admit(self, uid: int, pid: int, now: int) -> Admission:
        """Sweep at `now - 1`, as sweeps after each earlier event would, then decide
        one snapshot for (uid, pid) at `now`; a penalty holds for the uid, whatever pid."""
        self.tick(now - 1)
        entry = self.entries.get(uid)
        if entry is None:
            entry = self.entries[uid] = ThrottleEntry()
        if now >= entry.penalized_until:
            if entry.pending < self.config.threshold:
                entry.pending += 1
                self._idle.pop(uid, None)
                self.admits += 1
                return _ADMITTED
            # denied requests never enqueue, so pending stays put
            entry.penalized_until = now + self.config.ttl_penalty
        self.denials += 1
        return self._denied

    def on_delivered(self, uid: int, now: int) -> None:
        """The agent drained a snapshot for uid at tick `now`; one the guard
        never admitted, or already saw delivered, is a SimError."""
        entry = self.entries.get(uid)
        if entry is None or entry.pending == 0:
            raise SimError(f"delivery for uid {uid} at tick {now} with nothing pending")
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
