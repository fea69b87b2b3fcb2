"""Pid-bucketed snapshot pipeline.

Producers (fault hooks) enqueue page snapshots; the agent drains them.
Snapshots land in hash buckets keyed by pid, each bucket a FIFO with
its own lock, so enqueues and drains on different buckets proceed
independently.  A ready ring holds the index of each non-empty bucket
exactly once, in the order the buckets became non-empty; a drain
serves the bucket at its front and requeues it at the back while it
still holds items, so the cost of a drain follows what is pending, not
the bucket count.  A global counter stamps every snapshot with a
strictly increasing sequence number at enqueue time.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from dataclasses import dataclass, field

DEFAULT_BUCKETS = 64


@dataclass
class PageSnapshot:
    content: bytes  # full page copy at fault time
    offset: int  # in-page offset of the faulting address
    vaddr: int
    vpage: int
    pid: int
    tid: int
    uid: int
    seq: int = -1  # stamped by the table


@dataclass
class _Bucket:
    lock: threading.Lock = field(default_factory=threading.Lock)
    items: deque[PageSnapshot] = field(default_factory=deque)


class SnapshotTable:
    """Fixed bucket array; per-bucket FIFO; round-robin drain over a ring
    of non-empty buckets."""

    def __init__(self, n_buckets: int = DEFAULT_BUCKETS, on_delivered=None):
        if n_buckets < 1:
            raise ValueError("n_buckets must be >= 1")
        self.n_buckets = n_buckets
        self.on_delivered = on_delivered  # callable(uid) per drained snapshot
        self._buckets = [_Bucket() for _ in range(n_buckets)]
        self._seq = itertools.count()
        self._stats_lock = threading.Lock()
        self._pending = 0
        self._pending_bytes = 0
        self._high_watermark = 0
        self._enqueued_total = 0
        self._ready: deque[int] = deque()  # non-empty bucket indices, each once

    def bucket_of(self, pid: int) -> int:
        return hash(pid) % self.n_buckets

    def enqueue(self, snap: PageSnapshot) -> int:
        snap.seq = next(self._seq)
        idx = self.bucket_of(snap.pid)
        bucket = self._buckets[idx]
        with bucket.lock:
            if not bucket.items:
                self._ready.append(idx)
            bucket.items.append(snap)
        with self._stats_lock:
            self._pending += 1
            self._pending_bytes += len(snap.content)
            self._enqueued_total += 1
            if self._pending > self._high_watermark:
                self._high_watermark = self._pending
        return snap.seq

    def drain(self, max_items: int | None = None) -> list[PageSnapshot]:
        """Remove up to max_items snapshots (all pending when None).

        Serves the bucket at the front of the ready ring, one snapshot at
        a time, and puts it back at the end while it still holds items:
        buckets are served in the order they became non-empty, and no
        bucket is served twice while another non-empty one waits.
        Returns at once, with no lock taken, when nothing is pending.
        """
        out: list[PageSnapshot] = []
        ready = self._ready
        while ready and (max_items is None or len(out) < max_items):
            try:
                idx = ready.popleft()
            except IndexError:  # a concurrent drain took the last index
                break
            bucket = self._buckets[idx]
            with bucket.lock:
                out.append(bucket.items.popleft())
                if bucket.items:
                    ready.append(idx)
        if out:
            with self._stats_lock:
                self._pending -= len(out)
                self._pending_bytes -= sum(len(snap.content) for snap in out)
            if self.on_delivered is not None:
                for snap in out:
                    self.on_delivered(snap.uid)
        return out

    def pending_count(self) -> int:
        with self._stats_lock:
            return self._pending

    def pending_bytes(self) -> int:
        with self._stats_lock:
            return self._pending_bytes

    @property
    def high_watermark(self) -> int:
        with self._stats_lock:
            return self._high_watermark

    @property
    def enqueued_total(self) -> int:
        with self._stats_lock:
            return self._enqueued_total
