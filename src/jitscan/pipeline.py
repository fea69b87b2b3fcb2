"""Pid-bucketed snapshot pipeline.

Producers (fault hooks) enqueue page snapshots; the agent drains them
and acknowledges each to the flood guard, so the table calls nothing
back, and it counts snapshots, not bytes.  Snapshots land in hash
buckets keyed by pid, each bucket a FIFO.  A ready ring holds the index
of each non-empty bucket exactly once, in the order the buckets became
non-empty; a drain serves the bucket at its front and requeues it at the
back while it still holds items, so the cost of a drain follows what is
pending, not the bucket count.  The ring is also the "anything pending"
signal: outside a drain in progress it is empty exactly when no snapshot
is pending, and ``replay`` reads it on every event, with no lock or
call, to skip the agent.  One lock guards the buckets, the ring and the
counters, so a snapshot's ``seq`` is the number of snapshots enqueued
before it and drain order never disagrees with it within a bucket.
"""

from __future__ import annotations

import threading
from collections import deque

DEFAULT_BUCKETS = 64


class PageSnapshot:
    """A whole page copied at a checked fetch; ``seq`` is stamped by the table and
    ``spans`` are the [lo, hi) spans written since the page's previous snapshot
    (None: the whole page)."""

    __slots__ = ("content", "vpage", "pid", "uid", "seq", "spans")

    def __init__(
        self, content: bytes, vpage: int, pid: int, uid: int,
        spans: list[tuple[int, int]] | None = None,
    ):
        self.content, self.vpage, self.pid, self.uid = content, vpage, pid, uid
        self.seq, self.spans = -1, spans


class SnapshotTable:
    """Fixed bucket array; per-bucket FIFO; round-robin drain over a ring
    of non-empty buckets; one lock over all of it."""

    def __init__(self, n_buckets: int = DEFAULT_BUCKETS):
        if n_buckets < 1:
            raise ValueError("n_buckets must be >= 1")
        self.n_buckets = n_buckets
        self._buckets: list[deque[PageSnapshot]] = [deque() for _ in range(n_buckets)]
        self._ready: deque[int] = deque()  # non-empty bucket indices, each once
        self._lock = threading.Lock()
        self._pending = 0
        self.high_watermark = self.enqueued_total = 0

    def bucket_of(self, pid: int) -> int:
        return hash(pid) % self.n_buckets

    def enqueue(self, snap: PageSnapshot) -> int:
        idx = self.bucket_of(snap.pid)
        bucket = self._buckets[idx]
        with self._lock:
            seq = snap.seq = self.enqueued_total
            self.enqueued_total = seq + 1
            if not bucket:
                self._ready.append(idx)
            bucket.append(snap)
            self._pending += 1
            if self._pending > self.high_watermark:
                self.high_watermark = self._pending
        return seq

    def drain(self, max_items: int | None = None) -> list[PageSnapshot]:
        """Remove up to max_items snapshots (all pending when None).

        Serves the bucket at the front of the ready ring, one snapshot at
        a time, and puts it back at the end while it still holds items:
        buckets are served in the order they became non-empty, and no
        bucket is served twice while another non-empty one waits.
        Returns at once, with no lock taken, when nothing is pending,
        and calls nothing after releasing the lock.
        """
        ready = self._ready
        if not ready:
            return []
        out: list[PageSnapshot] = []
        buckets = self._buckets
        with self._lock:
            while ready and (max_items is None or len(out) < max_items):
                idx = ready.popleft()
                bucket = buckets[idx]
                out.append(bucket.popleft())
                if bucket:
                    ready.append(idx)
            self._pending -= len(out)
        return out

    def pending_count(self) -> int:
        return self._pending
