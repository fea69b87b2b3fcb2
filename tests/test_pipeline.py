"""Snapshot pipeline: FIFO per bucket, counters, concurrency."""

from __future__ import annotations

import itertools
import random
import sys
import threading
from collections import deque

import pytest

from jitscan.pipeline import PageSnapshot, SnapshotTable


def snap(pid: int, tag: int, uid: int = 1) -> PageSnapshot:
    return PageSnapshot(content=bytes([tag % 256]) * 64, vpage=tag, pid=pid, uid=uid)


class TestBasics:
    def test_seq_increases_in_enqueue_order(self):
        table = SnapshotTable(4)
        seqs = [table.enqueue(snap(pid, i)) for i, pid in enumerate([1, 2, 1, 3])]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == 4

    def test_single_pid_drains_fifo(self):
        table = SnapshotTable(4)
        for i in range(5):
            table.enqueue(snap(7, i))
        drained = table.drain()
        assert [s.vpage for s in drained] == [0, 1, 2, 3, 4]

    def test_drain_respects_max_items(self):
        table = SnapshotTable(4)
        for i in range(6):
            table.enqueue(snap(1, i))
        assert len(table.drain(4)) == 4
        assert table.pending_count() == 2
        assert len(table.drain()) == 2

    def test_drain_empty_returns_nothing(self):
        table = SnapshotTable(4)
        assert table.drain() == []
        assert table.drain(10) == []

    def test_counters_track_pending_exactly(self):
        table = SnapshotTable(4)
        for i in range(3):
            table.enqueue(snap(1, i))
        assert table.pending_count() == 3
        table.drain(2)
        assert table.pending_count() == 1
        assert table.high_watermark == 3

    def test_bucket_count_validated(self):
        with pytest.raises(ValueError):
            SnapshotTable(0)


class TestOrdering:
    def test_same_bucket_pids_share_fifo(self):
        table = SnapshotTable(4)
        # pids 1 and 5 collide in a 4-bucket table
        table.enqueue(snap(1, 100))
        table.enqueue(snap(5, 200))
        table.enqueue(snap(1, 101))
        assert [s.vpage for s in table.drain()] == [100, 200, 101]

    def test_every_interleaving_preserves_per_pid_fifo(self):
        # two pids in different buckets, two snapshots each, all
        # enqueue interleavings: drain may interleave pids but never
        # reorders within one
        a = [snap(1, 10), snap(1, 11)]
        b = [snap(2, 20), snap(2, 21)]
        for order in set(itertools.permutations([0, 0, 1, 1])):
            table = SnapshotTable(4)
            ia, ib = iter(a), iter(b)
            for which in order:
                src = ia if which == 0 else ib
                nxt = next(src)
                table.enqueue(
                    snap(nxt.pid, nxt.vpage)  # fresh objects per run
                )
            drained = table.drain()
            for pid in (1, 2):
                tags = [s.vpage for s in drained if s.pid == pid]
                assert tags == sorted(tags)

    def test_round_robin_serves_all_buckets(self):
        table = SnapshotTable(8)
        for pid in (1, 2, 3):
            for i in range(3):
                table.enqueue(snap(pid, pid * 10 + i))
        first_three = [s.pid for s in table.drain(3)]
        assert sorted(first_three) == [1, 2, 3]  # one from each, no starvation

    @pytest.mark.parametrize("seed", range(8))
    def test_random_histories_match_a_model(self, seed):
        # random enqueue/drain histories against per-bucket FIFO lists;
        # fairness: between two services of a bucket, every bucket that
        # stayed non-empty the whole time was served
        rng = random.Random(seed)
        for _ in range(40):
            table = SnapshotTable(rng.randint(1, 8))
            n_pids = rng.randint(1, 12)
            model: dict[int, deque[PageSnapshot]] = {}
            nonempty_since: dict[int, int] = {}  # step the bucket last became non-empty
            last_served: dict[int, int] = {}
            pending = peak = 0
            step = 0
            for _ in range(rng.randint(1, 60)):
                step += 1
                if rng.random() < 0.6:
                    pid = rng.randint(1, n_pids)
                    item = PageSnapshot(
                        content=bytes(rng.randint(1, 32)), vpage=step, pid=pid, uid=pid,
                    )
                    idx = table.bucket_of(pid)
                    fifo = model.setdefault(idx, deque())
                    if not fifo:
                        nonempty_since[idx] = step
                    fifo.append(item)
                    table.enqueue(item)
                    pending += 1
                    peak = max(peak, pending)
                    continue
                max_items = rng.choice([None, 1, 2, 3])
                drained = table.drain(max_items)
                want = pending if max_items is None else min(max_items, pending)
                assert len(drained) == want  # nothing lost
                for item in drained:
                    step += 1
                    idx = table.bucket_of(item.pid)
                    assert model[idx] and model[idx].popleft() is item  # FIFO, no dup
                    prev = last_served.get(idx)
                    if prev is not None:
                        for other, fifo in model.items():
                            if other != idx and fifo and nonempty_since[other] < prev:
                                assert last_served.get(other, 0) > prev, (
                                    f"bucket {idx} served twice while bucket {other} waited"
                                )
                    last_served[idx] = step
                    pending -= 1
                assert table.pending_count() == pending
                assert table.high_watermark == peak
            assert len(table.drain()) == pending
            assert table.pending_count() == 0

    def test_drain_locks_once_and_only_when_pending(self):
        class CountingLock:
            acquired = 0

            def __enter__(self):
                CountingLock.acquired += 1

            def __exit__(self, *exc):
                return False

        table = SnapshotTable(64)
        table.enqueue(snap(40, 1))
        table._lock = CountingLock()
        assert [s.pid for s in table.drain()] == [40]
        assert CountingLock.acquired == 1
        assert table.drain() == []
        assert CountingLock.acquired == 1


class TestConcurrency:
    def test_parallel_enqueue_loses_and_duplicates_nothing(self):
        table = SnapshotTable(16)
        per_thread = 500
        n_threads = 6
        collected: list[PageSnapshot] = []
        stop = threading.Event()

        def producer(pid: int):
            for i in range(per_thread):
                table.enqueue(snap(pid, i))

        def drainer():
            while not stop.is_set() or table.pending_count() > 0:
                collected.extend(table.drain(32))

        threads = [threading.Thread(target=producer, args=(pid,)) for pid in range(1, n_threads + 1)]
        agent = threading.Thread(target=drainer)
        agent.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stop.set()
        agent.join()
        assert len(collected) == n_threads * per_thread
        assert sorted(s.seq for s in collected) == list(range(n_threads * per_thread))
        # per-pid FIFO survives concurrency
        for pid in range(1, n_threads + 1):
            tags = [s.vpage for s in collected if s.pid == pid]
            assert tags == sorted(tags)

    def test_concurrent_drains_share_the_ring(self):
        # two drainers race four producers under a short switch interval:
        # each snapshot comes out exactly once and the counters end at zero
        table = SnapshotTable(8)
        per_thread = 400
        pids = range(1, 5)
        collected: list[list[PageSnapshot]] = [[], []]
        producers_done = threading.Event()

        def producer(pid: int):
            for i in range(per_thread):
                table.enqueue(snap(pid, i, uid=pid))

        def drainer(out: list[PageSnapshot]):
            while not producers_done.is_set() or table.pending_count() > 0:
                out.extend(table.drain(3))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            drainers = [threading.Thread(target=drainer, args=(out,)) for out in collected]
            producers = [threading.Thread(target=producer, args=(pid,)) for pid in pids]
            for t in drainers + producers:
                t.start()
            for t in producers:
                t.join(timeout=30)
            producers_done.set()
            for t in drainers:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in drainers + producers)
        seqs = sorted(s.seq for out in collected for s in out)
        assert seqs == list(range(len(pids) * per_thread))
        for out in collected:  # each drainer sees every pid in FIFO order
            for pid in pids:
                tags = [s.vpage for s in out if s.pid == pid]
                assert tags == sorted(tags)
        assert table.pending_count() == 0
        assert table.drain() == []

    def test_seq_order_is_drain_order(self):
        # four producers race into one bucket under a short switch interval:
        # in every round the bucket drains in seq order, with no seq skipped
        per_thread = 400
        pids = range(1, 5)

        def producer(table: SnapshotTable, pid: int):
            for i in range(per_thread):
                table.enqueue(snap(pid, i, uid=pid))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                table = SnapshotTable(1)
                producers = [threading.Thread(target=producer, args=(table, pid)) for pid in pids]
                for t in producers:
                    t.start()
                for t in producers:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in producers)
                assert [s.seq for s in table.drain()] == list(range(len(pids) * per_thread))
        finally:
            sys.setswitchinterval(interval)

    def test_burst_then_steady_watermark(self):
        # a burst of emissions with a lagging drain peaks, then settles
        table = SnapshotTable(8)
        for i in range(30):
            table.enqueue(snap(1 + i % 3, i))
            if (i + 1) % 10 == 0:
                table.drain()
        assert table.high_watermark == 10
        assert table.pending_count() == 0
        for i in range(20):  # steady phase: drain keeps up
            table.enqueue(snap(1, 100 + i))
            table.drain()
        assert table.high_watermark == 10
