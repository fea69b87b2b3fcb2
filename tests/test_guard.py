"""Per-uid flood guard: thresholds, penalties, eviction."""

from __future__ import annotations

import random

import pytest

from jitscan.guard import DosGuard, GuardConfig
from jitscan.mmu import SimError

from conftest import SweepGuard


def guard(threshold=3, action="kill", ttl_penalty=100, ttl_evict=500) -> DosGuard:
    return DosGuard(GuardConfig(
        threshold=threshold, penalty_action=action,
        ttl_penalty=ttl_penalty, ttl_evict=ttl_evict,
    ))


class TestAdmit:
    def test_admits_up_to_threshold_then_denies(self):
        g = guard(threshold=3)
        results = [g.admit(uid=5, now=t) for t in range(1, 6)]
        assert results == [None, None, None, "kill", "kill"]
        assert (g.admits, g.denials) == (3, 2)

    def test_denial_leaves_pending_unchanged(self):
        g = guard(threshold=2)
        g.admit(5, 1)
        g.admit(5, 2)
        g.admit(5, 3)  # denied
        assert g.pending(5) == 2

    def test_penalty_expires_after_ttl(self):
        g = guard(threshold=1, ttl_penalty=50)
        g.admit(5, now=10)
        g.admit(5, now=11)  # penalty until 61
        assert g.admit(5, now=60) is not None
        g.on_delivered(5, now=60)  # pending back to 0
        assert g.admit(5, now=61) is None

    def test_block_action_reported_on_denial(self):
        g = guard(threshold=1, action="block")
        g.admit(5, 1)
        denied = g.admit(5, 2)
        assert denied == "block"


class TestDelivery:
    def test_delivery_decrements_pending(self):
        g = guard(threshold=10)
        for t in range(3):
            g.admit(5, now=t)
        g.on_delivered(5, now=5)
        assert g.pending(5) == 2

    def test_pending_is_admits_minus_deliveries(self):
        g = guard(threshold=100)
        for t in range(40):
            g.admit(5, now=t)
        for t in range(25):
            g.on_delivered(5, now=100 + t)
        assert g.pending(5) == 15
        assert g.pending(5) == g.admits - 25

    @pytest.mark.parametrize("uid", [5, 42])
    def test_a_surplus_delivery_raises_and_changes_nothing(self, uid):
        g = guard(threshold=1, ttl_evict=500)
        g.admit(5, now=1)
        g.admit(5, now=2)  # denied: starts a penalty
        g.on_delivered(5, now=3)  # uid 5 idle since 3; uid 42 has no entry

        def state():
            return dict(g.entries), g.admits, g.denials, g.evictions, g.pending(uid), dict(g._idle)

        before = state()
        with pytest.raises(SimError, match=f"uid {uid} "):
            g.on_delivered(uid, now=4)
        assert state() == before


class TestTick:
    def test_entry_evicted_after_idle_ttl(self):
        g = guard(ttl_evict=500)
        g.admit(5, now=10)
        g.on_delivered(5, now=20)  # zero since 20
        assert g.tick(now=519) == []
        assert g.tick(now=520) == [5]
        assert 5 not in g.entries
        assert g.evictions == 1

    def test_idle_time_counts_from_the_last_delivery(self):
        g = guard(threshold=1, ttl_penalty=10, ttl_evict=100)
        g.admit(5, now=0)
        g.on_delivered(5, now=1)
        g.admit(5, now=2)
        g.on_delivered(5, now=3)
        assert g.tick(now=102) == []  # zero only since 3
        assert g.tick(now=103) == [5]

    def test_nonzero_pending_is_never_evicted(self):
        g = guard(ttl_evict=50)
        g.admit(5, now=0)
        assert g.tick(now=10_000) == []
        assert 5 in g.entries

    def test_readmission_recreates_the_entry(self):
        g = guard(ttl_evict=50)
        g.admit(5, now=0)
        g.on_delivered(5, now=1)
        g.tick(now=51)
        assert 5 not in g.entries
        assert g.admit(5, now=60) is None
        assert g.pending(5) == 1

    def test_evicts_oldest_idle_first_and_stops_at_a_young_one(self):
        g = guard(ttl_evict=100)
        for uid in (7, 5, 6):
            g.admit(uid, now=0)
        g.on_delivered(6, now=10)
        g.on_delivered(7, now=20)
        g.on_delivered(5, now=30)
        assert g.tick(now=120) == [6, 7]
        assert set(g.entries) == {5}


class TestAgainstSweepOracle:
    @pytest.mark.parametrize("seed", range(4))
    def test_same_decisions_as_the_full_table_sweep(self, seed):
        """Random admit/deliver/tick runs on a few uids, compared step by step."""
        rng = random.Random(seed)
        surplus = 0
        for _ in range(100):
            config = GuardConfig(
                threshold=rng.randint(1, 3), penalty_action=rng.choice(["kill", "block"]),
                ttl_penalty=rng.randint(1, 5), ttl_evict=rng.randint(1, 8),
            )
            fast, slow = DosGuard(config), SweepGuard(config)
            now = 0
            for step in range(rng.randint(1, 120)):
                now += rng.choice([0, 0, 1, 1, 2, 3])
                uid, kind = rng.randrange(3), rng.random()
                where = (config, step)
                if kind < 0.4:
                    assert fast.admit(uid, now) == slow.admit(uid, now), where
                elif kind < 0.8 and slow.pending(uid):
                    fast.on_delivered(uid, now)
                    slow.on_delivered(uid, now)
                elif kind < 0.8:  # a surplus delivery
                    surplus += 1
                    for g in (fast, slow):
                        with pytest.raises(SimError):
                            g.on_delivered(uid, now)
                else:
                    assert sorted(fast.tick(now)) == sorted(slow.tick(now)), where
                counters = ("admits", "denials", "evictions")
                assert [getattr(fast, c) for c in counters] == [
                    getattr(slow, c) for c in counters
                ], where
                assert [fast.pending(u) for u in range(3)] == [
                    slow.pending(u) for u in range(3)
                ], where
                assert set(fast.entries) == set(slow.entries), where
        assert surplus > 100  # the runs reach the raise


class TestConfig:
    def test_defaults(self):
        cfg = GuardConfig()
        assert (cfg.threshold, cfg.ttl_penalty, cfg.ttl_evict) == (256, 1000, 5000)
        assert cfg.penalty_action == "kill"
        # the command line reads them on the class, as its option defaults
        assert (GuardConfig.threshold, GuardConfig.ttl_penalty, GuardConfig.ttl_evict) == (
            256, 1000, 5000,
        )

    def test_bad_values_rejected(self):
        for kwargs, message in [
            ({"threshold": 0}, "threshold must be >= 1, got 0"),
            ({"penalty_action": "shame"}, "penalty_action must be 'kill' or 'block', got 'shame'"),
            ({"ttl_penalty": 0}, "ttl_penalty must be >= 1, got 0"),
            ({"ttl_evict": 0}, "ttl_evict must be >= 1, got 0"),
        ]:
            with pytest.raises(ValueError) as err:
                GuardConfig(**kwargs)
            assert str(err.value) == message
