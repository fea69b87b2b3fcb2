"""Replay, the async agent, report emission, and the CLI."""

from __future__ import annotations

import argparse
import collections
import contextlib
import gc
import io
import json
import os
import random
import resource
import subprocess
import sys
import tempfile
import tracemalloc
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jitscan import agent as agent_module
from jitscan import shadow as shadow_module
from jitscan.agent import SimConfig, build_run, replay
from jitscan.cli import _build_parser, main
from jitscan.guard import PENALTY_ACTIONS, DosGuard, GuardConfig
from jitscan.mmu import DeadProcessError, Machine, SimError
from jitscan.pipeline import SnapshotTable
from jitscan.report import ActionTaken, Detection, Report
from jitscan.shadow import DETECTION_ACTIONS, ShadowEngine
from jitscan.signatures import RuleSet, parse_rules, scan_page, sync_check
from jitscan.trace import PROC, parse_trace

from conftest import (
    SYNC_RULES_TEXT, SYNC_STUB, encode_record, reference_replay, unchecked_fetches,
)

PS = 4096

ASYNC_RULES = (
    "rule dropper family=packer severity=kill { 48 31 c0 ?? ?? 50 48 89 e7 b0 3b 0f 05 90 90 }\n"
    "rule probe family=recon severity=alert { 90 90 90 90 c3 }\n"
)
DROPPER = bytes.fromhex("4831c0415a504889e7b03b0f059090")
PROBE = bytes.fromhex("90909090c3" * 2)  # two copies -> two matches

DEV_FULL = "/dev/full"  # every write to it fails with ENOSPC
needs_dev_full = pytest.mark.skipif(not os.path.exists(DEV_FULL), reason="no /dev/full")
DEV_ZERO = "/dev/zero"  # reads from it never end

PACKER_TRACE = f"""\
PROC uid=1000
MMAP pid=1 perms=wx pages=2 at=16
WRITE pid=1 tid=1 cpu=0 addr={16 * PS + 32} bytes={DROPPER.hex()}
FETCH pid=1 tid=1 cpu=0 addr={16 * PS + 32}
"""


def rules(text: str = ASYNC_RULES):
    return parse_rules(text, page_size=PS)


class TestReplay:
    def test_benign_trace_all_ok(self):
        report = replay(
            "PROC uid=1\n"
            "MMAP pid=1 perms=rw pages=2 at=16\n"
            f"WRITE pid=1 tid=1 cpu=0 addr={16 * PS} bytes=00ff\n"
            f"READ pid=1 tid=1 cpu=0 addr={16 * PS}\n",
            rules(),
        )
        assert report.outcomes == {"ok": 4}
        assert report.metrics["snapshots_emitted"] == 0
        assert report.metrics["detections"] == 0

    def test_packer_write_then_fetch_is_caught_async(self):
        report = replay(PACKER_TRACE, rules())
        assert report.outcomes == {"ok": 4}
        assert len(report.detections) == 1
        det = report.detections[0]
        assert (det.rule, det.path, det.action) == ("dropper", "async", "kill")
        assert det.offset == 32 and det.vpage == 16
        assert [a.cause for a in report.actions] == ["signature"]
        assert report.any_kill_detection

    @pytest.mark.parametrize("shadow", [True, False])
    def test_an_execute_only_page_is_readable_present_or_not(self, shadow):
        # x86 has no execute-only pages: the first READ materializes the page,
        # as the second finds it present after the FETCH
        access = f"pid=1 tid=1 cpu=0 addr={16 * PS:#x}\n"
        trace = (
            "PROC uid=1\nMMAP pid=1 perms=x pages=1 at=16\n"
            f"READ {access}FETCH {access}READ {access}"
        )
        config = SimConfig(shadow=shadow)
        report = replay(trace, rules(), config)
        assert report.outcomes == {"ok": 5}
        assert report.emit() == reference_replay(trace, rules(), config)

    @pytest.mark.parametrize("op", [-1, 1.0, 7, None])
    def test_an_unknown_op_code_raises_before_the_clock_moves(self, op):
        # -1 and 1.0 once passed for access kinds, and 7 raised after the clock moved
        machine = build_run().machine
        machine.create_process(1)
        with pytest.raises(TypeError, match=rf"^unknown op code {op!r}$"):
            agent_module._apply_event(machine, (op, 2, 1, 1, 0, 0))
        assert machine.now == 0
        with pytest.raises(TypeError, match=rf"^unknown op code {op!r}$"):
            replay([(PROC, 1, 0), (op, 2, 1, 1, 0, 0)])

    def test_each_setup_op_code_advances_the_clock_and_returns_ok(self):
        # _apply_event tests these four before the access kinds
        machine = build_run().machine
        events = parse_trace(
            "PROC uid=7\nMMAP pid=1 perms=rw pages=2 at=16\n"
            "MPROTECT pid=1 start=16 pages=1 perms=r\nTICK n=50\n"
        )
        got = []
        for event in events:
            now = machine.now
            got.append((agent_module._apply_event(machine, event), machine.now - now))
        assert got == [("ok", 1), ("ok", 1), ("ok", 1), ("ok", 50)]
        space = machine.spaces[1]
        assert space.uid == 7
        assert [(a.start_vpage, a.n_pages, a.perms()) for a in space.areas] == [
            (16, 1, "r"), (17, 1, "rw"),
        ]

    def test_kill_mid_trace_turns_later_events_into_errors(self):
        trace = PACKER_TRACE + f"FETCH pid=1 tid=1 cpu=0 addr={17 * PS}\n"
        report = replay(trace, rules())
        assert report.outcomes == {"ok": 4, "dead": 1}
        assert report.metrics["kills"] == 1

    @pytest.mark.parametrize(
        "action,outcomes",
        [
            ("kill", {"ok": 3, "killed": 1}),
            ("block", {"ok": 3, "blocked": 1}),
            ("alert", {"ok": 4}),
        ],
    )
    def test_sync_rule_kills_at_the_fetch(self, action, outcomes):
        stub_at = 16 * PS + 64  # the fetch lands elsewhere on the page
        trace = (
            "PROC uid=1000\n"
            "MMAP pid=1 perms=wx pages=1 at=16\n"
            f"WRITE pid=1 tid=1 cpu=0 addr={stub_at} bytes={SYNC_STUB.hex()}\n"
            f"FETCH pid=1 tid=1 cpu=0 addr={16 * PS + 512}\n"
        )
        report = replay(
            trace, rules(SYNC_RULES_TEXT + ASYNC_RULES), SimConfig(detection_action=action)
        )
        assert report.outcomes == outcomes  # only the fetch can stop
        sync = report.detections[0]
        assert (sync.path, sync.action, sync.offset, sync.vaddr) == ("sync", action, 64, stub_at)
        if action == "alert":
            # the fetch goes on and the async scan records the same match again
            assert report.metrics["snapshots_emitted"] == 1
            assert [d.path for d in report.detections] == ["sync", "async"]
            again = report.detections[1]
            assert (again.offset, again.vaddr) == (sync.offset, sync.vaddr)
            assert report.actions == []
        else:
            assert report.metrics["snapshots_emitted"] == 0
            assert len(report.detections) == 1
            assert [(a.action, a.cause, a.path) for a in report.actions] == [
                (action, "signature", "sync")
            ]

    def test_sync_check_off_defers_to_async(self):
        trace = (
            "PROC uid=1000\n"
            "MMAP pid=1 perms=wx pages=1 at=16\n"
            f"WRITE pid=1 tid=1 cpu=0 addr={16 * PS} bytes={SYNC_STUB.hex()}\n"
            f"FETCH pid=1 tid=1 cpu=0 addr={16 * PS}\n"
        )
        report = replay(trace, rules(SYNC_RULES_TEXT), SimConfig(sync_check=False))
        assert report.outcomes == {"ok": 4}  # the fetch went through
        assert [d.path for d in report.detections] == ["async"]
        assert [a.path for a in report.actions] == ["async"]

    def test_async_lag_lets_the_fetch_run_first(self):
        report = replay(PACKER_TRACE, rules(), SimConfig(drain_every=100))
        assert report.outcomes == {"ok": 4}  # the fetch ran before the scan
        # detection still lands (end-of-trace drain) and is async
        assert [d.path for d in report.detections] == ["async"]
        assert report.metrics["pending_high_watermark"] == 1

    def test_alert_action_records_without_killing(self):
        report = replay(PACKER_TRACE, rules(), SimConfig(detection_action="alert"))
        assert report.detections[0].action == "alert"
        assert report.actions == []
        assert report.metrics["kills"] == 0
        assert report.any_kill_detection  # severity still kill -> exit code

    def test_block_action_freezes_the_process(self):
        trace = PACKER_TRACE + (
            f"WRITE pid=1 tid=1 cpu=0 addr={16 * PS} bytes=00\n"
            f"READ pid=1 tid=1 cpu=0 addr={16 * PS}\n"
        )
        report = replay(trace, rules(), SimConfig(detection_action="block"))
        assert report.outcomes == {"ok": 4, "blocked": 2}
        assert report.metrics["blocks"] == 1

    def test_alert_severity_rules_never_kill(self):
        trace = (
            "PROC uid=1\n"
            "MMAP pid=1 perms=wx pages=1 at=16\n"
            f"WRITE pid=1 tid=1 cpu=0 addr={16 * PS} bytes={PROBE.hex()}\n"
            f"FETCH pid=1 tid=1 cpu=0 addr={16 * PS}\n"
            f"READ pid=1 tid=1 cpu=0 addr={16 * PS}\n"
        )
        report = replay(trace, rules())
        assert [d.rule for d in report.detections] == ["probe", "probe"]  # overlap
        assert report.actions == []
        assert report.outcomes == {"ok": 5}
        assert not report.any_kill_detection

    def test_flood_is_throttled_and_second_pid_shares_the_penalty(self):
        lines = ["PROC uid=7", "PROC uid=7",
                 "MMAP pid=1 perms=rx pages=12 at=16 content=" + "c3" * 16,
                 "MMAP pid=2 perms=rx pages=1 at=64 content=" + "c3" * 16]
        for i in range(12):
            lines.append(f"FETCH pid=1 tid=1 cpu=0 addr={(16 + i) * PS}")
        lines.append(f"FETCH pid=2 tid=1 cpu=0 addr={64 * PS}")
        config = SimConfig(
            drain_every=0,
            guard=GuardConfig(threshold=8, ttl_penalty=1000, ttl_evict=5000),
        )
        report = replay("\n".join(lines) + "\n", rules(), config)
        # 4 setup events and 8 admitted fetches; pid 1 dies at its 9th fetch,
        # its last 3 name a dead pid, and pid 2 (same uid) dies in the penalty window
        assert report.outcomes == {"ok": 12, "killed": 2, "dead": 3}
        throttle_actions = [a for a in report.actions if a.cause == "throttle"]
        assert [a.pid for a in throttle_actions] == [1, 2]
        assert report.metrics["admits"] == 8
        assert report.metrics["snapshots_emitted"] == 8

    def test_eviction_shows_up_in_metrics(self):
        trace = (
            "PROC uid=1\n"
            "MMAP pid=1 perms=rx pages=1 at=16 content=c3\n"
            f"FETCH pid=1 tid=1 cpu=0 addr={16 * PS}\n"
            "TICK n=99\n"
        )
        config = SimConfig(guard=GuardConfig(threshold=8, ttl_penalty=10, ttl_evict=50))
        report = replay(trace, rules(), config)
        assert report.metrics["evictions"] == 1

    def test_retained_memory_does_not_grow_with_trace_length(self):
        def benign(n_accesses: int) -> str:
            lines = ["PROC uid=1", "MMAP pid=1 perms=rw pages=4 at=16"]
            for i in range(n_accesses):
                addr = (16 + i % 4) * PS + (i * 8) % PS
                if i % 2:
                    lines.append(f"WRITE pid=1 tid=1 cpu=1 addr={addr} bytes=00ff")
                else:
                    lines.append(f"READ pid=1 tid=1 cpu=0 addr={addr}")
            return "\n".join(lines) + "\n"

        def retained(text: str) -> int:
            """Bytes still allocated after replay(text), its report held."""
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                report = replay(text)
                gc.collect()
                after = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert report.outcomes == {"ok": text.count("\n")}
            return after - before

        replay(benign(10))  # first-call caches are not the report's
        small, large = benign(2_000), benign(8_000)
        assert retained(large) < retained(small) + 16 * 1024

    def test_replay_accepts_preparsed_lines(self):
        from jitscan.trace import PROC, parse_trace

        lines = parse_trace(PACKER_TRACE, PS)
        report = replay(lines, rules())
        assert report.metrics["events"] == 4


class TestAgentStep:
    def test_batch_limits_scans_per_step(self):
        ctx = build_run(SimConfig(), rules())
        pid = ctx.machine.create_process(uid=1)
        ctx.machine.mmap(pid, "rx", 8, backing=b"\xc3" * (8 * PS), at=16)
        from jitscan.mmu import AccessKind

        for i in range(5):
            ctx.machine.access(pid, 1, 0, (16 + i) * PS, AccessKind.FETCH)
        assert ctx.pipeline.pending_count() == 5
        assert ctx.agent.step(batch=2) == 2
        assert ctx.pipeline.pending_count() == 3
        assert ctx.agent.step() == 3
        assert ctx.agent.scans_run == 5

    def test_scanning_a_dead_pids_snapshot_still_records(self):
        ctx = build_run(SimConfig(drain_every=0), rules())
        pid = ctx.machine.create_process(uid=1)
        ctx.machine.mmap(pid, "wx", 1, at=16)
        from jitscan.mmu import AccessKind

        ctx.machine.access(pid, 1, 0, 16 * PS, AccessKind.WRITE, DROPPER)
        ctx.machine.access(pid, 1, 0, 16 * PS, AccessKind.FETCH)
        ctx.machine.kill_process(pid)  # dies before the agent gets there
        ctx.agent.step()
        assert [d.rule for d in ctx.report.detections] == ["dropper"]
        # no duplicate kill action for an already-dead process
        assert ctx.report.actions == []

    @pytest.mark.parametrize(
        "action,expected",
        [("kill", [("block", "throttle"), ("kill", "signature")]), ("block", [("block", "throttle")])],
    )
    def test_async_hit_on_a_throttle_blocked_pid(self, action, expected):
        # a kill still ends a blocked process; a second block records nothing
        config = SimConfig(
            drain_every=0, detection_action=action,
            guard=GuardConfig(threshold=1, penalty_action="block"),
        )
        ctx = build_run(config, rules())
        pid = ctx.machine.create_process(uid=1)
        ctx.machine.mmap(pid, "wx", 2, at=16)
        from jitscan.mmu import AccessKind, AccessResult

        ctx.machine.access(pid, 1, 0, 16 * PS, AccessKind.WRITE, DROPPER)
        assert ctx.machine.access(pid, 1, 0, 16 * PS, AccessKind.FETCH) is AccessResult.OK
        assert ctx.machine.access(pid, 1, 0, 17 * PS, AccessKind.FETCH) is AccessResult.BLOCKED
        ctx.agent.step()
        assert [d.rule for d in ctx.report.detections] == ["dropper"]
        assert [(a.action, a.cause) for a in ctx.report.actions] == expected
        assert ctx.machine.spaces[pid].alive is (action == "block")

    def test_step_without_rules_just_drains(self):
        ctx = build_run(SimConfig(), rules=None)
        pid = ctx.machine.create_process(uid=1)
        ctx.machine.mmap(pid, "rx", 1, backing=b"\xc3", at=16)
        from jitscan.mmu import AccessKind

        ctx.machine.access(pid, 1, 0, 16 * PS, AccessKind.FETCH)
        assert ctx.agent.step() == 1
        assert ctx.report.detections == []

    def test_step_acknowledges_each_drained_uid_at_its_tick(self):
        # the agent, not the pipeline, tells the guard of each delivery
        ctx = build_run(SimConfig(drain_every=0), rules())
        from jitscan.mmu import AccessKind

        for uid in (10, 20):
            pid = ctx.machine.create_process(uid=uid)
            ctx.machine.mmap(pid, "rx", 1, backing=b"\xc3", at=16)
            ctx.machine.now += 1
            ctx.machine.access(pid, 1, 0, 16 * PS, AccessKind.FETCH)
        assert (ctx.guard.pending(10), ctx.guard.pending(20)) == (1, 1)
        ctx.machine.now = 42
        assert ctx.agent.step() == 2
        assert (ctx.guard.pending(10), ctx.guard.pending(20)) == (0, 0)
        assert ctx.guard._idle == {10: 42, 20: 42}


class TestBuildRun:
    def test_rules_for_another_page_size_are_rejected_before_any_event(self):
        trace = "PROC uid=1\nMMAP pid=1 perms=wx pages=1 at=16\nFETCH pid=1 tid=1 cpu=0 addr=1024\n"
        with pytest.raises(ValueError, match="page size 4096.*64"):
            build_run(SimConfig(page_size=64), rules())
        with pytest.raises(ValueError, match="page size"):
            replay(trace, rules(), SimConfig(page_size=64))
        assert replay(trace, parse_rules(ASYNC_RULES, 64), SimConfig(page_size=64)).outcomes == {
            "ok": 3
        }

    def test_negative_drain_every_is_rejected(self):
        with pytest.raises(ValueError, match="drain_every must be >= 0"):
            SimConfig(drain_every=-1)
        assert SimConfig(drain_every=0).drain_every == 0

    @pytest.mark.parametrize("shadow", [True, False])
    def test_unknown_detection_action_is_rejected(self, shadow):
        with pytest.raises(ValueError, match="bad detection action 'bogus'"):
            SimConfig(shadow=shadow, detection_action="bogus")
        for action in ("kill", "block", "alert"):
            config = SimConfig(shadow=shadow, detection_action=action)
            assert replay(PACKER_TRACE, rules(), config).outcomes == {"ok": 4}


def _ab_rules(rng: random.Random) -> str:
    """Rules over the bytes A and B, sync and not, of different lengths."""
    text, wild = "", rng.choice([0.1, 0.3, 0.5])
    for i in range(rng.randint(1, 4)):
        atoms = [
            "??" if rng.random() < wild else rng.choice(["41", "42"])
            for _ in range(rng.randint(1, 6))
        ]
        if all(a == "??" for a in atoms):
            atoms[0] = "41"
        sync = " sync" if rng.random() < 0.5 else ""
        severity = "kill" if sync or rng.random() < 0.5 else "alert"
        text += f"rule r{i} family=t severity={severity}{sync} {{ {' '.join(atoms)} }}\n"
    return text


def _sparse_history(rng: random.Random, page_size: int, n_pids: int = 1) -> str:
    """Short writes from ABx on one page per pid, at the page edges or
    anywhere, with occasional fetches and mprotects."""
    lines = ["PROC uid=1000"] * n_pids
    for pid in range(1, n_pids + 1):
        lines.append(f"MMAP pid={pid} perms={rng.choice(['rwx', 'wx', 'rw'])} pages=1 at=16")
    base = 16 * page_size
    for _ in range(rng.randint(8, 30)):
        pid, cpu, roll = rng.randint(1, n_pids), rng.randrange(2), rng.random()
        if roll < 0.15:
            lines.append(f"FETCH pid={pid} tid=1 cpu={cpu} addr={base}")
        elif roll < 0.2:
            perms = rng.choice(["rwx", "rx", "rw", "wx"])
            lines.append(f"MPROTECT pid={pid} start=16 pages=1 perms={perms}")
        else:
            data = bytes(rng.choice(b"ABx") for _ in range(rng.randint(1, 3)))
            off = rng.choice([0, page_size - len(data), rng.randint(0, page_size - len(data))])
            lines.append(
                f"WRITE pid={pid} tid=1 cpu={cpu} addr={base + off} bytes={data.hex()}"
            )
    return "\n".join(lines) + "\n"


def _zero_rules(rng: random.Random) -> str:
    """Rules over the bytes A, B and 00 with wildcards.  Some sets match no
    zero page, some match one only through an alert-only async rule or only
    through a sync rule (their other rules each hold an A or a B), and some
    are drawn freely."""
    mode = rng.choice(["clean", "async-zero", "sync-zero", "any"])
    rules = []
    for _ in range(rng.randint(1, 4)):
        atoms = [
            "??" if rng.random() < 0.3 else rng.choice(["41", "42", "00"])
            for _ in range(rng.randint(1, 6))
        ]
        if mode != "any" and all(a in ("??", "00") for a in atoms):
            atoms[rng.randrange(len(atoms))] = rng.choice(["41", "42"])
        elif all(a == "??" for a in atoms):
            atoms[0] = "00"
        sync = " sync" if rng.random() < 0.5 else ""
        severity = "kill" if sync or rng.random() < 0.5 else "alert"
        rules.append((f"severity={severity}{sync}", atoms))
    if mode.endswith("-zero"):
        atoms = ["??" if rng.random() < 0.4 else "00" for _ in range(rng.randint(1, 4))]
        atoms[rng.randrange(len(atoms))] = "00"
        flags = "severity=alert" if mode == "async-zero" else "severity=kill sync"
        rules.insert(rng.randint(0, len(rules)), (flags, atoms))
    return "".join(
        f"rule r{i} family=t {flags} {{ {' '.join(atoms)} }}\n"
        for i, (flags, atoms) in enumerate(rules)
    )


def _zero_history(rng: random.Random, page_size: int) -> str:
    """Three areas of any x/w mix, each blank or with an image from AB00x,
    written with bytes from AB00x, read, fetched and mprotected."""
    lines, areas = ["PROC uid=1000"], []
    for at in (16, 20, 24):
        n = rng.randint(1, 2)
        line = f"MMAP pid=1 perms={rng.choice(['wx', 'rwx', 'rx', 'rw'])} pages={n}"
        if rng.random() < 0.5:
            image = bytes(rng.choice(b"AB\x00x") for _ in range(rng.randint(1, n * page_size)))
            line += f" content={image.hex()}"
        lines.append(f"{line} at={at}")
        areas.append((at, n))
    for _ in range(rng.randint(10, 40)):
        at, n = rng.choice(areas)
        base, cpu, roll = (at + rng.randrange(n)) * page_size, rng.randrange(2), rng.random()
        if roll < 0.25:
            lines.append(f"FETCH pid=1 tid=1 cpu={cpu} addr={base + rng.randrange(page_size)}")
        elif roll < 0.32:
            perms = rng.choice(["wx", "rwx", "rx", "rw"])
            lines.append(f"MPROTECT pid=1 start={at} pages={n} perms={perms}")
        elif roll < 0.37:
            lines.append(f"READ pid=1 tid=1 cpu={cpu} addr={base}")
        else:
            data = bytes(rng.choice(b"AB\x00x") for _ in range(rng.randint(1, 3)))
            off = rng.choice([0, page_size - len(data), rng.randint(0, page_size - len(data))])
            lines.append(
                f"WRITE pid=1 tid=1 cpu={cpu} addr={base + off} bytes={data.hex()}"
            )
    return "\n".join(lines) + "\n"


class TestWrittenSpans:
    """Checks narrowed to the bytes written since a page's last clean check."""

    def test_reports_equal_whole_page_checks(self, monkeypatch):
        def whole_page(trace, rs, config):
            with monkeypatch.context() as m:
                m.setattr(shadow_module, "sync_check",
                          lambda content, rules, spans=None: sync_check(content, rules))
                m.setattr(agent_module, "scan_page",
                          lambda content, rules, spans=None: scan_page(content, rules))
                return replay(trace, rs, config).emit()

        rng = random.Random(77)
        page_size, detected = 64, 0
        for _ in range(1000):
            trace = _sparse_history(rng, page_size)
            rs = parse_rules(_ab_rules(rng), page_size)
            for drain_every in (1, 3):
                for sync in (True, False):
                    config = SimConfig(page_size=page_size, sync_check=sync,
                                       detection_action="alert", drain_every=drain_every)
                    report = replay(trace, rs, config)
                    assert report.emit() == whole_page(trace, rs, config)
                    detected += bool(report.detections)
        assert detected > 1000  # the histories reach matches often

    def test_reports_equal_whole_page_checks_with_zero_rules_and_images(self, monkeypatch):
        # blank executable pages start narrow only when no rule matches a zero page
        def whole_page(trace, rs, config):
            with monkeypatch.context() as m:
                m.setattr(shadow_module, "sync_check",
                          lambda content, rules, spans=None: sync_check(content, rules))
                m.setattr(agent_module, "scan_page",
                          lambda content, rules, spans=None: scan_page(content, rules))
                return replay(trace, rs, config).emit()

        rng = random.Random(1313)
        page_size, detected, zero_sets = 64, 0, 0
        for _ in range(200):
            trace = _zero_history(rng, page_size)
            rs = parse_rules(_zero_rules(rng), page_size)
            zero_sets += not rs.zero_page_clean
            action = rng.choice(["alert", "kill"])
            for drain_every in (1, 3):
                for sync in (True, False):
                    config = SimConfig(page_size=page_size, sync_check=sync,
                                       detection_action=action, drain_every=drain_every)
                    report = replay(trace, rs, config)
                    assert report.emit() == whole_page(trace, rs, config)
                    detected += bool(report.detections)
        assert detected > 400 and 50 < zero_sets < 150  # matches, clean and unclean sets

    def test_each_snapshot_holds_only_the_spans_written_since_the_last_check(self):
        # a check hands the page's span list to its snapshot and starts a new one
        rs = parse_rules("rule r family=f severity=kill { ee ff }\n", 64)
        ctx = build_run(SimConfig(page_size=64, drain_every=0), rs)
        pid = ctx.machine.create_process(uid=1)
        ctx.machine.mmap(pid, "rwx", 1, at=16)
        from jitscan.mmu import AccessKind

        ctx.machine.access(pid, 1, 0, 16 * 64 + 4, AccessKind.WRITE, b"\x01\x02")
        ctx.machine.access(pid, 1, 0, 16 * 64, AccessKind.FETCH)
        pte = ctx.machine.spaces[pid].ptes[16]
        assert pte.written == []
        ctx.machine.access(pid, 1, 0, 16 * 64 + 20, AccessKind.WRITE, b"\x03")
        ctx.machine.access(pid, 1, 0, 16 * 64, AccessKind.FETCH)
        assert [snap.spans for snap in ctx.pipeline.drain()] == [[(4, 6)], [(20, 21)]]

    def test_a_checked_fetch_without_a_snapshot_stops_the_process(self, monkeypatch):
        # one span list serves the sync check and the snapshot only because
        # of this: a page's checks and snapshots pair one to one
        checked = ShadowEngine._checked_fetch
        unpaired = []

        def spy(self, space, pte, vpage):
            before = self.pipeline.enqueued_total
            result = checked(self, space, pte, vpage)
            if self.pipeline.enqueued_total == before:
                unpaired.append((space.alive, space.blocked))
            return result

        monkeypatch.setattr(ShadowEngine, "_checked_fetch", spy)
        rng = random.Random(5)
        for _ in range(150):
            trace = _sparse_history(rng, 64, n_pids=3)
            rs = parse_rules(_ab_rules(rng), 64)
            for action in ("kill", "block", "alert"):
                for penalty in ("kill", "block"):
                    config = SimConfig(
                        page_size=64, detection_action=action, drain_every=rng.choice([1, 3]),
                        guard=GuardConfig(threshold=1, penalty_action=penalty),
                    )
                    replay(trace, rs, config)
        assert len(unpaired) > 100
        assert all(not alive or blocked for alive, blocked in unpaired)


def _flood_history(
    rng: random.Random, page_size: int, perms: tuple[str, ...] = ("wx", "rx", "rwx", "rw"),
) -> str:
    """A few pids over one to three uids, each with two areas of the given
    perms: writes from AB, reads, fetches, mprotects and TICKs."""
    n_pids = rng.randint(1, 6)
    lines = [f"PROC uid={1000 + rng.randrange(rng.randint(1, 3))}" for _ in range(n_pids)]
    for pid in range(1, n_pids + 1):
        for at in (16, 20):
            lines.append(
                f"MMAP pid={pid} perms={rng.choice(perms)} pages={rng.randint(1, 2)} at={at}"
            )
    for _ in range(rng.randint(20, 80)):
        pid, cpu, roll = rng.randint(1, n_pids), rng.randrange(2), rng.random()
        addr = rng.choice((16, 20)) * page_size + rng.randrange(page_size)
        if roll < 0.3:
            lines.append(f"FETCH pid={pid} tid=1 cpu={cpu} addr={addr}")
        elif roll < 0.35:
            lines.append(
                f"MPROTECT pid={pid} start={rng.choice((16, 20))} pages=1"
                f" perms={rng.choice(perms)}"
            )
        elif roll < 0.45:
            lines.append(f"READ pid={pid} tid=1 cpu={cpu} addr={addr}")
        elif roll < 0.5:
            lines.append(f"TICK n={rng.randint(1, 40)}")
        else:
            data = bytes(rng.choice(b"AB") for _ in range(rng.randint(1, 3)))
            addr -= max(0, addr % page_size + len(data) - page_size)
            lines.append(f"WRITE pid={pid} tid=1 cpu={cpu} addr={addr} bytes={data.hex()}")
    return "\n".join(lines) + "\n"


def _plain_loop(trace: str, rs, config: SimConfig) -> bytes:
    """The replay loop without the drain skip: the agent steps on every
    drain_every-th event whether or not anything is pending."""
    events = parse_trace(trace, config.page_size)
    ctx = build_run(config, rs)
    machine, report, pipeline = ctx.machine, ctx.report, ctx.pipeline
    for index, event in enumerate(events, start=1):
        try:
            result = agent_module._apply_event(machine, event)
        except DeadProcessError:
            result = "dead"
        except (SimError, ValueError):
            result = "error"
        report.outcomes[result] = report.outcomes.get(result, 0) + 1
        ctx.guard.tick(machine.now)
        if config.drain_every > 0 and index % config.drain_every == 0:
            ctx.agent.step()
    if config.drain_every > 0:
        while pipeline.pending_count() > 0:
            ctx.agent.step()
    actions = [a.action for a in report.actions]
    report.metrics = {
        "events": len(events), "snapshots_emitted": pipeline.enqueued_total,
        "pending_high_watermark": pipeline.high_watermark,
        "pending_final": pipeline.pending_count(), "scans_run": ctx.agent.scans_run,
        "evictions": ctx.guard.evictions, "admits": ctx.guard.admits,
        "denials": ctx.guard.denials, "detections": len(report.detections),
        "kills": actions.count("kill"), "blocks": actions.count("block"), "clock": machine.now,
    }
    return report.emit()


class TestDrainSkip:
    """replay runs the agent only while a snapshot is pending."""

    def test_reports_equal_the_plain_loop(self):
        rng = random.Random(2024)
        page_size = 64
        seen = dict.fromkeys(["detections", "kills", "blocks", "denials", "evictions"], 0)
        for _ in range(100):
            trace = _flood_history(rng, page_size)
            rs = parse_rules(_ab_rules(rng), page_size)
            guard = GuardConfig(
                threshold=rng.randint(1, 3), penalty_action=rng.choice(["kill", "block"]),
                ttl_penalty=rng.randint(1, 50), ttl_evict=rng.randint(1, 50),
            )
            for drain_every in (0, 1, 3, 16):
                for sync in (True, False):
                    for action in ("kill", "block", "alert"):
                        config = SimConfig(page_size=page_size, sync_check=sync,
                                           detection_action=action, drain_every=drain_every,
                                           guard=guard)
                        report = replay(trace, rs, config)
                        assert report.emit() == _plain_loop(trace, rs, config)
                        for key in seen:
                            seen[key] += bool(report.metrics[key])
        assert min(seen.values()) > 400  # the traces reach every path

    def test_no_executable_page_never_drains(self, monkeypatch):
        drains = []
        drain = SnapshotTable.drain
        monkeypatch.setattr(
            SnapshotTable, "drain", lambda self, *a: drains.append(1) or drain(self, *a),
        )
        rng = random.Random(11)
        for _ in range(20):
            trace = _flood_history(rng, 64, perms=("rw", "r"))
            rs = parse_rules(_ab_rules(rng), 64)
            for drain_every in (1, 3):
                report = replay(trace, rs, SimConfig(page_size=64, drain_every=drain_every))
                assert report.outcomes.get("segv_delivered", 0) > 0  # fetches trapped
        assert drains == []
        replay(PACKER_TRACE, rules())
        assert drains  # the wrapper does count


def _mixed_history(rng: random.Random, page_size: int) -> str:
    """Pids over one to three uids, each with wx, rx, rwx or rw areas, some
    auto-placed (so some MMAPs overlap) and some with an image of A, B and
    zero bytes; then writes from AB00, reads, fetches across three CPUs,
    mprotects (now and then of an unmapped range), stray addresses and TICKs."""
    n_pids = rng.randint(1, 5)
    lines = [f"PROC uid={1000 + rng.randrange(rng.randint(1, 3))}" for _ in range(n_pids)]
    starts = (16, 18, 20)
    for pid in range(1, n_pids + 1):
        for _ in range(rng.randint(1, 3)):
            pages = rng.randint(1, 2)
            line = f"MMAP pid={pid} perms={rng.choice(('wx', 'rx', 'rwx', 'rw'))} pages={pages}"
            if rng.random() < 0.8:
                line += f" at={rng.choice(starts)}"
            if rng.random() < 0.4:
                size = rng.randint(1, pages * page_size)
                image = bytes(rng.choice(b"AB\0") for _ in range(size))
                line += f" content={image.hex()}"
            lines.append(line)
    for _ in range(rng.randint(20, 80)):
        pid, cpu, roll = rng.randint(1, n_pids), rng.randrange(3), rng.random()
        vpage = rng.choice(starts) + rng.randrange(3 if rng.random() < 0.9 else 40)
        addr = vpage * page_size + rng.randrange(page_size)
        if roll < 0.3:
            lines.append(f"FETCH pid={pid} tid=1 cpu={cpu} addr={addr}")
        elif roll < 0.37:
            lines.append(
                f"MPROTECT pid={pid} start={vpage} pages={rng.randint(1, 2)}"
                f" perms={rng.choice(('wx', 'rx', 'rwx', 'rw', 'r', 'x'))}"
            )
        elif roll < 0.47:
            lines.append(f"READ pid={pid} tid=1 cpu={cpu} addr={addr}")
        elif roll < 0.52:
            lines.append(f"TICK n={rng.randint(1, 8)}")
        else:
            data = bytes(rng.choice(b"AB\0") for _ in range(rng.randint(1, 3)))
            addr -= max(0, addr % page_size + len(data) - page_size)
            lines.append(f"WRITE pid={pid} tid=1 cpu={cpu} addr={addr} bytes={data.hex()}")
    return "\n".join(lines) + "\n"


def _mixed_runs():
    """TestReferenceReplay's runs: 60 mixed histories on 64-byte pages, each
    with its rules and guard, under every drain cadence, sync setting and
    detection action; yields (trace, rules, config)."""
    rng = random.Random(21)
    page_size = 64
    for _ in range(60):
        trace = _mixed_history(rng, page_size)
        rs = parse_rules(rng.choice([_ab_rules, _zero_rules])(rng), page_size)
        guard = GuardConfig(
            threshold=rng.randint(1, 3), penalty_action=rng.choice(["kill", "block"]),
            ttl_penalty=rng.randint(1, 30), ttl_evict=rng.randint(1, 12),
        )
        for drain_every in (0, 1, 3, 16):
            for sync in (True, False):
                for action in ("kill", "block", "alert"):
                    yield trace, rs, SimConfig(
                        page_size=page_size, sync_check=sync, detection_action=action,
                        drain_every=drain_every, guard=guard,
                    )


class TestReferenceReplay:
    """replay's report equals the reference replay's in conftest, which has
    no areas, no TLB, no written spans and no drain ring; and on the same
    runs every fetch that returns ok runs the bytes its page's last passed
    check saw (conftest's content oracle)."""

    def test_reports_equal_the_reference(self):
        seen = dict.fromkeys(
            ["sync", "async", "kills", "blocks", "denials", "evictions", "dead", "error", "segv"],
            0,
        )
        for trace, rs, config in _mixed_runs():
            report = replay(trace, rs, config)
            assert report.emit() == reference_replay(trace, rs, config), trace
            paths = {d.path for d in report.detections}
            seen["sync"] += "sync" in paths
            seen["async"] += "async" in paths
            for key in ("kills", "blocks", "denials", "evictions"):
                seen[key] += bool(report.metrics[key])
            seen["dead"] += "dead" in report.outcomes
            seen["error"] += "error" in report.outcomes
            seen["segv"] += "segv_delivered" in report.outcomes
        assert min(seen.values()) > 50, seen  # the traces reach every path

    def test_every_ok_fetch_runs_the_bytes_its_last_check_passed(self):
        for trace, rs, config in _mixed_runs():
            assert unchecked_fetches(trace, rs, config) == [], trace

    def test_the_content_oracle_flags_fetches_once_flushes_are_lost(self, monkeypatch):
        monkeypatch.setattr(Machine, "tlb_flush_one", lambda self, pte: None)
        flagged = sum(len(unchecked_fetches(*run)) for run in _mixed_runs())
        assert flagged > 100  # 152 fetches, in 92 of the runs

    def test_plain_engine_equals_the_reference(self):
        rng = random.Random(22)
        for _ in range(40):
            trace = _mixed_history(rng, 64)
            rs = parse_rules(_zero_rules(rng), 64)
            config = SimConfig(page_size=64, shadow=False)
            assert replay(trace, rs, config).emit() == reference_replay(trace, rs, config)


def _assert_guard_counts_the_pipeline(ctx) -> int:
    """Each uid's guard counter equals its snapshots in the pipeline;
    returns the snapshots pending."""
    in_pipeline = collections.Counter(
        snap.uid for bucket in ctx.pipeline._buckets for snap in bucket
    )
    for uid in ctx.guard.entries.keys() | in_pipeline.keys():
        assert ctx.guard.pending(uid) == in_pipeline[uid], uid
    return sum(in_pipeline.values())


class TestGuardCountsThePipeline:
    """The agent acknowledges exactly what it drains: a run through
    build_run's parts, as replay runs it, keeps each uid's pending count
    equal to its snapshots still queued, after every event and at the end."""

    def test_pending_per_uid_equals_the_queued_snapshots(self):
        held = dict.fromkeys((0, 1, 3, 16), 0)  # drain cadence -> checks with snapshots queued
        for trace, rs, config in _mixed_runs():
            ctx = build_run(config, rs)
            machine, drain_every = ctx.machine, config.drain_every
            events = parse_trace(trace, config.page_size)
            for index, event in enumerate(events, start=1):
                try:
                    agent_module._apply_event(machine, event)
                except (SimError, ValueError):
                    pass
                if drain_every > 0 and index % drain_every == 0 and ctx.pipeline.pending_count():
                    ctx.agent.step()
                held[drain_every] += bool(_assert_guard_counts_the_pipeline(ctx))
            if drain_every > 0:
                ctx.agent.step()
            ctx.guard.tick(machine.now)
            left = _assert_guard_counts_the_pipeline(ctx)
            assert left == 0 if drain_every > 0 else left == ctx.pipeline.enqueued_total
        # snapshots stay queued between steps, except at cadence 1, whose steps drain all
        assert min(held[0], held[3], held[16]) > 500, held


class TestNoRulesIsTheEmptySet:
    def test_none_and_the_empty_set_give_equal_reports(self):
        rng = random.Random(23)
        for _ in range(20):
            trace = _mixed_history(rng, 64)
            for shadow in (True, False):
                for drain_every, sync in ((1, True), (0, False)):
                    config = SimConfig(page_size=64, shadow=shadow, drain_every=drain_every,
                                       sync_check=sync)
                    empty = replay(trace, RuleSet((), 64), config).emit()
                    assert replay(trace, None, config).emit() == empty, trace

    def test_the_engine_and_agent_hold_an_empty_set(self):
        ctx = build_run(SimConfig(page_size=64))
        for rules in (ctx.machine.engine.rules, ctx.agent.rules):
            assert isinstance(rules, RuleSet) and len(rules.rules) == 0 and rules.page_size == 64


class TestGuardSweep:
    """Each admission sweeps the guard at the previous event's tick first,
    and replay sweeps once after the last event."""

    @pytest.mark.parametrize("k, evictions", [(4, 0), (5, 1)])
    def test_eviction_boundary(self, k, evictions):
        trace = (
            "PROC uid=1\n"
            "MMAP pid=1 perms=rx pages=2 at=16\n"
            f"FETCH pid=1 tid=1 cpu=0 addr={16 * PS}\n"  # tick 3, delivered at 3
            f"TICK n={k}\n"
            f"FETCH pid=1 tid=1 cpu=0 addr={17 * PS}\n"  # tick 4 + k
        )
        config = SimConfig(guard=GuardConfig(ttl_evict=5))
        report = replay(trace, rules(), config)
        assert report.outcomes == {"ok": 5}
        assert report.metrics["admits"] == 2
        assert report.metrics["evictions"] == evictions

    @pytest.mark.parametrize("k", [4, 5])
    def test_a_penalty_ends_with_its_eviction_not_before(self, k):
        trace = (
            "PROC uid=1\nPROC uid=1\n"
            "MMAP pid=1 perms=rx pages=2 at=16\n"
            "MMAP pid=2 perms=rx pages=1 at=16\n"
            f"FETCH pid=1 tid=1 cpu=0 addr={16 * PS}\n"  # tick 5: admitted
            f"FETCH pid=2 tid=1 cpu=0 addr={16 * PS}\n"  # tick 6: denied; pid 1's delivered
            f"TICK n={k}\n"
            f"FETCH pid=1 tid=1 cpu=0 addr={17 * PS}\n"  # tick 7 + k, idle for 1 + k
        )
        guard = GuardConfig(threshold=1, ttl_penalty=100, ttl_evict=5)
        report = replay(trace, rules(), SimConfig(drain_every=6, guard=guard))
        throttled = [a.pid for a in report.actions if a.cause == "throttle"]
        if k == 4:  # idle exactly ttl_evict ticks at the readmission: still penalized
            assert throttled == [2, 1]
            assert report.outcomes == {"ok": 6, "killed": 2}
            # the final sweep, at tick 11, evicts the idle entry
            assert [report.metrics[m] for m in ("admits", "denials", "evictions")] == [1, 2, 1]
        else:  # one tick later the entry, and its penalty, are gone
            assert throttled == [2]
            assert report.outcomes == {"ok": 7, "killed": 1}
            assert [report.metrics[m] for m in ("admits", "denials", "evictions")] == [2, 1, 1]

    def test_no_executable_page_sweeps_once(self, monkeypatch):
        calls = []
        tick = DosGuard.tick
        monkeypatch.setattr(
            DosGuard, "tick", lambda self, now: calls.append(now) or tick(self, now),
        )
        rng = random.Random(5)
        for _ in range(10):
            trace = _flood_history(rng, 64, perms=("rw", "r"))
            report = replay(trace, parse_rules(_ab_rules(rng), 64), SimConfig(page_size=64))
            assert report.outcomes.get("segv_delivered", 0) > 0  # fetches trapped
            assert calls == [report.metrics["clock"]]
            calls.clear()
        report = replay(PACKER_TRACE, rules())
        assert report.metrics["admits"] == 1
        assert calls == [3, 4]  # before the admission at tick 4, then the final sweep


class TestEmit:
    def test_report_bytes_are_stable_across_runs(self):
        a = replay(PACKER_TRACE, rules()).emit()
        b = replay(PACKER_TRACE, rules()).emit()
        assert a == b

    def test_empty_run_emits_only_a_summary(self):
        payload = replay("PROC uid=1\n", rules()).emit()
        lines = payload.decode().strip().split("\n")
        assert len(lines) == 1
        summary = json.loads(lines[0])
        assert summary["record"] == "summary"
        assert summary["events"] == 1

    def test_records_carry_stable_fields(self):
        payload = replay(PACKER_TRACE, rules()).emit()
        records = [json.loads(line) for line in payload.decode().strip().split("\n")]
        kinds = [r["record"] for r in records]
        assert kinds == ["detection", "action", "summary"]
        det = records[0]
        assert det["rule"] == "dropper" and det["path"] == "async"
        assert records[1]["cause"] == "signature"
        assert records[2]["outcomes"] == {"ok": 4}

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            replay("PROC uid=1\n", rules()).emit("xml")

    def test_detection_and_action_records_equal_encode_record(self):
        # every field set, from the record type's own field list, so a field
        # added to a type and not to its template fails here
        texts = iter(['a"b\\c', 'say "hi"', "règle", "tab\tnul\x00 del\x7f",
                      "caf\u00e9 \u2603 \U0001f600", "back\\slash", "", "kill"] * 4)
        numbers = iter(range(0, 10**12, 10**12 // 50))

        def filled(cls, **fixed):
            hints = typing.get_type_hints(cls)
            values = {name: next(numbers) if hints[name] is int else next(texts)
                      for name in cls._fields}
            return cls(**{**values, **fixed})

        def records(report):  # what emit writes, as the dicts json would encode
            out = [{"record": "detection", **d._asdict()} for d in report.detections]
            out += [{"record": "action", **a._asdict()} for a in report.actions]
            return out + [{"record": "summary", "outcomes": report.outcomes, **report.metrics}]

        report = Report()
        report.detections = [filled(Detection), filled(Detection, family='a"b\\c', rule="règle")]
        report.actions = [filled(ActionTaken), filled(ActionTaken, rule=None, path=None),
                          filled(ActionTaken, rule="règle", path=None)]
        report.outcomes = {"ok": 9, "segv_delivered": 3, "killed": 1, "dead": 2, "error": 0}
        report.metrics = dict(zip(replay(PACKER_TRACE, rules()).metrics, numbers))  # every key
        lines = report.emit().decode("ascii").split("\n")
        assert lines == [encode_record(r) for r in records(report)] + [""]

        # a run from a rule file whose family holds '"' and '\' and whose name is not ASCII
        text = ASYNC_RULES.replace("rule dropper family=packer", 'rule règle_ω family=pa"ck\\er')
        run = replay(PACKER_TRACE + f"FETCH pid=1 tid=1 cpu=0 addr={17 * PS}\n", rules(text))
        assert [d.rule for d in run.detections] == ["règle_ω"]
        assert run.actions and len(run.outcomes) > 1
        lines = run.emit().decode("ascii").split("\n")
        dumps = [json.dumps(r, sort_keys=True, separators=(",", ":")) for r in records(run)]
        assert lines == dumps + [""]


_RUN = ["run", "--trace", "{absent}", "--rules", "{rules}"]

# three pids under two uids: pid 1 runs the dropper, pid 2 the probe and
# then a third snapshot of uid 1000 that threshold 1 denies
_PIDS_TRACE = f"""\
PROC uid=1000
PROC uid=1000
PROC uid=2000
MMAP pid=1 perms=wx pages=2 at=16
MMAP pid=2 perms=wx pages=2 at=16
MMAP pid=3 perms=wx pages=1 at=32
WRITE pid=1 tid=1 cpu=0 addr={16 * PS} bytes={DROPPER.hex()}
FETCH pid=1 tid=1 cpu=0 addr={16 * PS}
WRITE pid=2 tid=2 cpu=1 addr={16 * PS + 64} bytes=9090909090c3
FETCH pid=2 tid=2 cpu=1 addr={16 * PS + 64}
WRITE pid=2 tid=2 cpu=1 addr={17 * PS} bytes=c3
FETCH pid=2 tid=2 cpu=1 addr={17 * PS}
WRITE pid=3 tid=3 cpu=0 addr={32 * PS} bytes=90c3
FETCH pid=3 tid=3 cpu=0 addr={32 * PS}
TICK n=2
"""


class TestCli:
    @pytest.fixture()
    def files(self, tmp_path):
        trace = tmp_path / "t.trace"
        trace.write_text(PACKER_TRACE)
        rule_file = tmp_path / "r.rules"
        rule_file.write_text(ASYNC_RULES)
        return trace, rule_file, tmp_path

    def test_action_flags_offer_the_shared_action_tuples(self, files, capsys):
        sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        choices = {a.dest: a.choices for a in sub.choices["run"]._actions}
        assert choices["action"] is DETECTION_ACTIONS == ("kill", "block", "alert")
        assert choices["penalty_action"] is PENALTY_ACTIONS == ("kill", "block")
        trace, rule_file, _ = files
        with pytest.raises(SystemExit) as exc:
            main(["run", "--trace", str(trace), "--rules", str(rule_file),
                  "--penalty-action", "alert"])
        assert exc.value.code == 2
        assert "invalid choice: 'alert' (choose from 'kill', 'block')" in capsys.readouterr().err

    def test_run_flag_defaults_are_the_config_defaults(self):
        args = _build_parser().parse_args(["run", "--trace", "t", "--rules", "r"])
        sim, guard = SimConfig(), GuardConfig()
        assert (args.sync_check == "on") is sim.sync_check
        assert (args.action, args.drain_every, args.page_size) == (
            sim.detection_action, sim.drain_every, sim.page_size,
        )
        assert (args.threshold, args.ttl_penalty, args.ttl_evict, args.penalty_action) == (
            guard.threshold, guard.ttl_penalty, guard.ttl_evict, guard.penalty_action,
        )

    def test_run_emits_report_and_exit_code(self, files, capsys):
        trace, rule_file, _ = files
        code = main(["run", "--trace", str(trace), "--rules", str(rule_file)])
        out = capsys.readouterr().out
        assert code == 1  # kill-severity detection
        assert '"record":"summary"' in out

    def test_run_writes_report_file(self, files, capsys):
        trace, rule_file, tmp = files
        out_path = tmp / "report.jsonl"
        code = main([
            "run", "--trace", str(trace), "--rules", str(rule_file),
            "--report", str(out_path),
        ])
        assert code == 1
        lines = out_path.read_bytes().decode().strip().split("\n")
        assert json.loads(lines[-1])["record"] == "summary"
        assert capsys.readouterr().out == ""  # report went to the file

    def test_run_benign_trace_exits_zero(self, files, capsys):
        _, rule_file, tmp = files
        trace = tmp / "benign.trace"
        trace.write_text("PROC uid=1\nMMAP pid=1 perms=rw pages=1 at=16\n")
        assert main(["run", "--trace", str(trace), "--rules", str(rule_file)]) == 0

    def test_run_alert_action_still_exits_nonzero(self, files):
        trace, rule_file, _ = files
        code = main([
            "run", "--trace", str(trace), "--rules", str(rule_file),
            "--action", "alert",
        ])
        assert code == 1

    def test_run_rejects_bad_trace(self, files, capsys):
        _, rule_file, tmp = files
        bad = tmp / "bad.trace"
        bad.write_text("FETCH pid=1 tid=1 cpu=0 addr=0\n")
        assert main(["run", "--trace", str(bad), "--rules", str(rule_file)]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_run_rejects_bad_rules(self, files, capsys):
        trace, _, tmp = files
        bad = tmp / "bad.rules"
        bad.write_text("rule r family=f severity=wat { 00 }\n")
        assert main(["run", "--trace", str(trace), "--rules", str(bad)]) == 2
        assert "severity" in capsys.readouterr().err

    def test_scan_finds_match_in_page_image(self, files, capsys):
        _, rule_file, tmp = files
        page = tmp / "page.bin"
        page.write_bytes(b"\x00" * 100 + DROPPER)
        code = main(["scan", "--rules", str(rule_file), "--page", str(page)])
        out_lines = capsys.readouterr().out.strip().split("\n")
        assert code == 1
        match = json.loads(out_lines[0])
        assert (match["rule"], match["offset"]) == ("dropper", 100)

    def test_scan_records_equal_encode_record(self, tmp_path, capsys):
        # a non-ASCII name, a family with '"' and '\\', and one with a control
        # character: each string takes the report's json fallback
        hits = [("règle_ω", 'pa"ck\\er', "kill", "de ad", 8),
                ("probe", "ctl\x01", "alert", "be ef", 10)]
        rule_file = tmp_path / "r.rules"
        rule_file.write_text("".join(
            f"rule {rule} family={family} severity={severity} {{ {atoms} }}\n"
            for rule, family, severity, atoms, _ in hits
        ), encoding="utf-8")
        page = tmp_path / "page.bin"
        page.write_bytes(bytes(8) + bytes.fromhex("deadbeef"))
        argv = ["scan", "--rules", str(rule_file), "--page", str(page), "--page-size", "64"]
        assert main(argv) == 1
        records = [{"record": "match", "rule": rule, "family": family, "severity": severity,
                    "offset": offset} for rule, family, severity, _, offset in hits]
        records.append({"record": "summary", "matches": 2})
        assert capsys.readouterr().out == "".join(encode_record(r) + "\n" for r in records)

    def test_scan_clean_page_exits_zero(self, files, capsys):
        _, rule_file, tmp = files
        page = tmp / "page.bin"
        page.write_bytes(b"\x00" * 256)
        assert main(["scan", "--rules", str(rule_file), "--page", str(page)]) == 0

    def test_scan_rejects_oversized_image(self, files, capsys):
        _, rule_file, tmp = files
        page = tmp / "page.bin"
        page.write_bytes(b"\x00" * (PS + 1))
        assert main(["scan", "--rules", str(rule_file), "--page", str(page)]) == 2
        assert capsys.readouterr().err == (
            f"jitscan: page image is larger than one {PS}-byte page\n"
        )

    @pytest.mark.skipif(not os.path.exists(DEV_ZERO), reason="no /dev/zero")
    def test_scan_of_an_endless_page_reads_one_page_and_exits_2(self, files):
        _, rule_file, _ = files
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}

        def cap_memory():  # runs in the child only: an unbounded read dies of it
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        done = subprocess.run(
            [sys.executable, "-m", "jitscan.cli", "scan", "--rules", str(rule_file),
             "--page", DEV_ZERO], capture_output=True, text=True, timeout=60, env=env,
            preexec_fn=cap_memory,
        )
        assert done.returncode == 2, done.stderr
        assert done.stderr == f"jitscan: page image is larger than one {PS}-byte page\n"
        assert done.stdout == ""

    def test_check_trace_ok(self, files, capsys):
        trace, _, _ = files
        assert main(["check-trace", str(trace)]) == 0
        assert "ok: 4 events" in capsys.readouterr().out

    def test_check_trace_reports_line(self, files, capsys):
        _, _, tmp = files
        bad = tmp / "bad.trace"
        bad.write_text("PROC uid=1\nMMAP pid=9 perms=rw pages=1\n")
        assert main(["check-trace", str(bad)]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_check_trace_counts_lines_as_an_editor_does(self, files, capsys):
        _, _, tmp = files
        bad = tmp / "bad.trace"
        bad.write_bytes(b"PROC uid=1 # build\x0cstamp\nMMAP pid=7 perms=rw pages=1\n")
        assert main(["check-trace", str(bad)]) == 2
        assert capsys.readouterr().err == "jitscan: trace: line 2: pid 7 not created yet\n"

    @pytest.mark.parametrize("command", ["check-trace", "run"])
    def test_long_decimal_in_a_canonical_line_gets_the_one_line_error(
        self, files, capsys, command
    ):
        # int() refuses a decimal this long, so the line leaves the fast path
        _, rule_file, tmp = files
        bad = tmp / "long.trace"
        addr = "9" * 5000
        bad.write_text(f"PROC uid=1\nREAD pid=1 tid=1 cpu=0 addr={addr}\n")
        argv = {"check-trace": ["check-trace", str(bad)],
                "run": ["run", "--trace", str(bad), "--rules", str(rule_file)]}[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"jitscan: trace: line 2: addr must be an integer, got {addr!r}\n"

    @needs_dev_full
    def test_unwritable_report_file_exits_2(self, files, capsys):
        trace, rule_file, _ = files
        code = main(["run", "--trace", str(trace), "--rules", str(rule_file),
                     "--report", DEV_FULL])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("jitscan: report: ") and err.count("\n") == 1

    @needs_dev_full
    @pytest.mark.parametrize("buffered", [True, False])
    @pytest.mark.parametrize("command", ["run", "scan", "check-trace"])
    def test_unwritable_stdout_exits_2_on_one_line(self, files, command, buffered):
        trace, rule_file, tmp = files
        page = tmp / "page.bin"
        page.write_bytes(DROPPER)
        argv = {"run": ["run", "--trace", str(trace), "--rules", str(rule_file)],
                "scan": ["scan", "--rules", str(rule_file), "--page", str(page)],
                "check-trace": ["check-trace", str(trace)]}[command]
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
        env.pop("PYTHONUNBUFFERED", None)  # buffered: the exit-time flush has data left
        if not buffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open(DEV_FULL, "wb") as full:
            done = subprocess.run(
                [sys.executable, "-m", "jitscan.cli", *argv], stdout=full,
                stderr=subprocess.PIPE, text=True, timeout=60, env=env,
            )
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("jitscan: output: ") and done.stderr.count("\n") == 1
        assert "Traceback" not in done.stderr and "Exception ignored" not in done.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--trace", "{trace}", "--rules", "{rules}", "--threshold", "0"],
            ["run", "--trace", "{trace}", "--rules", "{rules}", "--ttl-penalty", "0"],
            ["run", "--trace", "{trace}", "--rules", "{rules}", "--ttl-evict", "0"],
            ["run", "--trace", "{trace}", "--rules", "{rules}", "--page-size", "0"],
            ["run", "--trace", "{trace}", "--rules", "{rules}", "--drain-every", "-1"],
            ["run", "--trace", "{binary}", "--rules", "{rules}"],
            ["run", "--trace", "{trace}", "--rules", "{binary}"],
            ["run", "--trace", "{trace}", "--rules", "{rules}",
             "--report", "{trace.parent}/missing-dir/x.jsonl"],
            ["run", "--trace", "{trace}", "--rules", "{rules}", "--report", "{trace.parent}"],
            ["check-trace", "{binary}"],
            ["check-trace", "{trace}", "--page-size", "0"],
            ["check-trace", "{trace}", "--page-size", "-4"],
            ["scan", "--rules", "{rules}", "--page", "{binary}", "--page-size", "0"],
            # a page is allocated whole, so the size is capped before any allocation
            ["run", "--trace", "{trace}", "--rules", "{rules}", "--page-size", "2097153"],
            ["run", "--trace", "{trace}", "--rules", "{rules}", "--page-size", "1099511627776"],
            ["scan", "--rules", "{rules}", "--page", "{trace}", "--page-size", "1099511627776"],
            ["check-trace", "{trace}", "--page-size", "1099511627776"],
        ],
    )
    def test_malformed_input_exits_2_without_traceback(self, files, capsys, argv):
        trace, rule_file, tmp = files
        binary = tmp / "binary"
        binary.write_bytes(b"\xff\xfe\x00not utf-8\n")
        paths = {"trace": trace, "rules": rule_file, "binary": binary}
        argv = [arg.format(**paths) for arg in argv]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a flag value this way
            code = exc.code
        err = capsys.readouterr().err
        assert code == 2
        assert "Traceback" not in err
        assert err.startswith("jitscan: ") and err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize(
        ("argv", "setting"),
        [
            pytest.param([*_RUN, flag, value], setting, id=f"{flag[2:]}={value}")
            for flag, value, setting in [
                ("--threshold", "0", "threshold must be >= 1, got 0"),
                ("--ttl-penalty", "0", "ttl_penalty"),
                ("--ttl-evict", "0", "ttl_evict"), ("--drain-every", "-1", "drain_every"),
                ("--threshold", "x", "--threshold"), ("--action", "shame", "--action"),
                ("--penalty-action", "alert", "--penalty-action"),
                ("--sync-check", "maybe", "--sync-check"),
            ]
        ] + [
            pytest.param([*command, "--page-size", size], "page_size",
                         id=f"{command[0]}-page-size={size}")
            for command in (_RUN, ["scan", "--rules", "{rules}", "--page", "{absent}"],
                            ["check-trace", "{absent}"])
            for size in ("0", "-4", "2097153")
        ] + [
            pytest.param(["run", "--trace", "{absent}"], "--rules", id="no-rules"),
            pytest.param([], "command", id="no-subcommand"),
        ],
    )
    def test_every_malformed_flag_exits_2_on_one_line(self, files, capsys, argv, setting):
        # the trace or page is absent, so the flag's error must answer before the file's
        _, rule_file, tmp = files
        argv = [arg.format(absent=tmp / "absent", rules=rule_file) for arg in argv]
        try:
            code = main(argv)
        except SystemExit as exc:  # the parser's own errors
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err.startswith("jitscan: ") and err.count("\n") == 1 and err.endswith("\n"), err
        assert setting in err and "absent" not in err, err  # the message names the setting

    def test_report_does_not_depend_on_the_hash_seed(self, files):
        _, rule_file, tmp = files
        trace = tmp / "pids.trace"
        trace.write_text(_PIDS_TRACE)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        argv = [sys.executable, "-m", "jitscan.cli", "run", "--trace", str(trace),
                "--rules", str(rule_file), "--threshold", "1", "--drain-every", "4",
                "--penalty-action", "block"]
        runs = []
        for seed in ("0", "12345"):
            env = {**os.environ, "PYTHONPATH": os.path.abspath(src), "PYTHONHASHSEED": seed}
            done = subprocess.run(argv, capture_output=True, timeout=60, env=env)
            runs.append((done.returncode, done.stdout))
        assert runs[0] == runs[1]
        code, report = runs[0]
        assert code == 1, report  # the dropper is a kill-severity detection
        assert b'"record":"detection"' in report and b'"cause":"throttle"' in report
        assert b'"pid":1,' in report and b'"pid":2,' in report

    def test_missing_file_is_a_usage_error(self, tmp_path, capsys):
        rule_file = tmp_path / "r.rules"
        rule_file.write_text(ASYNC_RULES)
        assert main(["run", "--trace", str(tmp_path / "nope"), "--rules", str(rule_file)]) == 2


_TRACE_HEAD = "PROC uid=1\nMMAP pid=1 perms=rwx pages=2 at=16\n"
_TRACE_HEADS = [  # a valid start that runs a dropper, a valid start, none
    _TRACE_HEAD + "WRITE pid=1 tid=1 cpu=0 addr=0x10000 bytes=4831c0\n"
    "FETCH pid=1 tid=1 cpu=1 addr=0x10000\n",
    _TRACE_HEAD, "",
]
_TRACE_LINES = [
    "PROC uid=2", "MMAP pid=1 perms=wx pages=1 content=4831c0",
    "MPROTECT pid=1 start=16 pages=1 perms=rx",
    "WRITE pid=1 tid=1 cpu=0 addr=0x10000 bytes=4831c0", "FETCH pid=1 tid=1 cpu=1 addr=0x10000",
    "WRITE pid=1 tid=1 cpu=0 addr=1024 bytes=0f05", "FETCH pid=1 tid=1 cpu=0 addr=1024",
    "READ pid=1 tid=1 cpu=0 addr=0x10004", "TICK n=3", "# comment",
]
_TRACE_TOKENS = [
    "PROC", "MMAP", "MPROTECT", "WRITE", "FETCH", "READ", "TICK", "uid=1", "pid=1",
    "pid=9", "tid=1", "cpu=0", "cpu=-1", "perms=rwx", "perms=q", "pages=1", "pages=0",
    "at=16", "at=-1", "start=16", "addr=0x10000", "addr=1025", "addr=99999999999999999999",
    "bytes=c3", "bytes=zz", "content=00ff", "content=0", "n=5", "n=-1", "=", "x=", "#",
]
_RULE_HEADS = ["rule r1 family=f severity=kill { 48 31 c0 }\n", ""]
_RULE_LINES = [
    "rule s1 family=f severity=kill sync { 0f 05 }",
    "rule a1 family=f severity=alert { c3 ?? 90 }",
    "# comment",
]
_RULE_TOKENS = [
    "rule", "r1", "r2", "family=f", "severity=kill", "severity=alert", "severity=x",
    "sync", "{", "}", "48", "31", "c0", "??", "0f", "zz", "4", "#",
]
_NON_UTF8 = [b"", b"", b"", b"", b"\xff\xfe", b"\x80", b"ok\xc3"]  # mostly nothing appended


def _text_file(heads, lines, tokens):
    """A file of the language: an optional head, then distinct lines that are
    mostly whole lines of the language and sometimes shuffled tokens, then
    sometimes bytes that are not UTF-8."""
    line = st.one_of(
        st.sampled_from(lines),
        st.sampled_from(lines),
        st.lists(st.sampled_from(tokens), max_size=6).map(" ".join),
    )
    return st.tuples(
        st.sampled_from(heads), st.lists(line, max_size=8, unique=True),
        st.sampled_from(_NON_UTF8),
    ).map(lambda parts: (parts[0] + "\n".join(parts[1])).encode() + parts[2])


def _flag(name, values):
    """Either no flag or `name value` for one of values."""
    return st.one_of(st.just([]), st.sampled_from(values).map(lambda v: [name, str(v)]))


_INT_VALUES = [-1, 0, 1, 2, 5, "x"]
_PAGE_SIZE = _flag("--page-size", [-1, 0, 1, 16, 64, 4096, "x"])  # small frames only
_RUN_FLAGS = st.lists(
    st.one_of(
        _flag("--sync-check", ["on", "off", "maybe"]),
        _flag("--action", ["kill", "block", "alert", "shame"]),
        _flag("--penalty-action", ["kill", "block", "alert"]),
        _flag("--threshold", _INT_VALUES),
        _flag("--ttl-penalty", _INT_VALUES),
        _flag("--ttl-evict", _INT_VALUES),
        _flag("--drain-every", _INT_VALUES),
        _PAGE_SIZE,
    ),
    max_size=4,
).map(lambda flags: [arg for flag in flags for arg in flag])


class TestCliFuzz:
    @pytest.mark.parametrize("command", [
        ["run"],
        ["run", "--report", "{tmp}/out.jsonl"],
        ["run", "--report", "{tmp}/missing-dir/out.jsonl"],
        ["run", "--report", "{tmp}"],  # a directory
        ["scan"],
        ["check-trace"],
    ])
    @settings(max_examples=40, deadline=None)
    @given(
        trace=_text_file(_TRACE_HEADS, _TRACE_LINES, _TRACE_TOKENS),
        rule_text=_text_file(_RULE_HEADS, _RULE_LINES, _RULE_TOKENS),
        page=st.one_of(st.binary(max_size=80), st.just(b"\x90\x48\x31\xc0")),
        run_flags=_RUN_FLAGS,
        page_size=_PAGE_SIZE,
    )
    def test_any_input_exits_0_1_or_2_without_traceback(
        self, command, trace, rule_text, page, run_flags, page_size
    ):
        with tempfile.TemporaryDirectory() as tmp:
            for name, data in (("t.trace", trace), ("r.rules", rule_text), ("p.bin", page)):
                with open(os.path.join(tmp, name), "wb") as handle:
                    handle.write(data)
            trace_file, rule_file = os.path.join(tmp, "t.trace"), os.path.join(tmp, "r.rules")
            if command[0] == "run":
                flags = [flag.format(tmp=tmp) for flag in command[1:] + run_flags]
                argv = ["run", "--trace", trace_file, "--rules", rule_file, *flags]
            elif command[0] == "scan":
                argv = ["scan", "--rules", rule_file, "--page", os.path.join(tmp, "p.bin"),
                        *page_size]
            else:
                argv = ["check-trace", trace_file, *page_size]
            out, err = io.TextIOWrapper(io.BytesIO()), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse rejects a flag value this way
                    code = exc.code
        assert code in (0, 1, 2), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code == 2:
            text = err.getvalue()
            assert text.startswith("jitscan: ") and text.count("\n") == 1, (argv, text)
            assert text.endswith("\n"), (argv, text)
