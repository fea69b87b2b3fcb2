"""Replay, the async agent, report emission, and the CLI."""

from __future__ import annotations

import json

import pytest

from jitscan.agent import SimConfig, build_run, replay
from jitscan.cli import main
from jitscan.guard import GuardConfig
from jitscan.signatures import parse_rules

from conftest import SYNC_RULES_TEXT, SYNC_STUB

PS = 4096

ASYNC_RULES = (
    "rule dropper family=packer severity=kill { 48 31 c0 ?? ?? 50 48 89 e7 b0 3b 0f 05 90 90 }\n"
    "rule probe family=recon severity=alert { 90 90 90 90 c3 }\n"
)
DROPPER = bytes.fromhex("4831c0415a504889e7b03b0f059090")
PROBE = bytes.fromhex("90909090c3" * 2)  # two copies -> two matches

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
        assert [e.result for e in report.events] == ["ok", "ok", "ok", "ok"]
        assert report.metrics["snapshots_emitted"] == 0
        assert report.metrics["detections"] == 0

    def test_packer_write_then_fetch_is_caught_async(self):
        report = replay(PACKER_TRACE, rules())
        assert [e.result for e in report.events] == ["ok", "ok", "ok", "ok"]
        assert len(report.detections) == 1
        det = report.detections[0]
        assert (det.rule, det.path, det.action) == ("dropper", "async", "kill")
        assert det.offset == 32 and det.vpage == 16
        assert [a.cause for a in report.actions] == ["signature"]
        assert report.any_kill_detection

    def test_kill_mid_trace_turns_later_events_into_errors(self):
        trace = PACKER_TRACE + f"FETCH pid=1 tid=1 cpu=0 addr={17 * PS}\n"
        report = replay(trace, rules())
        assert report.events[-1].result == "error"
        assert "dead" in report.events[-1].detail

    @pytest.mark.parametrize(
        "action,result", [("kill", "killed"), ("block", "blocked"), ("alert", "ok")]
    )
    def test_sync_rule_kills_at_the_fetch(self, action, result):
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
        assert report.events[-1].result == result
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
        assert report.events[-1].result == "ok"  # the fetch went through
        assert [d.path for d in report.detections] == ["async"]
        assert [a.path for a in report.actions] == ["async"]

    def test_async_lag_lets_the_fetch_run_first(self):
        report = replay(PACKER_TRACE, rules(), SimConfig(drain_every=100))
        fetch_outcome = report.events[3]
        assert fetch_outcome.result == "ok"
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
        assert [e.result for e in report.events[-2:]] == ["blocked", "blocked"]
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
        assert report.events[-1].result == "ok"
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
        fetches = [e.result for e in report.events[4:]]
        assert fetches[:8] == ["ok"] * 8
        assert fetches[8] == "killed"  # pid 1 dies at the 9th fresh page
        assert all(r == "error" for r in fetches[9:12])  # pid 1 is gone
        assert fetches[12] == "killed"  # pid 2, same uid, penalty window
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

    def test_replay_accepts_preparsed_lines(self):
        from jitscan.trace import parse_trace

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


class TestCli:
    @pytest.fixture()
    def files(self, tmp_path):
        trace = tmp_path / "t.trace"
        trace.write_text(PACKER_TRACE)
        rule_file = tmp_path / "r.rules"
        rule_file.write_text(ASYNC_RULES)
        return trace, rule_file, tmp_path

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
            ["check-trace", "{binary}"],
            ["check-trace", "{trace}", "--page-size", "0"],
            ["check-trace", "{trace}", "--page-size", "-4"],
            ["scan", "--rules", "{rules}", "--page", "{binary}", "--page-size", "0"],
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
        assert err.strip().splitlines()[-1].startswith("jitscan")

    def test_missing_file_is_a_usage_error(self, tmp_path, capsys):
        rule_file = tmp_path / "r.rules"
        rule_file.write_text(ASYNC_RULES)
        assert main(["run", "--trace", str(tmp_path / "nope"), "--rules", str(rule_file)]) == 2
