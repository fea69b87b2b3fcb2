"""Ground-truth check of one replay report.

The expectations come from the generator's truth.json, which it knows
by construction; nothing here is taken from jitscan's own output.
``problems`` returns every violated expectation, so an empty list
means the run is correct.
"""

from __future__ import annotations

import json


def problems(report: bytes, truth: dict) -> list[str]:
    records = [json.loads(line) for line in report.splitlines()]
    if not records or records[-1].get("record") != "summary":
        return ["report does not end with a summary record"]
    summary = records[-1]
    detections = [r for r in records if r["record"] == "detection"]
    actions = [r for r in records if r["record"] == "action"]
    out = []
    if summary["events"] != truth["events"]:
        out.append(f"replayed {summary['events']} events, trace has {truth['events']}")
    out += _CHECKS[truth["workload"]](summary, detections, actions, truth)
    return out


def _jit_churn(summary, detections, actions, truth) -> list[str]:
    out = []
    planted = {p["pid"]: p for p in truth["planted"]}
    for r in detections + actions:
        if r["pid"] not in planted:
            out.append(f"unplanted pid {r['pid']} got a {r['record']}: {r}")
    for pid, p in planted.items():
        kills = [a for a in actions if a["pid"] == pid]
        want = {"action": "kill", "cause": "signature", "rule": p["rule"], "path": p["path"]}
        if len(kills) != 1 or any(kills[0][k] != v for k, v in want.items()):
            out.append(f"planted pid {pid}: want one action {want}, got {kills}")
        for d in detections:
            if d["pid"] == pid and d["rule"] != p["rule"]:
                out.append(f"planted pid {pid}: detection by {d['rule']}, planted {p['rule']}")
    if summary["kills"] != len(planted):
        out.append(f"{summary['kills']} kills, {len(planted)} planted pids")
    return out


def _benign_rw(summary, detections, actions, truth) -> list[str]:
    out = []
    if summary["snapshots_emitted"] != 0:
        out.append(f"{summary['snapshots_emitted']} snapshots, want 0")
    if summary["outcomes"] != {"ok": truth["events"]}:
        out.append(f"outcomes {summary['outcomes']}, want all {truth['events']} ok")
    if detections or actions:
        out.append(f"{len(detections)} detections and {len(actions)} actions, want none")
    return out


def _fork_flood(summary, detections, actions, truth) -> list[str]:
    out = []
    throttled = [a for a in actions if a["cause"] == "throttle"]
    others = [a["uid"] for a in throttled if a["uid"] != truth["flood_uid"]]
    if others:
        out.append(f"throttle actions against uids {sorted(set(others))}")
    if len(throttled) == len(others):
        out.append("the flooding uid was never throttled")
    if detections or len(throttled) != len(actions):
        out.append(f"{len(detections)} detections and "
                   f"{len(actions) - len(throttled)} signature actions, want none")
    if summary["evictions"] < 1:
        out.append("no idle uid was evicted")
    return out


_CHECKS = {"jit-churn": _jit_churn, "benign-rw": _benign_rw, "fork-flood": _fork_flood}
