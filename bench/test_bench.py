"""Tests of the benchmark's generator and ground-truth checker, on the
workloads as the benchmark runs them.

Run with ``PYTHONPATH=src python3 -m pytest bench``.
"""

from __future__ import annotations

import json

import pytest

import check
import workloads
from jitscan import parse_rules, replay


def _replay(workdir) -> bytes:
    rules = parse_rules((workdir / "rules.txt").read_text())
    config = workloads.sim_config(workdir)
    return replay((workdir / "trace.txt").read_text(), rules, config).emit("jsonl")


def _truth(workdir) -> dict:
    return json.loads((workdir / "truth.json").read_text())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_files(tmp_path, name):
    a = workloads.generate(name, 7, tmp_path / "a")
    b = workloads.generate(name, 7, tmp_path / "b")
    c = workloads.generate(name, 8, tmp_path / "c")
    files = sorted(p.name for p in a.iterdir())
    assert files == ["config.json", "rules.txt", "trace.txt", "truth.json"]
    for fname in files:
        assert (a / fname).read_bytes() == (b / fname).read_bytes(), fname
    assert (a / "trace.txt").read_bytes() != (c / "trace.txt").read_bytes()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_replay_meets_ground_truth(tmp_path, name):
    workdir = workloads.generate(name, 3, tmp_path)
    assert check.problems(_replay(workdir), _truth(workdir)) == []


def test_checker_rejects_run_without_a_planted_rule(tmp_path):
    workdir = workloads.generate("jit-churn", 3, tmp_path)
    truth = _truth(workdir)
    dropped = truth["planted"][1]["rule"]
    rules = workdir / "rules.txt"
    kept = [line for line in rules.read_text().splitlines()
            if not line.startswith(f"rule {dropped} ")]
    rules.write_text("\n".join(kept) + "\n")
    found = check.problems(_replay(workdir), truth)
    assert any(f"planted pid {truth['planted'][1]['pid']}" in p for p in found), found
