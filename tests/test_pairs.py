"""The gain and bound verdicts of tests/pairs.py, on made-up runs; running
the pairs is that script's job."""

from __future__ import annotations

import pytest

from pairs import SPEC, verdicts

METRICS = {m["name"]: m for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("name", ["setup_s", "peak_rss_mb"])
def test_a_lower_is_better_regression_is_worse(name):
    # every run of this tree reads twice REV's: a 100% regression
    line = verdicts(METRICS[name], [0.010] * 10, [0.020] * 10)
    assert "wins 0/10" in line and "gap +100.0%" in line
    assert line.endswith("gain: no  bound " + f"{METRICS[name]['bound']:.0%}: worse")


@pytest.mark.parametrize("name", ["setup_s", "peak_rss_mb"])
def test_a_lower_is_better_improvement_is_within_and_a_gain(name):
    line = verdicts(METRICS[name], [0.020] * 10, [0.010] * 10)
    assert "wins 10/10" in line and "gain: yes" in line and line.endswith(": within")


def test_a_higher_is_better_regression_is_worse_and_a_gain_within():
    metric = METRICS["events_per_s"]
    before = [100.0 + i for i in range(10)]
    assert verdicts(metric, before, [50.0 + i for i in range(10)]).endswith(": worse")
    line = verdicts(metric, before, [200.0 + i for i in range(10)])
    assert "wins 10/10" in line and "gain: yes" in line and line.endswith(": within")


def test_overlapping_runs_are_judged_by_the_median_gap():
    metric = METRICS["setup_s"]  # bound 25%
    before = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.02, 0.98, 1.01, 0.99]
    slower = [b * 1.05 for b in before[::-1]]  # 5% worse, inside the bound, no win
    line = verdicts(metric, before, slower)
    assert "gain: no" in line and line.endswith(": within")
