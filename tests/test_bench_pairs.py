"""The A/B timer's verdict on fixed pairs of runs: the pairs won, each metric's bound and the gain rule."""

import pytest

from bench_pairs import report

BASE = [1.0 + i / 100 for i in range(10)]  # quartiles 1.0175 and 1.0725


@pytest.mark.parametrize("better, bound, change, verdict", [
    ("lower", 0.25, [b - 0.2 for b in BASE], ("won 10/10", "within bound", "gain rule holds")),
    # the rule asks for at least nine tenths of the pairs
    ("lower", 0.25, [b - 0.2 for b in BASE[:9]] + [BASE[9] + 0.1], ("won 9/10", "gain rule holds")),
    ("lower", 0.25, [b - 0.2 for b in BASE[:8]] + [b + 0.1 for b in BASE[8:]], ("won 8/10", "gain rule fails")),
    # every pair won, but the medians differ by less than the base's quartiles do
    ("higher", 0.05, [b + 0.01 for b in BASE], ("won 10/10", "within bound", "gain rule fails")),
    ("lower", 0.25, [b * 1.3 for b in BASE], ("won 0/10", "WORSE THAN BOUND", "gain rule fails")),
], ids=["clear-gain", "nine-of-ten", "eight-of-ten", "gain-inside-the-base-iqr", "30-percent-worse"])
def test_report_judges_ten_pairs(better, bound, change, verdict):
    line = report({"name": "metric", "unit": "s", "better": better, "bound": bound}, BASE, change)
    assert all(part in line for part in verdict), line
