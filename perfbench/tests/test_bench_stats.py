"""The percentile rule and the comparison verdicts."""

import numpy as np
import pytest

from stats import percentile, quartiles, relative_spread, summarize, tail_percentile, verdict


@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
    (1000, 99.0), (9999, 99.0), (10_000, 99.9), (100_000, 99.99),
])
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_tail_percentile_leaves_at_least_ten_samples_beyond():
    for n in range(20, 3000, 7):
        q = tail_percentile(n)
        assert n * (1 - q / 100) >= 10 - 1e-6
        higher = [p for p in (90.0, 99.0, 99.9, 99.99) if p > q]
        assert all(n * (1 - p / 100) < 10 - 1e-6 for p in higher)


def test_percentile_matches_numpy():
    rng = np.random.default_rng(3)
    for n in (1, 2, 7, 100, 1001):
        xs = list(rng.exponential(size=n))
        for q in (0, 50, 90, 99, 99.9, 100):
            assert percentile(xs, q) == pytest.approx(float(np.percentile(xs, q)), rel=1e-12)


def test_summarize_reports_count_median_and_supported_tail():
    xs = list(range(1, 1001))
    s = summarize(xs)
    assert s["n"] == 1000 and s["tail_q"] == 99.0
    assert s["p50"] == pytest.approx(500.5)
    assert s["tail"] == pytest.approx(float(np.percentile(xs, 99)))
    assert summarize(xs[:10])["tail"] is None


def test_relative_spread_is_quartile_distance_over_median():
    xs = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, med, q3 = quartiles(xs)
    assert relative_spread(xs) == pytest.approx((q3 - q1) / med)


def test_verdict_improved_needs_nine_tenths_of_pairs_and_a_gap_beyond_parent_iqr():
    parent = [100.0 + i for i in range(10)]
    change = [p - 20.0 for p in parent]
    pairs = list(zip(parent, change))
    assert verdict(parent, change, pairs, "lower", 0.1) == "improved"
    # same medians gap but only 8 of 10 pairs won
    mixed = change[:8] + [parent[8] + 1, parent[9] + 1]
    assert verdict(parent, mixed, list(zip(parent, mixed)), "lower", 0.5) != "improved"


def test_verdict_no_worse_worse_and_unresolved():
    parent = [100.0 + i for i in range(10)]
    slightly = [p + 1.0 for p in parent]
    assert verdict(parent, slightly, list(zip(parent, slightly)), "lower", 0.1) == "no worse"
    much = [p + 30.0 for p in parent]
    assert verdict(parent, much, list(zip(parent, much)), "lower", 0.1) == "worse"
    noisy = [50.0, 150.0, 60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0]
    assert verdict(parent, noisy, list(zip(parent, noisy)), "lower", 0.1) == "unresolved"
    # higher-is-better metrics flip the sign
    assert verdict(parent, much, list(zip(parent, much)), "higher", 0.1) == "improved"
