"""The percentile rule: report the highest percentile that has at least
ten samples beyond it."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import benchstats  # noqa: E402


@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0),
     (9999, 99.0), (10000, 99.9), (100000, 99.99)],
)
def test_highest_supported_percentile(n, expected):
    assert benchstats.highest_supported_percentile(n) == expected


def test_beyond_counts_samples_ranked_above_the_percentile():
    assert benchstats.beyond(1000, 99) == 10
    assert benchstats.beyond(1000, 99.9) == 1
    assert benchstats.beyond(10, 50) == 5


def test_nearest_rank():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert benchstats.nearest_rank(values, 50) == 50
    assert benchstats.nearest_rank(values, 99) == 99
    assert benchstats.nearest_rank(values, 100) == 100
    assert benchstats.nearest_rank([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        benchstats.nearest_rank([], 50)


def test_quartile_spread_matches_statistics_quantiles():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    # statistics.quantiles(n=4), exclusive method: Q1 2.75, median 5.5, Q3 8.25
    assert benchstats.quartile_spread(values) == pytest.approx((8.25 - 2.75) / 5.5)
