"""The percentile rule: nearest rank, and ten samples beyond a tail."""

import pytest

from bench_e2e import stats


def test_nearest_rank_percentiles():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 99) == 99
    assert stats.percentile([5.0, 1.0, 3.0], 90) == 5.0
    assert stats.percentile([7.0], 50) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


@pytest.mark.parametrize("count, expected", [
    (3, None), (81, None), (99, None), (100, 90), (144, 90), (999, 90),
    (1000, 99), (40000, 99),
])
def test_highest_percentile_with_ten_samples_beyond(count, expected):
    assert stats.highest_supported(count) == expected


def test_tail_falls_back_to_the_median_on_a_small_sample():
    summary = stats.summarize_ms([0.001, 0.002, 0.009])
    assert summary["tail"] == summary["p50"] == 2.0
    assert summary["tail_pct"] == 50
    big = stats.summarize_ms([index / 1000 for index in range(1, 201)])
    assert big["tail_pct"] == 90
    assert big["tail"] == big["p90"] == 180.0


def test_quartile_spread_matches_the_contract_formula():
    import statistics

    values = [10.0, 11.0, 9.5, 10.5, 10.2, 9.9, 10.1, 10.4, 9.8, 10.3]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == (q3 - q1) / statistics.median(values)
