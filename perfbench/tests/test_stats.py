from perfbench.stats import MIN_TAIL_SAMPLES, percentile, supports_percentile


def test_p99_needs_ten_samples_beyond_it():
    assert MIN_TAIL_SAMPLES == 10
    assert supports_percentile(1000, 0.99)
    assert not supports_percentile(999, 0.99)
    assert supports_percentile(20, 0.50)
    assert not supports_percentile(19, 0.50)
    assert not supports_percentile(0, 0.50)


def test_percentile_is_nearest_rank_or_refused():
    values = list(range(1, 1001))  # 1..1000
    assert percentile(values, 0.99) == 990
    assert percentile(values, 0.50) == 500
    assert percentile(list(reversed(values)), 0.99) == 990
    assert percentile(values[:999], 0.99) is None
