import math

import pytest

from stats import TooFewSamples, median, min_samples_for, percentile, samples_beyond


def test_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50, beyond=0) == 50
    assert percentile(values, 90) == 90
    assert percentile(list(reversed(values)), 90) == 90


def test_needs_ten_samples_beyond():
    assert min_samples_for(99) == 1000
    assert min_samples_for(90) == 100
    assert min_samples_for(50) == 20
    percentile([1.0] * 1000, 99)
    with pytest.raises(TooFewSamples):
        percentile([1.0] * 999, 99)
    percentile([1.0] * 100, 90)
    with pytest.raises(TooFewSamples):
        percentile([1.0] * 99, 90)
    with pytest.raises(TooFewSamples):
        percentile([], 50)


def test_samples_beyond_counts_strictly_above_rank():
    assert samples_beyond(1000, 99) == 10
    assert samples_beyond(1001, 99) == 10
    assert samples_beyond(1100, 99) == 11


def test_failures_count_as_misses():
    values = [1.0] * 985 + [math.inf] * 15
    assert percentile(values, 99) == math.inf
    assert percentile(values, 98) == 1.0


def test_median():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 3, 2]) == 2.5


def test_chunked_percentile_is_robust_to_one_stall():
    from stats import chunked_percentile

    values = [1.0] * 5000
    values[100:160] = [50.0] * 60  # one stall inside the first chunk
    assert percentile(values, 99) == 50.0
    assert chunked_percentile(values, 99) == 1.0
    assert chunked_percentile(values[:1999], 99) == 50.0  # one chunk
    with pytest.raises(TooFewSamples):
        chunked_percentile(values[:999], 99)
