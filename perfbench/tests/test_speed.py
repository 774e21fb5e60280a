import pytest

from speed import (
    MIN_WINDOW_S, REF_PROBE_S, probe, read_samples, slowdown, trimmed_mean,
)


def test_probe_is_fixed_work():
    assert probe() == probe()


def test_trimmed_mean_drops_the_extremes():
    values = [1.0] * 8 + [100.0, -100.0]
    assert trimmed_mean(values) == 1.0


def test_slowdown_of_a_window():
    # Reference speed for 1 s, then twice as slow for 1 s.
    samples = [(i / 100, REF_PROBE_S) for i in range(100)]
    samples += [(1 + i / 100, 2 * REF_PROBE_S) for i in range(100)]
    assert slowdown(samples, 0.0, 0.99) == pytest.approx(1.0)
    assert slowdown(samples, 1.0, 2.0) == pytest.approx(2.0)
    assert 1.4 < slowdown(samples, 0.5, 1.5) < 1.6


def test_short_window_is_widened_and_an_empty_one_refused():
    samples = [(i / 100, REF_PROBE_S) for i in range(100)]
    assert slowdown(samples, 0.5, 0.5) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        slowdown(samples, 5.0, 5.0 + MIN_WINDOW_S * 4)


def test_partial_last_line_is_ignored(tmp_path):
    path = tmp_path / "speed.txt"
    path.write_text("1.000000 240000\n1.020000 250000\n1.04")
    assert read_samples(path) == [(1.0, 240e-6), (1.02, 250e-6)]
