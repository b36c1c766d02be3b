"""Timings at the reference pace: kernel runs are cut out of a window and
each piece is scaled by the kernel's local time."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import pace  # noqa: E402


def test_local_times_is_a_running_median():
    durations = pace.np.array([1.0, 9.0, 1.0, 1.0, 9.0])
    assert list(pace.local_times(durations, half_width=1)) == [5.0, 1.0, 1.0, 1.0, 5.0]


def test_window_without_kernel_runs_is_scaled_by_the_nearest_run():
    # One kernel run at [10, 10.002]: twice the nominal 0.001 s, so the
    # machine ran at half the reference pace.
    [(work, scaled)] = pace.at_reference([(11.0, 12.0)], [10.0], [10.002],
                                          nominal_s=0.001, half_width=0)
    assert work == pytest.approx(1.0)
    assert scaled == pytest.approx(0.5)


def test_kernel_runs_inside_a_window_are_dropped_and_split_the_scale():
    starts = [0.0, 1.0, 2.0]
    ends = [0.001, 1.004, 2.002]  # pace 1, 1/4, 1/2 of the reference
    [(work, scaled)] = pace.at_reference([(0.5, 2.5)], starts, ends,
                                          nominal_s=0.001, half_width=0)
    assert work == pytest.approx(0.5 + (2.0 - 1.004) + (2.5 - 2.002))
    assert scaled == pytest.approx(0.5 * 1.0 + (2.0 - 1.004) * 0.25 + (2.5 - 2.002) * 0.5)


def test_window_before_the_first_run_takes_its_pace():
    [(_work, scaled)] = pace.at_reference([(0.0, 1.0)], [5.0], [5.004],
                                          nominal_s=0.001, half_width=0)
    assert scaled == pytest.approx(0.25)


def test_no_kernel_runs_is_an_error():
    with pytest.raises(ValueError):
        pace.at_reference([(0.0, 1.0)], [], [])
