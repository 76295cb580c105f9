import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squeezer_sim.svg import _points, line_plot_svg


def _reference(xs, ys):
    return " ".join("%.2f,%.2f" % p for p in zip(xs.tolist(), ys.tolist()))


def _assert_same(values):
    # Every value lands once as an x and once as a y coordinate.
    v = np.asarray(values, float)
    got, want = _points(v, v[::-1].copy()), _reference(v, v[::-1])
    if got != want:
        diff = [(g, w) for g, w in zip(got.split(" "), want.split(" ")) if g != w]
        pytest.fail(f"first differing points (got, want): {diff[:5]}")


def test_exact_binary_ties_round_half_even():
    # v·100 = n + 1/2 exactly only for v = k/8 with k odd.
    _assert_same(np.arange(80000) / 8)
    assert _points(np.array([0.125]), np.array([80.375])) == "0.12,80.38"


def test_both_neighbours_of_every_half_hundredth():
    halves = np.arange(100000) / 100 + 0.005
    _assert_same(np.concatenate([np.nextafter(halves, np.inf), halves,
                                 np.nextafter(halves, -np.inf)]))


def test_special_negative_and_large_values():
    _assert_same([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, -1.5, -0.001,
                  -5e-324, 5e-324, 2.2e-308, -9999.999, 1e4, 12345.678,
                  99999.995, 1e15, 1.7976931348623157e308])
    assert _points(np.array([-0.0, np.nan]), np.array([np.inf, 1e4])) \
        == "-0.00,inf nan,10000.00"


def test_carry_into_a_fifth_integer_digit():
    values = np.linspace(9999.995, 9999.9999, 10001)
    _assert_same(values)
    assert _points(values[-1:], values[-1:]) == "10000.00,10000.00"


def test_seeded_values_across_the_fast_range():
    rng = np.random.default_rng(20261019)
    _assert_same(rng.uniform(0.0, 1e4, 200000))
    _assert_same(rng.uniform(0.0, 1.0, 200000))


@settings(derandomize=True, database=None, max_examples=300)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1,
                max_size=50),
       st.lists(st.floats(min_value=0.0, max_value=1e4), min_size=1,
                max_size=50))
def test_float_lists_match_the_reference(anything, in_range):
    _assert_same(anything)
    _assert_same(in_range)


def _polyline(path):
    return re.search(r'points="([^"]*)"', path.read_text()).group(1)


def test_plot_leaves_nonfinite_points_out_of_the_axis_range(tmp_path):
    x = np.arange(5.0)
    finite = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    line_plot_svg(tmp_path / "a.svg", x, finite)
    line_plot_svg(tmp_path / "b.svg", x, np.array([0.0, np.inf, 2.0, -np.inf, 4.0]))
    a, b = _polyline(tmp_path / "a.svg").split(), _polyline(tmp_path / "b.svg").split()
    assert [a[0], a[2], a[4]] == [b[0], b[2], b[4]]
    assert b[1].endswith(",-inf") and b[3].endswith(",inf")


@pytest.mark.parametrize("y", [[np.nan, np.nan], [np.inf, -np.inf], [np.nan, np.inf]])
def test_plot_with_no_finite_point_raises(tmp_path, y):
    with pytest.raises(ValueError, match="no finite point"):
        line_plot_svg(tmp_path / "y.svg", [0.0, 1.0], y)
    with pytest.raises(ValueError, match="no finite point"):
        line_plot_svg(tmp_path / "x.svg", y, [0.0, 1.0])
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("x, y", [([0.0, 1.0], [0.0]), ([], []),
                                  ([[0.0, 1.0]], [[0.0, 1.0]])])
def test_plot_rejects_mismatched_or_empty_input(tmp_path, x, y):
    with pytest.raises(ValueError, match="equal-length and nonempty"):
        line_plot_svg(tmp_path / "p.svg", x, y)
