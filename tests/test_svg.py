import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import squeezer_sim
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


@pytest.mark.parametrize("level", [1e300, -1e300, 2.0**53, -(2.0**60)])
@pytest.mark.parametrize("axis", ["x", "y"])
def test_plot_widens_a_flat_range_beyond_the_resolution_of_one(tmp_path, level, axis):
    # level + 1.0 == level here, so widening by 1 would leave a zero span.
    flat, ramp = np.full(3, level), np.arange(3.0)
    x, y = (flat, ramp) if axis == "x" else (ramp, flat)
    line_plot_svg(tmp_path / "f.svg", x, y)
    points = [p.split(",") for p in _polyline(tmp_path / "f.svg").split()]
    coords = {float(p[0 if axis == "x" else 1]) for p in points}
    assert len(coords) == 1 and 40.0 <= coords.pop() <= 780.0
    ticks = re.findall(r'text-anchor="(?:middle|end)">([^<]*)</text>',
                       (tmp_path / "f.svg").read_text())
    assert ticks and all(math.isfinite(float(t)) for t in ticks)


def test_plot_keeps_widening_an_ordinary_flat_range_by_one(tmp_path):
    line_plot_svg(tmp_path / "f.svg", [0.0, 1.0], [2.0, 2.0])
    # y spans [2, 3] padded by 5%: 2.0 maps to 440 - 400*0.05/1.1.
    assert _polyline(tmp_path / "f.svg") == "80.00,421.82 780.00,421.82"


@pytest.mark.parametrize("axis", ["x", "y"])
@pytest.mark.parametrize("values", [[-1e308, 1e308], [0.0, 1.7976931348623157e308],
                                    [0.0, 5e-324]])
def test_plot_refuses_a_range_that_overflows(tmp_path, axis, values):
    # A span whose tick step underflows to 0 is refused the same way.
    x, y = (values, [0.0, 1.0]) if axis == "x" else ([0.0, 1.0], values)
    flow = "under" if values[1] < 1.0 else "over"
    with pytest.raises(ValueError, match=f"^{axis} values from .* {flow}flow"):
        line_plot_svg(tmp_path / "o.svg", x, y)
    assert not list(tmp_path.iterdir())


def test_plot_of_a_range_finer_than_its_tick_resolution_finishes(tmp_path):
    # Doubles near 1e16 are 2 apart, so a tick step of 1 cannot advance
    # the tick; the tick loop must stop rather than grow its list without
    # bound.  It runs in a child whose heap is capped at 512 MiB, so a
    # loop that does not stop fails with MemoryError within seconds.
    code = ("import resource, sys; from squeezer_sim.svg import line_plot_svg; "
            "resource.setrlimit(resource.RLIMIT_DATA, (2**29, 2**29)); "
            "a, b = [1e16, 1e16 + 4.0], [0.0, 1.0]; "
            "line_plot_svg(sys.argv[1], a, b); line_plot_svg(sys.argv[2], b, a)")
    src = str(Path(squeezer_sim.__file__).parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "x.svg"),
                           str(tmp_path / "y.svg")],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    for name in ("x.svg", "y.svg"):
        assert ">1e+16</text>" in (tmp_path / name).read_text()
