import math
from fractions import Fraction

import numpy as np
import pytest

from squeezer_sim import csvio
from squeezer_sim.csvio import format_value, write_csv

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the property test below needs it; the rest do not
    given = None

_HEADER = ["x", "y", "z"]
_ROWS = [
    [math.nan, 1.5, "true"],
    [math.inf, -2.25, "7"],
    [-math.inf, float(np.float32(0.1)), "ok"],
    [-0.0, math.nan, ""],
    [5e-324, 1.7976931348623157e308, "2.5"],
    [-0.0, -1.7976931348623157e308, "-inf"],
]


def _columns(rows):
    x, y, z = zip(*rows) if rows else ((), (), ())
    return [np.array(x, np.float64), np.array(y, np.float64), np.array(z, str)]


def _cellwise(header, rows, comments):
    lines = [f"# {c}" for c in comments] + [",".join(header)]
    lines += [",".join(format_value(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("rows", [_ROWS, []], ids=["mixed", "empty"])
def test_write_csv_matches_cellwise_format_value(tmp_path, rows):
    out = tmp_path / "t.csv"
    write_csv(out, _HEADER, _columns(rows), comments=["a = 1"])
    assert out.read_bytes() == _cellwise(_HEADER, rows, ["a = 1"])


def test_write_csv_rejects_ragged_rows(tmp_path):
    # A column shorter or longer than the others, or a missing column,
    # would leave rows ragged.
    zeros = np.zeros(3)
    for col in (np.zeros(2), np.zeros(4)):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", _HEADER, [zeros, col, zeros])
    with pytest.raises(ValueError):
        write_csv(tmp_path / "t.csv", _HEADER, [zeros, zeros])


_OUTSIDE = {
    "list": ([1.0, 2.0], TypeError),
    "int": (np.array([1, 2]), TypeError),
    "float32": (np.array([1.0, 2.0], np.float32), TypeError),
    "longdouble": (np.array([1.0, 2.0], np.longdouble), TypeError),
    "2-D": (np.array([[1.0], [2.0]]), ValueError),
    "non-ASCII": (np.array(["ok", "Γ-mode é"]), ValueError),
    "NUL": (np.array(["a\0b", "c"]), ValueError),
}


@pytest.mark.parametrize("column, error", _OUTSIDE.values(), ids=_OUTSIDE.keys())
def test_write_csv_rejects_a_column_outside_its_domain(tmp_path, column, error):
    # The column raises before the file is opened: no file is made, and
    # one already at the path keeps its bytes.
    out = tmp_path / "t.csv"
    columns = [np.array([1.0, 2.0]), column]
    with pytest.raises(error):
        write_csv(out, ["x", "y"], columns)
    assert not out.exists()
    out.write_bytes(b"kept\n")
    with pytest.raises(error):
        write_csv(out, ["x", "y"], columns)
    assert out.read_bytes() == b"kept\n"


def test_write_csv_row_format_matches_cellwise_format_value(tmp_path):
    # A strided view of a str column is rendered as its copy would be.
    columns = [np.array([r[0] for r in _ROWS]),
               np.array([r[1] for r in _ROWS]),
               np.array(["ok", "error:X", "", "ii", np.str_("iii"), "%s,%d"])]
    out = tmp_path / "t.csv"
    write_csv(out, _HEADER, columns, comments=["a = 1"])
    assert out.read_bytes() == _cellwise(_HEADER, list(zip(*columns)), ["a = 1"])
    columns[2] = columns[2][::-1]
    write_csv(out, _HEADER, columns)
    assert out.read_bytes() == _cellwise(_HEADER, list(zip(*columns)), [])


def _assert_cellwise(tmp_path, columns):
    header = [f"c{j}" for j in range(len(columns))]
    out = tmp_path / "t.csv"
    write_csv(out, header, columns)
    assert out.read_bytes() == _cellwise(header, list(zip(*columns)), [])


def _edge_values():
    values = []
    for k in range(-300, 301):
        p = float(f"1e{k}")
        values += [np.nextafter(p, 0.0), p, np.nextafter(p, math.inf)]
    rng = np.random.default_rng(18)
    # Halfway decimals: 13 digits then a 5, the tie of %.12e's rounding.
    for k in range(-300, 301, 3):
        for digits in rng.integers(10**12, 10**13, 4).tolist():
            values.append(float(f"{digits // 10**12}.{digits % 10**12:012d}5e{k}"))
    for k in range(-300, 301, 7):  # carries across a decade
        values += [float(f"9.9999999999995e{k}"), float(f"9.99999999999949e{k}"),
                   float(f"9.9999999999999e{k}"), float(f"1.0000000000005e{k}")]
    values += [123.0, 1e100, 1.5e-100, 0.0, math.nan, math.inf, 5e-324,
               2.2250738585072014e-308, 1.7976931348623157e308]
    return np.array(values)


def test_float_rendering_matches_format_value_on_edge_values(tmp_path):
    x = _edge_values()
    _assert_cellwise(tmp_path, [x, -x, x[::-1]])


def test_float_rendering_matches_format_value_on_random_bit_patterns(tmp_path):
    bits = np.random.default_rng(7).integers(0, 2**64, 200_000, dtype=np.uint64)
    x = bits.view(np.float64)
    _assert_cellwise(tmp_path, [x[:100_000], x[100_000:]])


@pytest.mark.parametrize("shift", [-1e-12, 1e-12])
def test_exponent_fix_up_holds_when_log10_misses_the_decade(tmp_path, monkeypatch, shift):
    # A log10 shifted by 1e-12 puts every value within about 2e-12 of a
    # power of ten in the wrong decade: the carry, the rule at 1e12 and
    # the fallback must still give format_value's bytes.
    true_log10 = np.log10
    monkeypatch.setattr(csvio.np, "log10", lambda a: true_log10(a) + shift)
    steps = np.arange(-300, 301) * 1e-14
    x = np.concatenate([10.0 ** k * (1.0 + steps) for k in range(-270, 271, 9)])
    _assert_cellwise(tmp_path, [x, -x])


def test_significand_product_stays_within_its_rounding_bound():
    # p = fl(|x|·fl(10^k)) is within (2 + u)·u·P of P = |x|·10^k, checked
    # exactly on near-tie values (13 digits then a 5) at every table
    # entry; at P < 1e13 + 1/2 that bound is below the fallback margin.
    u = Fraction(1, 2**53)
    assert (2 + u) * u * (10**13 + Fraction(1, 2)) < csvio._MARGIN
    tens = csvio._powers_of_ten()
    rng = np.random.default_rng(34)
    worst = Fraction(0)
    for k in range(csvio._KMIN, csvio._KMAX + 1):
        exact = Fraction(10) ** k
        assert abs(Fraction(tens[k - csvio._KMIN]) - exact) <= u * exact
        for digits in rng.integers(10**12, 10**13, 20).tolist():
            x = float((digits + Fraction(1, 2)) / exact)
            big = Fraction(x) * exact
            err = abs(Fraction(x * tens[k - csvio._KMIN]) - big)
            assert err <= (2 + u) * u * big
            worst = max(worst, err)
    assert worst < csvio._MARGIN


if given is not None:
    @settings(derandomize=True, database=None, deadline=None)
    @given(st.lists(st.floats(), max_size=40), st.lists(st.floats(width=32), max_size=40))
    def test_float_rendering_matches_format_value_on_any_floats(tmp_path_factory, xs, ys):
        tmp_path = tmp_path_factory.mktemp("csv")
        _assert_cellwise(tmp_path, [np.array(xs, np.float64)])
        _assert_cellwise(tmp_path, [np.array(ys, np.float64)])


def test_mixed_float_and_str_columns_match_format_value(tmp_path):
    rng = np.random.default_rng(3)
    n = 5000  # more than one block of rows
    labels = np.array(["ok", "ii", "", "Gamma-mode e", "error:RootFindFailure"])
    # Half-precision values, held as float64.
    halves = rng.uniform(-6e4, 6e4, n).astype(np.float16).astype(np.float64)
    columns = [rng.normal(size=n), labels[rng.integers(0, 5, n)], halves,
               np.array(["iii", "i"])[rng.integers(0, 2, n)], rng.lognormal(0, 40, n)]
    _assert_cellwise(tmp_path, columns)
    _assert_cellwise(tmp_path, [columns[3], columns[1]])
    _assert_cellwise(tmp_path, [np.array([]), np.array([], str)])
