import math

import numpy as np
import pytest

from squeezer_sim.csvio import format_value, write_csv

_HEADER = ["x", "y", "z"]
# As lists, every column takes format_value cell by cell; the first two
# as float ndarrays take their format from the dtype.
_ROWS = [
    [math.nan, 1.5, True],
    [math.inf, np.float64(-2.25), 7],
    [-math.inf, np.float32(0.1), "ok"],
    [-0.0, np.float64(math.nan), ""],
    [5e-324, 1.7976931348623157e308, 2.5],
    [np.float64(-0.0), -1.7976931348623157e308, np.float32(-math.inf)],
]


def _columns(rows):
    return [[row[j] for row in rows] for j in range(len(_HEADER))]


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
    for col in ([1.0, 2.0], [1.0, 2.0, 3.0, 4.0]):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", _HEADER, [[0.0, 0.0, 0.0], col, [0.0] * 3])
    with pytest.raises(ValueError):
        write_csv(tmp_path / "t.csv", _HEADER, [[0.0], [0.0]])


def test_write_csv_row_format_matches_cellwise_format_value(tmp_path):
    # Float and str ndarray columns: one format string per row, from the
    # dtypes.  An int ndarray among them sends the rows cell by cell.
    columns = [np.array([r[0] for r in _ROWS], np.float32),
               np.array([r[1] for r in _ROWS]),
               np.array(["ok", "error:X", "", "ii", np.str_("iii"), "%s,%d"])]
    out = tmp_path / "t.csv"
    write_csv(out, _HEADER, columns, comments=["a = 1"])
    assert out.read_bytes() == _cellwise(_HEADER, list(zip(*columns)), ["a = 1"])
    columns[2] = np.arange(6)
    write_csv(out, _HEADER, columns)
    assert out.read_bytes() == _cellwise(_HEADER, list(zip(*columns)), [])
