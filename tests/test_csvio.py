import math

import numpy as np
import pytest

from squeezer_sim.csvio import format_value, write_csv

_COLUMNS = ["x", "y", "z"]
# All-float columns take write_csv's column path; the mixed ones take
# format_value cell by cell.
_ROWS = [
    [math.nan, 1.5, True],
    [math.inf, np.float64(-2.25), 7],
    [-math.inf, np.float32(0.1), "ok"],
    [-0.0, np.float64(math.nan), ""],
    [5e-324, 1.7976931348623157e308, 2.5],
    [np.float64(-0.0), -1.7976931348623157e308, np.float32(-math.inf)],
]


def _cellwise(columns, rows, comments):
    lines = [f"# {c}" for c in comments] + [",".join(columns)]
    lines += [",".join(format_value(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("rows", [_ROWS, []], ids=["mixed", "empty"])
def test_write_csv_matches_cellwise_format_value(tmp_path, rows):
    out = tmp_path / "t.csv"
    write_csv(out, _COLUMNS, rows, comments=["a = 1"])
    assert out.read_bytes() == _cellwise(_COLUMNS, rows, ["a = 1"])


def test_write_csv_rejects_ragged_rows(tmp_path):
    for row in ([1.0, 2.0], [1.0, 2.0, 3.0, 4.0]):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", _COLUMNS, [[0.0, 0.0, 0.0], row])


def test_write_csv_row_format_matches_cellwise_format_value(tmp_path):
    # Every column all-float or all-str: one format string per row.
    rows = [[r[0], r[1], s] for r, s in zip(_ROWS, ["ok", "error:X", "", "ii",
                                                    np.str_("iii"), "%s,%d"])]
    out = tmp_path / "t.csv"
    write_csv(out, _COLUMNS, rows, comments=["a = 1"])
    assert out.read_bytes() == _cellwise(_COLUMNS, rows, ["a = 1"])
