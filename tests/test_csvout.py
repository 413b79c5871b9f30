"""The one CSV format: header echo, column line, one line per row."""

import numpy as np
import pytest

import oracles
from dualgap import csvout
from dualgap.csvout import write_csv


def test_write_csv_format(tmp_path):
    path = tmp_path / "table.csv"
    rows = [
        (8, 0.0625, float("nan")),
        (16, 0.03125, -2.0),
        # the cells the writers really pass: numpy scalars from zipped arrays
        (np.int64(32), np.float64(0.015625), np.float64(-0.0)),
        (2**70, float("inf"), 5e-324),
    ]
    write_csv(path, "per level", "N,h,err", csvout.table((int, float, float), rows))
    text = path.read_text(encoding="utf-8")
    assert text == (
        "# per level\n"
        "N,h,err\n"
        "8,6.250000000000000e-02,nan\n"
        "16,3.125000000000000e-02,-2.000000000000000e+00\n"
        "32,1.562500000000000e-02,-0.000000000000000e+00\n"
        "1180591620717411303424,inf,4.940656458412465e-324\n"
    )
    assert text == oracles.csv_text("per level", "N,h,err", rows)


@pytest.mark.parametrize(
    "kind, value",
    [
        (float, 3),
        (float, np.int64(3)),
        (float, "0.5"),
        (float, None),
        (float, True),
        (int, 3.0),
        (int, np.float64(3.0)),
        (int, False),
        (int, "3"),
    ],
)
def test_write_csv_refuses_a_cell_of_another_type(kind, value):
    with pytest.raises(TypeError, match=f"in a {kind.__name__} column"):
        csvout.table((kind,), [(value,)])


def test_write_csv_refuses_a_ragged_row():
    with pytest.raises(ValueError):
        csvout.table((int, float), [(1,)])


def test_grid_refuses_integer_values():
    keys = np.array([0.0, 1.0])
    with pytest.raises(TypeError, match="float column"):
        list(csvout.grid(keys, keys, np.zeros((2, 2), dtype=int)))
