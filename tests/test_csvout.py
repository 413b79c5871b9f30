"""The one CSV format: header echo, column line, one line per row."""

import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


def _surface(data, outer=None, inner=None):
    """A surface-shaped namespace over ``data``, keyed 0, 1, 2, ... unless given keys."""
    rows, cols = data.shape
    outer = np.arange(float(rows)) if outer is None else outer
    inner = np.arange(float(cols)) if inner is None else inner
    return types.SimpleNamespace(
        time=types.SimpleNamespace(times=outer), grid=types.SimpleNamespace(nodes=inner), data=data
    )


def _grid_matches_the_oracle(surface):
    """``grid``'s blocks are the per-cell writer's lines after its two header lines."""
    written = b"".join(csvout.grid(surface.time.times, surface.grid.nodes, surface.data))
    text = oracles.surface_csv_text(surface, "cells").encode()
    assert written == text.split(b"\n", 2)[2]


def _bits(value):
    return int(np.float64(value).view(np.uint64))


_ANY = st.integers(0, 2**64 - 1)
# the positive values with a two-digit exponent, and those the digits are computed for
_TWO_DIGIT = st.integers(_bits(1e-99), _bits(9.999999999999999e99))
_COMPUTED = st.integers(_bits(1e-12) - 4, _bits(1e15) + 4)
# a few ulps either side of a power of ten, where log10 may round to the power
_NEAR_POWER = st.builds(
    lambda k, ulps: _bits(10.0**k) + ulps, st.integers(-13, 16), st.integers(-3, 3)
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.lists(st.one_of(_NEAR_POWER, _COMPUTED, _TWO_DIGIT, _ANY), min_size=8, max_size=8),
        min_size=1,
        max_size=3,
    )
)
@example([[_bits(v) for v in (0.0, 9.9999999999999995, 9999999999999.998, 1e15, 0.5, 3.0, 7.0)]])
def test_grid_rows_are_the_per_cell_format_of_any_bit_pattern(rows):
    _grid_matches_the_oracle(_surface(np.array(rows, dtype=np.uint64).view(np.float64)))


_POWERS_OF_TEN = 10.0 ** np.arange(-12, 16)
_FIXED = [
    # just below a power of ten, where log10 may round up to the power's exponent
    *np.nextafter(_POWERS_OF_TEN, 0.0).tolist(),
    *_POWERS_OF_TEN.tolist(),
    9.9999999999999995,  # rounds up, carrying into e+01
    0.5, 0.25, 0.375, 1.5, 3.0, 2.0**-20, 2.0**40, 2.0**-40 * 3,
    2.0**48 + 0.25, 2.0**48 + 1.75,  # exact ties: % rounds them half to even
    np.nextafter(1e-12, 1.0), np.nextafter(1e15, 2e15),
    0.0, -0.0, 5e-324, float("nan"), float("inf"), -float("inf"), -1.0, -2.5e-7, 1e100, 1e-100,
]


@pytest.mark.parametrize("value", _FIXED)
def test_grid_cell_is_the_per_cell_format(value):
    """One value among cells the digit path writes, alone and in a row of its own."""
    _grid_matches_the_oracle(_surface(np.array([[1.0, value, 2.5], [value] * 3])))


def _tie(s):
    """Exact decimal ties at scale s: q / 2**(s + 1), q odd, is a 16-digit n plus 1/2 over 10**s.

    5**s divides q 5**s = 2 n + 1, which lies in [2e15, 2e16).
    """
    least = -(-2 * 10**15 // 5**s)
    most = (2 * 10**16 - 1) // 5**s
    return st.integers(least // 2, (most - 1) // 2).map(lambda i: (2 * i + 1) / 2 ** (s + 1))


def _float(bits):
    return float(np.uint64(bits).view(np.float64))


# the values below 1e15 whose digits the kernel computes, from 2**-38 (about 3.64e-12) on
_DECIDED = st.integers(_bits(2.0**-38), _bits(1e15) - 1).map(_float)
_POWER_NEIGHBOURS = st.builds(
    lambda k, ulps: _float(_bits(10.0**k) + ulps), st.integers(-11, 14), st.integers(-3, 3)
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(st.integers(1, 23).flatmap(_tie), _POWER_NEIGHBOURS, _DECIDED),
        min_size=1,
        max_size=16,
    )
)
@example([2.0**48 + 0.25, 2.0**48 + 1.75, 9.999999999999998e-12, 1e-7, 1e-6, 1e-11])
def test_digits_decide_ties_and_powers_of_ten_without_the_per_cell_format(values):
    """Exact ties round half to even and a value next to a power of ten gets its exponent."""
    values = np.array(values)
    assert np.all((values >= 2.0**-38) & (values < 1e15))
    cells = np.zeros(len(values), csvout._CELL)
    assert csvout._digits(values, cells).size == 0
    assert cells.tobytes() == b"".join(b"%.15e" % v for v in values.tolist())
    assert csvout._fill(values, cells)


def test_digits_at_every_scale_threshold():
    """Per binade, the least value whose digits round up to a power of ten, and the one below."""
    (_, _, threshold, _), *_ = csvout._tables()
    least = threshold[(threshold >= 2.0**-38) & (threshold < 2.0**52)]
    values = np.concatenate([np.nextafter(least, 0.0), least])
    cells = np.zeros(len(values), csvout._CELL)
    assert csvout._digits(values, cells).size == 0
    assert cells.tobytes() == b"".join(b"%.15e" % v for v in values.tolist())


def test_digits_write_positive_zero_and_leave_negative_zero():
    """+0.0 is always 0.000000000000000e+00; -0.0 is 22 bytes, so its row is one % format."""
    values = np.array([0.0, 1.0, -0.0])
    cells = np.zeros(3, csvout._CELL)
    assert csvout._digits(values, cells).tolist() == [2]
    assert cells[0].tobytes() == b"0.000000000000000e+00"
    assert not csvout._fill(values, cells)


@pytest.mark.parametrize("dtype", [np.float16, np.float32])
def test_grid_of_a_narrower_float_type_is_the_per_cell_format(dtype):
    """Cells are the exact float64 values of float16 or float32 data."""
    rng = np.random.default_rng(7)
    data = (10.0 ** rng.uniform(-4, 4, size=(4, 50))).astype(dtype)
    data[0, :3] = [0.0, -0.0, -1.5]
    data[1, 0] = 0.0
    _grid_matches_the_oracle(_surface(data, inner=np.linspace(0.0, 20.0, 50)))


def test_grid_slabs_are_the_per_cell_format():
    """Rows of other widths in the first, a middle and the last slab, among full slabs.

    Each block is a copy: the joined blocks are the oracle's only if no
    block shares its bytes with the next slab's.
    """
    cols = 301
    per_slab = csvout._SLAB // cols
    rows = 3 * per_slab + per_slab // 2
    rng = np.random.default_rng(11)
    data = 10.0 ** rng.uniform(-12, 15, size=(rows, cols))
    data[:, 0] = 0.0
    data[0, 5] = -2.5
    data[per_slab + per_slab // 2, 7] = float("nan")
    data[-1, -1] = -0.0
    surface = _surface(data, inner=np.linspace(0.0, 20.0, cols))
    blocks = list(csvout.grid(surface.time.times, surface.grid.nodes, surface.data))
    # the first, second and last slabs row by row, the third whole
    assert len(blocks) == per_slab + per_slab + 1 + (rows - 3 * per_slab)
    _grid_matches_the_oracle(surface)


@pytest.mark.parametrize(
    "outer, inner",
    [
        (np.array([-0.5, 0.0]), np.array([0.0, 1.0])),
        (np.array([0.0, 1.0]), np.array([-1.0, 1e200])),
        (np.array([1e-300, float("nan")]), np.array([0.0, 1.0])),
    ],
)
def test_grid_keys_of_another_width_keep_the_per_cell_format(outer, inner):
    _grid_matches_the_oracle(_surface(np.array([[1.0, 2.0], [0.5, 0.25]]), outer, inner))
