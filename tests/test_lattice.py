"""Grids, the boundary-closed interpolation, control meshes."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dualgap import Discretization, SpaceGrid, TimeGrid, control_mesh, interpolate, lattice
from dualgap.lattice import locate


def test_space_grid_nodes():
    grid = SpaceGrid(2.0, 4)
    assert grid.spacing == 0.5
    assert np.array_equal(grid.nodes, np.array([0.0, 0.5, 1.0, 1.5, 2.0]))
    with pytest.raises(ValueError):
        grid.nodes[0] = 1.0


def test_space_grid_validation():
    with pytest.raises(ValueError):
        SpaceGrid(0.0, 4)
    with pytest.raises(ValueError):
        SpaceGrid(1.0, 0)


def test_time_grid():
    grid = TimeGrid(0.5, 8)
    assert grid.step == 0.0625
    assert grid.times[0] == 0.0
    assert grid.times[-1] == 0.5
    assert grid.times.shape == (9,)
    with pytest.raises(ValueError):
        TimeGrid(-1.0, 8)
    with pytest.raises(ValueError):
        TimeGrid(0.5, 0)


def test_discretization_carries_both_state_grids():
    disc = Discretization(
        steps=8,
        cells=18,
        dual_cells=12,
        order=4,
        controls=3,
        x_max=20.0,
        y_max=4.0,
    )
    assert disc.dual_cells == 12
    assert disc.y_max == 4.0


def _read_at(grid, row, queries, plateau):
    """``interpolate`` at the states (q / length) * length, located at the last node.

    These states are the queries q themselves when the length is a power of two.
    One control per query, so the reads come back in query order.
    """
    located = locate(grid, np.asarray(queries, dtype=float)[:, None] / grid.length)
    (block,) = interpolate(grid, row, located, plateau)
    return next(block)[:, -1]


def test_interpolate_interior():
    grid = SpaceGrid(2.0, 4)
    row = np.array([0.0, 1.0, 4.0, 9.0, 16.0])
    got = _read_at(grid, row, [0.75, 1.0], 16.0)
    assert got[0] == pytest.approx(2.5, abs=1.0e-14)
    assert got[1] == 4.0


def test_interpolate_left_extension():
    """Below zero the first cell's slope continues linearly."""
    grid = SpaceGrid(2.0, 4)
    row = np.array([1.0, 3.0, 4.0, 5.0, 6.0])
    got = _read_at(grid, row, [-0.25, -1.0], 6.0)
    assert got == pytest.approx([0.0, -3.0], abs=1.0e-14)


def test_interpolate_right_cap():
    grid = SpaceGrid(2.0, 4)
    row = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    assert _read_at(grid, row, [2.5], 4.0)[0] == 4.0
    # the cap applies beyond the grid only
    got = _read_at(grid, row, [2.5, 1.9], 7.5)
    assert got[0] == 7.5
    assert got[1] == pytest.approx(3.8, abs=1.0e-14)


def test_interpolate_vector_queries():
    """Blocks and branches come back in order, each a (controls, width) array."""
    grid = SpaceGrid(2.0, 4)
    row = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    factors = np.array([[-1.0, 0.5], [6.0, 1.0]])  # (controls, branches)
    with mock.patch.object(lattice, "_BLOCK", 6):  # three nodes per block
        located = locate(grid, factors)
    blocks = [list(reads) for reads in interpolate(grid, row, located, 9.0)]
    assert [[read.shape for read in reads] for reads in blocks] == [[(2, 3)] * 2, [(2, 2)] * 2]
    first = np.concatenate([reads[0] for reads in blocks], axis=1)
    assert np.allclose(first, [[0.0, -1.0, -2.0, -3.0, -4.0], [0.0, 9.0, 9.0, 9.0, 9.0]])


def test_interpolate_validation():
    grid = SpaceGrid(2.0, 4)
    located = locate(grid, np.ones((1, 1)))
    with pytest.raises(ValueError, match="expected 5 values"):
        interpolate(grid, np.zeros(4), located, 0.0)
    with pytest.raises(ValueError, match="non-finite"):
        interpolate(grid, np.array([0.0, 1.0, np.nan, 3.0, 4.0]), located, 0.0)


@settings(max_examples=60, deadline=None)
@given(
    intercept=st.floats(-5.0, 5.0),
    slope=st.floats(-5.0, 5.0),
    query=st.floats(-1.0, 2.0),
)
def test_interpolate_reproduces_linear_data(intercept, slope, query):
    """Linear rows are read back exactly, including the left extension."""
    grid = SpaceGrid(2.0, 5)
    row = intercept + slope * np.asarray(grid.nodes)
    got = _read_at(grid, row, [query], 0.0)[0]
    assert got == pytest.approx(intercept + slope * query, abs=1.0e-10)


_VALUES = st.floats(-1.0e3, 1.0e3)


@st.composite
def _rows(draw):
    """A grid, a finite row on it and a right plateau."""
    grid = SpaceGrid(draw(st.floats(0.125, 64.0)), draw(st.integers(1, 24)))
    row = draw(st.lists(_VALUES, min_size=grid.cells + 1, max_size=grid.cells + 1))
    return grid, np.array(row), draw(_VALUES)


@settings(max_examples=200, deadline=None)
@given(case=_rows(), data=st.data())
def test_interpolate_is_np_interp_with_the_two_closures(case, data):
    """Equal to np.interp inside, the first cell continued left, the plateau right."""
    grid, row, plateau = case
    query = st.one_of(
        st.floats(-2.0 * grid.length, 2.0 * grid.length),  # q < 0, inside, q > length
        st.sampled_from(grid.nodes.tolist()),  # exact nodes, x == length among them
    )
    queries = np.array(data.draw(st.lists(query, min_size=1, max_size=32)))
    got = _read_at(grid, row, queries, plateau)
    states = queries / grid.length * grid.length
    assert np.array_equal(got, oracles.interp_read(grid, row, states, plateau))


@settings(max_examples=100, deadline=None)
@given(case=_rows(), data=st.data())
def test_located_reads_are_np_interp_with_the_two_closures(case, data):
    """Every block and branch of a stored bracket reads what np.interp would."""
    grid, row, plateau = case
    controls, branches = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    factor = st.one_of(st.floats(-0.5, 2.5), st.sampled_from([0.0, 1.0]))
    factors = np.array(
        data.draw(st.lists(factor, min_size=controls * branches, max_size=controls * branches))
    ).reshape(controls, branches)
    with mock.patch.object(lattice, "_BLOCK", data.draw(st.integers(1, 64))):
        located = locate(grid, factors)
    covered = np.concatenate([grid.nodes[span] for span in located.spans])
    assert np.array_equal(covered, grid.nodes)
    assert located.size == factors.size * grid.nodes.size
    assert {index.dtype for index in located.index} == {np.min_scalar_type(grid.cells + 1)}
    blocks = interpolate(grid, row, located, plateau)
    for span, reads in zip(located.spans, blocks):
        for factor, read in zip(factors.T, reads):
            want = oracles.interp_read(grid, row, factor[:, None] * grid.nodes[span], plateau)
            assert np.array_equal(read, want)


def test_control_mesh_cases():
    mesh = control_mesh((-1.0, 1.0), 5)
    assert np.array_equal(mesh, np.array([-1.0, -0.5, 0.0, 0.5, 1.0]))
    assert np.array_equal(control_mesh((-1.0, 1.0), 2), np.array([-1.0, 1.0]))
    assert np.array_equal(control_mesh((0.0, 0.0), 7), np.array([0.0]))


def test_control_mesh_validation():
    for count in (0, 1):
        with pytest.raises(ValueError, match="at least two mesh points"):
            control_mesh((-1.0, 1.0), count)
    with pytest.raises(ValueError):
        control_mesh((1.0, -1.0), 3)
