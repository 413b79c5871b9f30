"""Grids, the boundary-closed interpolation, control meshes."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dualgap import Discretization, SpaceGrid, TimeGrid, control_mesh, gauss_hermite_rule, lattice
from dualgap.lattice import interpolate, locate, read


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
    (table,) = interpolate(grid, row, located, plateau, np.ones(1))
    ((_, index, offset),) = located.blocks
    return read(table, index[0], offset[0])[:, -1]


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
    tables = interpolate(grid, row, located, 9.0, np.ones(2))
    blocks = [list(map(read, tables, index, offset)) for _, index, offset in located.blocks]
    assert [[read.shape for read in reads] for reads in blocks] == [[(2, 3)] * 2, [(2, 2)] * 2]
    first = np.concatenate([reads[0] for reads in blocks], axis=1)
    assert np.allclose(first, [[0.0, -1.0, -2.0, -3.0, -4.0], [0.0, 9.0, 9.0, 9.0, 9.0]])


def test_interpolate_validation():
    grid = SpaceGrid(2.0, 4)
    located = locate(grid, np.ones((1, 1)))
    with pytest.raises(ValueError, match="expected 5 values"):
        interpolate(grid, np.zeros(4), located, 0.0, np.ones(1))
    with pytest.raises(ValueError, match="expected 1 weights"):
        interpolate(grid, np.zeros(5), located, 0.0, np.ones(2))
    two = locate(grid, np.ones((1, 2)))
    with pytest.raises(ValueError, match="must equal their reverse"):
        interpolate(grid, np.zeros(5), two, 0.0, np.array([0.25, 0.75]))


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
    covered = np.concatenate([grid.nodes[span] for span, _, _ in located.blocks])
    assert np.array_equal(covered, grid.nodes)
    assert located.size == factors.size * grid.nodes.size
    assert {index.dtype for _, index, _ in located.blocks} == {np.min_scalar_type(grid.cells + 1)}
    tables = interpolate(grid, row, located, plateau, np.ones(branches))
    for span, index, offset in located.blocks:
        for factor, got in zip(factors.T, map(read, tables, index, offset)):
            want = oracles.interp_read(grid, row, factor[:, None] * grid.nodes[span], plateau)
            assert np.array_equal(got, want)


@pytest.mark.parametrize("stop", [0, 4, 6, 7, 11])
def test_locate_to_a_stop_is_the_prefix_of_the_full_store(stop):
    """Nodes [0, stop) bit for bit: none, a stop inside a block, on a block boundary, all nodes."""
    grid = SpaceGrid(2.5, 10)
    factors = np.array([[-0.3, 0.9, 1.05], [0.5, 1.2, 1.7]])  # (controls, branches)
    with mock.patch.object(lattice, "_BLOCK", 6):  # three nodes per block
        full = locate(grid, factors)
        got = locate(grid, factors, stop)
    want = full.below(stop)
    assert got.stop == want.stop == min(stop, grid.cells + 1)
    assert [span for span, _, _ in got.blocks] == [span for span, _, _ in want.blocks]
    for (_, *mine), (_, *theirs) in zip(got.blocks, want.blocks, strict=True):
        for a, b in zip(mine, theirs, strict=True):
            assert a.dtype == b.dtype
            assert np.array_equal(a.view(np.uint8), b.view(np.uint8))
    # the cut blocks are views of the full store, not copies
    for (_, *cut), (_, *stored) in zip(want.blocks, full.blocks):
        assert all(np.shares_memory(a, b) for a, b in zip(cut, stored, strict=True))


def _sliced_below(located, stop):
    """Every block below ``stop`` sliced to its width: what ``Located.below`` must equal."""
    blocks = []
    for span, j, d in located.blocks:
        if span.start >= stop:
            break
        width = min(span.stop, stop) - span.start
        blocks.append((slice(span.start, span.start + width), j[..., :width], d[..., :width]))
    return blocks


def test_below_keeps_the_whole_blocks_and_cuts_the_straddling_one():
    """The blocks wholly below a stop are the store's own; the result is the per-block slicing."""
    grid = SpaceGrid(2.0, 10)
    factors = np.array([[-1.0, 0.5, 1.3], [6.0, 1.0, 0.2]])  # (controls, branches)
    with mock.patch.object(lattice, "_BLOCK", 6):  # three nodes per block
        located = locate(grid, factors)
    for stop in range(located.stop + 2):
        got = located.below(stop)
        whole = [block for block in located.blocks if block[0].stop <= stop]
        assert all(mine is theirs for mine, theirs in zip(got.blocks, whole))
        want = _sliced_below(located, stop)
        assert [span for span, _, _ in got.blocks] == [span for span, _, _ in want]
        for (_, *mine), (_, *theirs) in zip(got.blocks, want, strict=True):
            for a, b in zip(mine, theirs, strict=True):
                assert a.shape == b.shape and np.shares_memory(a, b)
                assert np.array_equal(a, b)


@pytest.mark.parametrize("order", [4, 5])
def test_interpolate_returns_one_table_per_branch_shared_with_its_mirror(order):
    """M pairs; pair b is pair M - 1 - b itself, and at odd M the middle pair is its own."""
    rule = gauss_hermite_rule(order)
    grid = SpaceGrid(2.0, 4)
    located = locate(grid, np.ones((1, order)))
    tables = interpolate(grid, np.arange(5.0), located, 4.0, rule.weights)
    assert len(tables) == order
    assert all(tables[b] is tables[order - 1 - b] for b in range(order))
    assert len({id(table) for table in tables}) == (order + 1) // 2


@pytest.mark.parametrize("order", [4, 5])
def test_weighted_located_reads_are_np_interp_of_the_weighted_row(order):
    """Branch b reads np.interp(q, nodes, w_b * row) with both closures, bit for bit.

    Every branch has states left of the origin (control 0), between
    nodes and past the grid (control 1), and on the nodes (control 2).
    Order 5 adds the unpaired middle weight.  A branch may read its
    mirror's table, whose weight is its own bit for bit; any other table
    carries another weight and fails the comparison.
    """
    rule = gauss_hermite_rule(order)
    grid = SpaceGrid(3.0, 12)
    row = np.random.default_rng(order).uniform(-2.0, 2.0, grid.cells + 1)
    plateau = 1.75
    factors = np.stack(
        [np.linspace(-0.4, -0.1, order), np.linspace(1.1, 1.6, order), np.ones(order)]
    )  # (controls, branches)
    with mock.patch.object(lattice, "_BLOCK", 15):  # five nodes per block
        located = locate(grid, factors)
    tables = interpolate(grid, row, located, plateau, rule.weights)
    for span, index, offset in located.blocks:
        reads = map(read, tables, index, offset)
        for weight, factor, got in zip(rule.weights, factors.T, reads, strict=True):
            states = factor[:, None] * grid.nodes[span]
            want = oracles.interp_read(grid, weight * row, states, weight * plateau)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


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
