"""Uniform grids, interpolation with boundary closure, and level configs.

The schemes live on [0, x_max] x [0, T] with J space cells and N time
steps.  One-step displacements can leave the space interval on both
sides; the closure used everywhere is linear continuation of the first
cell on the left and a configured constant on the right, where the
truncated terminal reward really is flat.  The left continuation is an
extrapolation: at coarse levels whole branches can land at negative
states, and nothing here checks how far.  A sweep reads every row at the
same displaced states, so it brackets them once (``locate``) and each
read is two gathers and np.interp's own arithmetic.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class SpaceGrid:
    """J + 1 equidistant nodes on [0, length]."""

    length: float
    cells: int

    def __post_init__(self):
        if self.length <= 0.0:
            raise ValueError(f"grid length must be positive, got {self.length}")
        if self.cells < 1:
            raise ValueError(f"grid needs at least one cell, got {self.cells}")

    @property
    def spacing(self):
        return self.length / self.cells

    @cached_property
    def nodes(self):
        nodes = np.linspace(0.0, self.length, self.cells + 1)
        nodes.setflags(write=False)
        return nodes


@dataclass(frozen=True)
class TimeGrid:
    """N + 1 equidistant times on [0, horizon]."""

    horizon: float
    steps: int

    def __post_init__(self):
        if self.horizon <= 0.0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if self.steps < 1:
            raise ValueError(f"need at least one time step, got {self.steps}")

    @property
    def step(self):
        return self.horizon / self.steps

    @cached_property
    def times(self):
        times = np.linspace(0.0, self.horizon, self.steps + 1)
        times.setflags(write=False)
        return times


@dataclass(frozen=True)
class Discretization:
    """One refinement level: everything a solve needs.

    The dual state grid has its own cell count: its spacing must track
    the time step, not the primal spacing, or the conjugate readout of
    the dual surface drowns the scheme error at coarse levels.  Both
    directions search a mesh of ``controls`` points on their own
    control interval.
    """

    steps: int
    cells: int
    dual_cells: int
    order: int
    controls: int
    x_max: float
    y_max: float


#: located points per branch in one block of nodes; reading a block holds four
#: arrays of 8 B per point, 0.19 MiB, so a step's temporaries stay in cache
_BLOCK = 6144


@dataclass(frozen=True)
class Located:
    """Displaced states ``factors[c, b] * x_m`` of every grid node, bracketed once.

    A located point is the bracket ``j`` that ``np.interp``'s search
    picks for it (0 left of the origin, ``cells + 1`` right of the
    grid) and its offset ``q - x_j``.  Nodes are stored in blocks: block
    i covers the nodes ``spans[i]``, and ``index[i]`` and ``offset[i]``
    have shape (branches, controls, width), so every branch of a block
    is contiguous.  A point costs an 8 B offset plus the smallest
    integer type that holds ``cells + 1`` (2 B up to level 8).
    """

    controls: int
    spans: tuple
    index: tuple
    offset: tuple

    @property
    def size(self):
        """Number of located points, read by the benchmark's points counter."""
        return sum(index.size for index in self.index)


def _bracket(grid, q):
    """Bracket index (intp) and offset of every point of a state array (ndim >= 1)."""
    index = np.searchsorted(grid.nodes, q, side="right") - 1
    index[q > grid.length] = grid.cells + 1
    np.maximum(index, 0, out=index)
    return index, q - np.append(grid.nodes, grid.length)[index]


def locate(grid, factors):
    """Locate the displaced states of a (controls, branches) factor array.

    Built one block and one branch at a time, so nothing the size of
    all controls times all nodes is allocated besides the result.
    """
    controls, branches = factors.shape
    nodes = grid.nodes
    width = max(1, _BLOCK // controls)
    dtype = np.min_scalar_type(grid.cells + 1)
    spans, index, offset = [], [], []
    for start in range(0, nodes.size, width):
        span = slice(start, min(start + width, nodes.size))
        shape = (branches, controls, span.stop - start)
        block_index, block_offset = np.empty(shape, dtype), np.empty(shape)
        for b in range(branches):
            block_index[b], block_offset[b] = _bracket(grid, factors[:, b, None] * nodes[span])
        spans.append(span)
        index.append(block_index)
        offset.append(block_offset)
    return Located(controls, tuple(spans), tuple(index), tuple(offset))


def _read(slope, level, index, offset):
    """``slope[j] * d + level[j]``: np.interp's interior formula, term for term."""
    j = index.astype(np.intp, copy=False)
    out = slope.take(j)
    out *= offset
    out += level.take(j)
    return out


def interpolate(grid, values, query, plateau):
    """Piecewise-linear reads of a grid row at located states, with the boundary closure.

    Inside [0, length] this is plain linear interpolation.  Left of 0
    the first cell is continued linearly; right of length the value is
    the constant ``plateau``.

    Every point is read as ``slope[j] * (q - x_j) + y[j]``, the formula
    of ``np.interp``, on a table extended by a zero slope at the last
    node and a plateau slot.  Left of the origin (x_0 = 0) that is the
    linear continuation of the first cell; the result equals
    ``np.interp`` with the two closures value for value (a -0.0 entry
    read exactly at its node can come back as +0.0).

    Parameters
    ----------
    grid : SpaceGrid
    values : array of shape (cells + 1,)
        Row to read; must be finite.
    query : Located
        The states to read, bracketed on ``grid`` once by ``locate``.
    plateau : float
        Right-boundary constant.

    Returns
    -------
    An iterator over the blocks of ``query``, each an iterator over the
    branches' (controls, width) arrays.
    """
    row = np.asarray(values, dtype=float)
    if row.shape != (grid.cells + 1,):
        raise ValueError(f"expected {grid.cells + 1} values, got shape {row.shape}")
    if not np.all(np.isfinite(row)):
        raise ValueError("cannot interpolate a row with non-finite entries")
    slope = np.zeros(row.size + 1)
    np.divide(np.diff(row), np.diff(grid.nodes), out=slope[:-2])
    level = np.append(row, float(plateau))
    return (
        (_read(slope, level, j, d) for j, d in zip(index, offset))
        for index, offset in zip(query.index, query.offset)
    )


def control_mesh(interval, count):
    """``count`` >= 2 equidistant control candidates on a closed interval.

    A degenerate interval collapses to its single point regardless of
    ``count``.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if count < 2:
        raise ValueError(f"need at least two mesh points, got {count}")
    if lo > hi:
        raise ValueError(f"empty control interval [{lo}, {hi}]")
    if lo == hi:
        return np.array([lo])
    return np.linspace(lo, hi, count)
