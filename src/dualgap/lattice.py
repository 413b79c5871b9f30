"""Uniform grids, interpolation with boundary closure, and level configs.

The schemes live on [0, x_max] x [0, T] with J space cells and N time
steps.  One-step displacements can leave the space interval on both
sides; the closure used everywhere is linear continuation of the first
cell on the left and a configured constant on the right, where the
truncated terminal reward really is flat.  The left continuation is an
extrapolation: at coarse levels whole branches can land at negative
states, and nothing here checks how far.
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


def interpolate(grid, values, query, plateau=None):
    """Piecewise-linear read of a grid row with the scheme's boundary closure.

    Inside [0, length] this is plain linear interpolation.  Left of 0
    the first cell is continued linearly; right of length the value is
    the constant ``plateau`` (the last entry when not given).

    Parameters
    ----------
    grid : SpaceGrid
    values : array of shape (cells + 1,)
        Row to read; must be finite.
    query : float or array
    plateau : float, optional
        Right-boundary constant.

    Returns
    -------
    float or ndarray matching ``query``.
    """
    row = np.asarray(values, dtype=float)
    if row.shape != (grid.cells + 1,):
        raise ValueError(f"expected {grid.cells + 1} values, got shape {row.shape}")
    if not np.all(np.isfinite(row)):
        raise ValueError("cannot interpolate a row with non-finite entries")
    q = np.asarray(query, dtype=float)
    out = np.interp(q, grid.nodes, row)
    left = q < 0.0
    if np.any(left):
        slope = (row[1] - row[0]) / (grid.nodes[1] - grid.nodes[0])
        out = np.where(left, row[0] + slope * q, out)
    cap = float(row[-1]) if plateau is None else float(plateau)
    out = np.where(q > grid.length, cap, out)
    if np.ndim(query) == 0:
        return float(out)
    return out


def control_mesh(interval, count):
    """Equidistant control candidates on a closed interval.

    A degenerate interval collapses to its single point regardless of
    ``count``; a single requested point sits at the midpoint so that the
    mesh never privileges one endpoint.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if count < 1:
        raise ValueError(f"need at least one mesh point, got {count}")
    if lo > hi:
        raise ValueError(f"empty control interval [{lo}, {hi}]")
    if lo == hi:
        return np.array([lo])
    if count == 1:
        return np.array([0.5 * (lo + hi)])
    return np.linspace(lo, hi, count)
