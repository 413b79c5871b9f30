"""Uniform grids, interpolation with boundary closure, and level configs.

The schemes live on [0, x_max] x [0, T] with J space cells and N time
steps.  One-step displacements can leave the space interval on both
sides; the closure used everywhere is linear continuation of the first
cell on the left and a configured constant on the right, where the
truncated terminal reward really is flat.  The left continuation is an
extrapolation: at coarse levels whole branches can land at negative
states, and nothing here checks how far.  A sweep reads every row at the
same displaced states, so it brackets them once (``locate``).  Each
step's expectation is a quadrature sum of weighted reads, and linear
interpolation commutes with the weight, so the weight goes into the
step's read table (J + 2 entries, built by ``interpolate``) rather than
onto every located point: ``read`` is two gathers and np.interp's own
arithmetic on the weighted row.  The quadrature weights are symmetric,
so branches b and M - 1 - b share one table.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class SpaceGrid:
    """J + 1 equidistant nodes on [0, length]."""

    length: float
    cells: int

    def __post_init__(self):
        if not self.length > 0.0:
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

    @cached_property
    def _widths(self):
        """``np.diff(nodes)``: the cell widths np.interp divides by."""
        widths = np.diff(self.nodes)
        widths.setflags(write=False)
        return widths


@dataclass(frozen=True)
class TimeGrid:
    """N + 1 equidistant times on [0, horizon]."""

    horizon: float
    steps: int

    def __post_init__(self):
        if not self.horizon > 0.0:
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
#: arrays of 8 B per point, 0.19 MiB, beside the step's read tables (two arrays of
#: cells + 2 entries per weight of the rule's first half, 25 KiB at merton k = 5),
#: so a step's temporaries stay in cache and under 0.25 MiB
_BLOCK = 6144


@dataclass(frozen=True)
class Located:
    """Displaced states ``factors[c, b] * x_m`` of the nodes below a stop, bracketed once.

    A located point is the ``bracket`` ``j`` that ``np.interp``'s search
    picks for it (0 left of the origin, ``cells + 1`` right of the
    grid) and its offset ``q - x_j``.  Nodes are stored in blocks from
    node 0, whatever the stop, so a store is a prefix of any that stops
    later; every block but the last spans as many nodes as the first.
    A block is one ``(span, index, offset)`` triple: it covers the nodes
    ``span``, and ``index`` and ``offset`` have shape (branches,
    controls, width), so every branch of a block is contiguous.  A point
    costs an 8 B offset plus the smallest integer type that holds
    ``cells + 1`` (2 B up to level 8).
    """

    blocks: tuple

    @property
    def size(self):
        """Number of located points, read by the benchmark's points counter."""
        return sum(index.size for _, index, _ in self.blocks)

    @property
    def stop(self):
        """One past the last located node."""
        return self.blocks[-1][0].stop if self.blocks else 0

    def below(self, stop):
        """Nodes ``< stop``: the store's blocks wholly below it, the straddling one cut (views)."""
        if stop >= self.stop:
            return self
        # every block but the last is as wide as the first, which starts at node 0
        whole, cut = divmod(stop, self.blocks[0][0].stop)
        blocks = self.blocks[:whole]
        if cut:  # stop < self.stop: block ``whole`` exists
            span, j, d = self.blocks[whole]
            blocks += ((slice(span.start, stop), j[..., :cut], d[..., :cut]),)
        return Located(blocks)


def bracket(grid, q):
    """Bracket index (intp) and offset of every point of a state array (ndim >= 1).

    The index is nondecreasing in the state; past the grid it is
    ``cells + 1``, with the offset taken from ``length``.
    """
    index = np.searchsorted(grid.nodes, q, side="right") - 1
    index[q > grid.length] = grid.cells + 1
    np.maximum(index, 0, out=index)
    return index, q - grid.nodes.take(index, mode="clip")


def locate(grid, factors, stop=None):
    """Locate the displaced states of a (controls, branches) factor array.

    Only the nodes below ``stop`` (all when None), one block and one
    branch at a time, so nothing the size of all controls times all
    nodes is allocated besides the result.
    """
    size = grid.nodes[:stop].size
    width = block_width(factors)
    spans = (slice(start, min(start + width, size)) for start in range(0, size, width))
    return Located(tuple(locate_block(grid, factors, span) for span in spans))


def block_width(factors):
    """Nodes per block of a store of a (controls, branches) factor array."""
    return max(1, _BLOCK // len(factors))


def locate_block(grid, factors, span):
    """One block of ``locate``: the ``(span, index, offset)`` of the nodes ``span``."""
    controls, branches = factors.shape
    nodes = grid.nodes[span]
    shape = (branches, controls, nodes.size)
    index, offset = np.empty(shape, np.min_scalar_type(grid.cells + 1)), np.empty(shape)
    for b in range(branches):
        index[b], offset[b] = bracket(grid, factors[:, b, None] * nodes)
    return span, index, offset


def read(table, index, offset):
    """``slope[j] * d + level[j]`` of one branch of a located block: np.interp's interior formula.

    ``table`` is that branch's ``(slope, level)`` pair from ``interpolate``.
    """
    slope, level = table
    j = index.astype(np.intp, copy=False)
    out = slope.take(j)
    out *= offset
    out += level.take(j)
    return out


def interpolate(grid, values, query, plateau, weights):
    """The step's weighted read tables of a grid row, with the boundary closure.

    Branch b of ``query`` reads ``weights[b] * values`` through its
    table and ``read``: inside [0, length] by plain linear interpolation,
    left of 0 by the first cell continued linearly, and right of length
    as the constant ``weights[b] * plateau``.

    Each weight w of the first half of ``weights`` gets one table pair:
    ``level = w * [values, plateau]`` and ``slope`` its cell slopes,
    extended by a zero slope at the last node and the plateau slot.  A
    point is read as ``slope[j] * (q - x_j) + level[j]``, the formula of
    ``np.interp`` on the weighted row.  Left of the origin (x_0 = 0)
    that is the linear continuation of the first cell; the result equals
    ``np.interp(q, nodes, w * values)`` with the two closures value for
    value (a -0.0 entry read exactly at its node can come back as +0.0).
    The weights must be symmetric bit for bit, as every Gauss-Hermite
    rule's are, so the ceil(M / 2) tables of the first half serve all M
    branches: branch b's pair is the same object as branch M - 1 - b's.

    Parameters
    ----------
    grid : SpaceGrid
    values : array of shape (cells + 1,)
        Row to read; its finiteness is the caller's precondition, which
        ``solve`` guarantees (a sweep raises on its first overflow).
    query : Located
        The states to read, bracketed on ``grid`` once by ``locate``.
    plateau : float
        Right-boundary constant.
    weights : array of shape (branches,)
        One weight per branch of ``query``, with ``weights[b] == weights[-1 - b]``.

    Returns
    -------
    A list of M ``(slope, level)`` pairs, pair b for branch b of every
    block of ``query``; the reads themselves are the caller's, through ``read``.
    """
    row = np.asarray(values, dtype=float)
    if row.shape != (grid.cells + 1,):
        raise ValueError(f"expected {grid.cells + 1} values, got shape {row.shape}")
    weights = np.asarray(weights, dtype=float).tolist()
    if query.blocks and len(weights) != len(query.blocks[0][1]):
        raise ValueError(f"expected {len(query.blocks[0][1])} weights, got {len(weights)}")
    if weights != weights[::-1]:
        raise ValueError("weights must equal their reverse")
    tables = []
    for weight in weights[: (len(weights) + 1) // 2]:
        level = np.empty(row.size + 1)
        np.multiply(row, weight, out=level[:-1])
        level[-1] = weight * float(plateau)
        slope = np.zeros(row.size + 1)
        np.subtract(level[1:-1], level[:-2], out=slope[:-2])
        slope[:-2] /= grid._widths
        tables.append((slope, level))
    return tables + tables[: len(weights) // 2][::-1]


def control_mesh(interval, count):
    """``count`` >= 2 equidistant control candidates on a closed interval.

    A degenerate interval collapses to its single point regardless of
    ``count``.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if count < 2:
        raise ValueError(f"need at least two mesh points, got {count}")
    if not lo <= hi:
        raise ValueError(f"empty control interval [{lo}, {hi}]")
    if lo == hi:
        return np.array([lo])
    return np.linspace(lo, hi, count)
