"""Backward semi-Lagrangian sweeps for the primal and dual value functions.

One step freezes the control over [t_n, t_n + h], advances the state by
the Euler displacement with the Gaussian increment collapsed onto the
quadrature nodes, reads the next value row by linear interpolation, and
optimises over a finite control mesh.  Both state processes are
geometric and the coefficients constant, so the displaced states are
the current node times a factor shared by every node and every step,
built once per solve: 1 + drift + noise xi, with the step's drift and
noise from ``market.chain_increments`` and xi over the quadrature nodes.
Every displaced state is therefore bracketed on the grid once per solve
(``lattice.locate``), and a step only reads the next row at the stored
brackets: ``interpolate`` builds one table per branch, its quadrature
weight folded in, and the step's loop over blocks and branches sums
the ``read``s.  The state at the origin is absorbing in both cases, so
row entry 0 is copied through time.  Both directions run the same step
kernel; they differ only in these factors and in max versus min.

The primal sweep skips its certified plateau.  The truncated reward is
flat at U(rho) from some node m*_N of the terminal row on, and no control
can do better than U(rho).  A node whose displaced states under one mesh
control all land in brackets j >= m*_{n+1} reads ``0 * offset + U(rho)``
on every branch, so its value at step n is U(rho) exactly.  The reach of
node m, the largest over controls of the smallest bracket over branches,
is the bracket of f* x_m with f* = max_c min_b f_cb: for x >= 0 the
rounded product fl(f x) is nondecreasing in f and the bracket is
nondecreasing in the state, so the min and the max pass through both.
The nodes ascend, so the reach is nondecreasing in m, and m*_n is the
first node where it reaches m*_{n+1} (``plateau_cuts``).  The cut is
exact in floating point whatever the mesh, with or without the riskless
position on it, and it is known before anything is located: the solve
locates only the nodes below the largest cut a step reads.  A step
computes only the nodes below m*_n, cutting inside the block that
straddles it, and writes U(rho) itself from m*_n on.  The dual sweep
computes every node.

The primal sweep also skips the mesh controls that cannot win.  Branches
b and M - 1 - b share one read table, and the interpolated row is
nondecreasing where its slopes are, so a control whose sorted factor
pairs all lie strictly below another's has the smaller exact value
(``dominated_controls``; on both bundled models every a < 0 is beaten
by its mirror -a).  Computed sums of reads can still tie or swap by an
ulp where the row is flat, as it is next to the plateau cut.  So a step
certifies node m only where delta x_m s(J(m)) exceeds a bound H on the
rounding of the two sums, with delta the least weighted factor gap to a
dominator, s(J) the least slope of the next row over cells 0..J and J(m)
the bracket of f_max x_m.  The certified nodes are a prefix [1, m_safe);
there the kept controls' max is the mesh's max bit for bit, and on
[m_safe, m*_n) the step reads the dominated controls too and merges
their max with ``np.maximum``, which does not round.  The kept controls
have their own store; the dominated ones are located block by block
the first time such a band reaches a block (``_Pruned``).  This runs
only where the full-mesh store would span more than one block (k >= 5
on the bundled configs): below that a step is a fixed number of numpy
calls, and the certificate would cost more than it saves.

A sweep raises numpy's overflow, invalid and divide-by-zero errors
whatever its caller's settings, so a value turns non-finite only as an
exception, which ``solve`` reports once: the direction, the time index
(or the locating), N, J and the largest |branch factor|.  No row is
scanned in the loop; ``ValueSurface.validate`` checks the surface.

The same factors drive the polar check's coupled chains
(``coupled_factors``), whose expectation is a product of per-step branch
means.  ``enumerate_coupled`` expands every branch of both chains; no
pipeline calls it, and it is the tests' referee for that product.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import csvout
from .errors import NumericalFailure
from .lattice import (
    Located,
    SpaceGrid,
    TimeGrid,
    block_width,
    bracket,
    control_mesh,
    interpolate,
    locate,
    locate_block,
    read,
)
from .market import chain_increments
from .quadrature import gauss_hermite_rule

#: hard cap on explicitly enumerated chain branches
MAX_BRANCHES = 10_000_000

_SURFACE_SLACK = 1.0e-8


@dataclass(frozen=True)
class ValueSurface:
    """A solved value function on the full time-space lattice.

    ``data[n, m]`` approximates the value at time node n and space node
    m; row ``steps`` is the terminal condition.
    """

    grid: SpaceGrid
    time: TimeGrid
    data: np.ndarray
    direction: str

    def validate(self):
        """Check the discrete structure the sweep is supposed to preserve.

        The terminal row must be stored exactly.  For the maximising
        direction the sweep is a composition of convex combinations and
        a pointwise maximum, so every value must stay inside the
        terminal range and rows must be nondecreasing in space, both up
        to interpolation slack: ``_SURFACE_SLACK`` times the terminal
        row's largest |entry|, since a read is exact only to a relative
        rounding.
        """
        where = f"(N={self.time.steps}, J={self.grid.cells})"
        smallest, largest = self.data.min(), self.data.max()  # nan propagates
        if not (np.isfinite(smallest) and np.isfinite(largest)):
            n, m = np.argwhere(~np.isfinite(self.data))[0]
            raise NumericalFailure(
                f"{self.direction} value surface has a non-finite entry "
                f"at time index {n}, node {m} {where}"
            )
        if self.direction != "primal":
            return
        lo, hi = float(self.data[-1].min()), float(self.data[-1].max())
        slack = _SURFACE_SLACK * max(-lo, hi)
        lo, hi = lo - slack, hi + slack
        if smallest < lo or largest > hi:
            n, m = np.argwhere((self.data < lo) | (self.data > hi))[0]
            raise NumericalFailure(
                f"primal surface leaves the terminal range [{lo}, {hi}] "
                f"at time index {n}, node {m} {where}"
            )
        # row by row, no surface-sized copy; the first row holding the
        # smallest step, then its first node: the flattened argmin
        steps = [np.minimum.reduce(np.subtract(row[1:], row[:-1])) for row in self.data]
        if min(steps) < -slack:
            n = int(np.argmin(steps))
            m = int(np.diff(self.data[n]).argmin())
            raise NumericalFailure(
                f"primal surface decreasing in space at time index {n}, node {m} {where}"
            )


def step_factors(model, control, rule, step, direction):
    """Branch multipliers 1 + drift + noise xi of one step, from ``chain_increments``.

    An array over quadrature branches for a scalar control, (controls, branches)
    for a mesh; the displaced state is the current state times the factor.
    """
    drift, noise = chain_increments(model, control, direction, step)
    return 1.0 + drift[..., None] + noise[..., None] * rule.nodes


def _expectation(tables, index, offset):
    """A block's weighted branch sum: branch 0's ``read`` plus the others in branch order."""
    reads = zip(tables, index, offset)
    value = read(*next(reads))
    for table, j, d in reads:  # no read is bound to a name while the next is built
        value += read(table, j, d)
    return value


def _sweep_step(next_row, located, weights, grid, plateau, best_of, band=()):
    """One backward step in either direction, given the solve's located states.

    ``interpolate`` gives the step's read tables, each branch's weight
    folded in, and ``best_of`` (``np.maximum`` or ``np.minimum``; its
    ``reduce`` is what ``np.max`` and ``np.min`` call) writes each
    node's best expectation over the mesh into the row; a tie returns
    the tied value, so the sweep is bit-reproducible.  The blocks of
    ``band`` hold more controls of nodes ``located`` already covers,
    and their best is merged in by ``best_of`` itself, which does not
    round.  Nodes past the located ones are the certified plateau and
    read ``plateau``.  Returns the new row; the absorbing origin is
    copied through.
    """
    best = np.empty(grid.cells + 1)
    tables = interpolate(grid, next_row, located, plateau, weights)
    for span, index, offset in located.blocks:
        best_of.reduce(_expectation(tables, index, offset), axis=0, out=best[span])
    for span, index, offset in band:
        view = best[span]
        best_of(view, best_of.reduce(_expectation(tables, index, offset), axis=0), out=view)
    best[located.stop:] = plateau
    best[0] = next_row[0]
    return best


def primal_step(next_row, located, weights, grid, plateau):
    """One backward step of the maximising sweep, over a ``locate`` or a pruned store."""
    band = ()
    if isinstance(located, _Pruned):
        band = located.band(grid, next_row, len(weights))
        located = located.kept
    return _sweep_step(next_row, located, weights, grid, plateau, np.maximum, band)


def dual_step(next_row, located, weights, grid, plateau):
    """One backward step of the minimising sweep."""
    return _sweep_step(next_row, located, weights, grid, plateau, np.minimum)


def dominated_controls(factors, weights):
    """The mesh controls another control beats on every branch, and the least margin.

    Branches b and M - 1 - b share their weight, so a control's pair of
    factors there counts as a sorted pair (lo, hi).  Control c is
    dominated when some d has every sorted entry strictly above c's.
    The relation is a strict order, so every dominated control has an
    undominated dominator.  The margin is the smallest, over dominated
    c, of the weighted entry gap sum_b w_b (d_b - c_b) to c's best
    undominated dominator d (inf when nothing is dominated).  Returns
    (mask over controls, margin).
    """
    branches = factors.shape[1]
    mirror = factors[:, ::-1]
    low = np.arange(branches) < branches / 2
    pairs = np.where(low, np.minimum(factors, mirror), np.maximum(factors, mirror))
    under = np.all(pairs[:, None] < pairs[None, :], axis=2)  # under[c, d]: d beats c
    dominated = under.any(axis=1)
    if not dominated.any():
        return dominated, np.inf
    kept = ~dominated
    gaps = (pairs[None, kept] - pairs[dominated, None]) @ weights
    gaps[~under[np.ix_(dominated, kept)]] = 0.0
    return dominated, float(gaps.max(axis=1).min())


#: the dominance certificate's rounding allowance, per branch plus four, in units of a
#: scale S of the step: the row's largest |entry| plus its first cell's slope times the
#: farthest a state reaches left of the origin.  A certified node's states lie left of
#: x_{J+1}, J < cells, so each weighted read slope d + level is at most 3 w S and rounds
#: by at most 5 eps w S, and the M - 1 additions by (M - 1) eps 3 S (the weights sum to
#: 1): (3M + 2) eps S per value, twice that for the two values compared.  The exact
#: difference of the two sums of table reads is at least s x_m delta less the tables' own
#: rounding (rounded levels and slopes, about 10 eps S), the rounding of the states f x_m
#: (eps s |f| x_m, at most 2 eps S since s x_{J+1} is at most the row's rise over cells
#: 0..J) and the relative rounding of s and delta (6 eps S): 6 (M + 4) eps S in all.
#: 2^-44 = 256 eps is a safety factor of about 40 on that.
_ROUNDING = 2.0**-44


@dataclass(frozen=True)
class _Pruned:
    """A primal store that reads the dominated controls only where no certificate covers a node.

    ``kept`` locates the undominated controls; the ``rest`` are located
    into ``blocks`` (by block number, ``width`` nodes each) the first
    time a band reaches a block.  ``margin`` is delta x_m and
    ``reach`` the bracket of f_max x_m, per located node, where delta is
    ``dominated_controls``' margin and f_max the largest factor; ``left``
    is the farthest a located state lies left of the origin.
    """

    kept: Located
    rest: np.ndarray
    width: int
    blocks: dict
    margin: np.ndarray
    reach: np.ndarray
    left: float

    def below(self, stop):
        """The nodes ``< stop`` of the kept store; the located rest is shared."""
        return replace(self, kept=self.kept.below(stop))

    def band(self, grid, row, branches):
        """The rest's located blocks over the nodes [m_safe, stop) of a step reading ``row``.

        s(J) is the least cell slope of ``row`` over cells 0..J (zero
        from the last node on), so the exact value of a dominated control
        at node m lies at least delta x_m s(J(m)) below its dominator's.
        Past H = (M + 4) ``_ROUNDING`` S, with S = max|row| + s(0)
        ``left``, that gap outlasts the rounding of both sums, and the
        mesh's best is the kept controls' best bit for bit.  m_safe is
        the first node from 1 on that is not certified.
        """
        stop = self.kept.stop
        slopes = np.zeros(grid.cells + 2)
        with np.errstate(over="ignore"):  # a slope past the float range certifies nothing
            np.divide(np.subtract(row[1:], row[:-1]), grid._widths, out=slopes[:-2])
            slopes[np.isinf(slopes)] = 0.0
            scale = max(-row.min(), row.max()) + abs(slopes[0]) * self.left
            np.minimum.accumulate(slopes, out=slopes)
            gaps = self.margin[1:stop] * slopes.take(self.reach[1:stop])
        uncertified = np.flatnonzero(gaps <= (branches + 4) * _ROUNDING * scale)
        if not uncertified.size:
            return ()
        start, width = 1 + int(uncertified[0]), self.width
        blocks = []
        for number in range(start // width, -(-stop // width)):
            if number not in self.blocks:
                nodes = slice(number * width, min(number * width + width, self.margin.size))
                self.blocks[number] = locate_block(grid, self.rest, nodes)
            span, j, d = self.blocks[number]
            lo, hi = max(start, span.start), min(stop, span.stop)
            part = slice(lo - span.start, hi - span.start)
            blocks.append((slice(lo, hi), j[..., part], d[..., part]))
        return blocks


def _primal_store(grid, factors, weights, stop):
    """``locate``'s store, or a ``_Pruned`` one where it spans blocks and a control is dominated."""
    size = grid.nodes[:stop].size
    if size > block_width(factors):
        dominated, margin = dominated_controls(factors, weights)
        if dominated.any():
            nodes = grid.nodes[:size]
            reach, _ = bracket(grid, factors.max() * nodes)
            # an array product, so it overflows where and as ``locate`` would
            left = (max(0.0, -float(factors.min())) * nodes[-1:]).item()
            kept = locate(grid, factors[~dominated], size)
            rest = factors[dominated]
            return _Pruned(kept, rest, block_width(rest), {}, margin * nodes, reach, left)
    return locate(grid, factors, stop)


def plateau_cuts(grid, factors, terminal_row, steps):
    """The certified plateau's first node m*_n at time index n = 0..steps.

    m*_N is the first node from which ``terminal_row`` equals its last
    entry, the plateau, bit for bit.  The reach of node m is the bracket
    of f* x_m, f* = max_c min_b ``factors[c, b]``: exactly the largest
    over controls of the smallest bracket over branches of its displaced
    states, since fl(f x) (x >= 0) and the bracket are both monotone.
    It is nondecreasing in m (all zero when f* <= 0), so each earlier
    cut is one search of the later one.  ``cells + 1`` certifies no node.
    """
    different = np.flatnonzero(terminal_row != terminal_row[-1])
    reach, _ = bracket(grid, factors.min(axis=1).max() * grid.nodes)
    cuts = np.empty(steps + 1, dtype=np.intp)
    cuts[steps] = different[-1] + 1 if different.size else 0
    for n in range(steps - 1, -1, -1):
        cuts[n] = np.searchsorted(reach, cuts[n + 1])
    return cuts


def solve(model, terminal, disc, direction="primal"):
    """Run the full backward sweep for one discretisation level.

    Parameters
    ----------
    model : MarketModel
    terminal : object with an ``evaluate`` callable
        Terminal reward (a truncated utility for the primal direction,
        its conjugate for the dual one).
    disc : Discretization
    direction : "primal" or "dual"

    Returns
    -------
    ValueSurface, already validated.  A floating-point error while the
    states are located or in a step raises NumericalFailure.
    """
    rule = gauss_hermite_rule(disc.order)
    time = TimeGrid(model.horizon, disc.steps)
    if direction == "primal":
        grid = SpaceGrid(disc.x_max, disc.cells)
        mesh = control_mesh(model.a_interval, disc.controls)
        sweep_step = primal_step
    else:
        grid = SpaceGrid(disc.y_max, disc.dual_cells)
        mesh = control_mesh(model.gamma_interval, disc.controls)
        sweep_step = dual_step
    bottom = np.asarray(terminal.evaluate(grid.nodes), dtype=float)
    if bottom.shape != grid.nodes.shape or not np.all(np.isfinite(bottom)):
        raise ValueError("terminal reward must be finite on the grid")
    plateau = float(bottom[-1])
    factors = step_factors(model, mesh, rule, time.step, direction)
    cuts = np.full(disc.steps + 1, grid.cells + 1)
    data = np.empty((disc.steps + 1, grid.cells + 1))
    data[disc.steps] = bottom
    n = disc.steps  # no step has run while the states are located
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            if direction == "primal":
                cuts = plateau_cuts(grid, factors, bottom, disc.steps)
                # no step reads past its cut
                located = _primal_store(grid, factors, rule.weights, cuts[:-1].max())
            else:
                located = locate(grid, factors)
            for n in range(disc.steps - 1, -1, -1):
                below = located.below(cuts[n])
                data[n] = sweep_step(data[n + 1], below, rule.weights, grid, plateau)
    except FloatingPointError as exc:
        where = f"at time index {n}" if n < disc.steps else "locating the displaced states"
        raise NumericalFailure(
            f"{direction} sweep: {exc} {where} (N={disc.steps}, J={grid.cells}); "
            f"largest |branch factor| = {float(np.abs(factors).max()):.6g}"
        ) from exc
    del located  # 10 B per located point, not needed past the sweep
    data.setflags(write=False)
    surface = ValueSurface(grid=grid, time=time, data=data, direction=direction)
    surface.validate()
    return surface


def coupled_factors(model, rule, steps, step, primal_policy, dual_policy):
    """Each chain's (..., steps, branches) factors, from one ``step_factors`` call.

    The policies are shaped (..., L) with L >= ``steps``, one row of
    controls per draw, and both must have the same batch shape (...).
    Row n of a draw holds its step n's factors; the coupled chains take
    the same branch, with that branch's weight, in both.
    """
    if steps < 0:
        raise ValueError(f"step count must be nonnegative, got {steps}")
    primal = np.asarray(primal_policy, dtype=float)
    dual = np.asarray(dual_policy, dtype=float)
    if primal.ndim == 0 or dual.ndim == 0 or min(primal.shape[-1], dual.shape[-1]) < steps:
        raise ValueError(f"both policies must cover {steps} steps")
    if primal.shape[:-1] != dual.shape[:-1]:
        raise ValueError(
            f"policy batch shapes differ: primal {primal.shape[:-1]}, dual {dual.shape[:-1]}"
        )
    fxs = step_factors(model, primal[..., :steps], rule, step, "primal")
    fys = step_factors(model, dual[..., :steps], rule, step, "dual")
    return fxs, fys


def enumerate_coupled(model, rule, steps, step, start, primal_policy, dual_policy):
    """All endpoint states of both chains after ``steps`` steps, with probabilities.

    The chains start at time 0 from ``start = (x, y)`` and run on one
    model, one quadrature rule and one step.  They are driven by the
    same branch noise: per step both states multiply by their
    ``coupled_factors`` at the same quadrature branch, with that
    branch's weight.  This is the coupling under which the product of
    the chains is a near-supermartingale.  Branches multiply by the rule
    order each step, so this is only for small step counts; the cap
    guards against runaway requests.  States and probabilities come back
    in a fixed depth-first order.  No pipeline calls this: it is the
    referee for ``duality.polar_defect``'s product form.
    """
    fxs, fys = coupled_factors(model, rule, steps, step, primal_policy, dual_policy)
    total = rule.order**steps
    if total > MAX_BRANCHES:
        raise NumericalFailure(
            f"{rule.order}^{steps} = {total} chain branches exceed the cap of {MAX_BRANCHES}"
        )
    xs = np.array([float(start[0])])
    ys = np.array([float(start[1])])
    probs = np.array([1.0])
    for fx, fy in zip(fxs, fys):
        xs = (xs[:, None] * fx[None, :]).reshape(-1)
        ys = (ys[:, None] * fy[None, :]).reshape(-1)
        probs = (probs[:, None] * rule.weights[None, :]).reshape(-1)
    return xs, ys, probs


def write_surface_csv(surface, path, header):
    """Dump a surface as ``t,x,value`` rows, time-major, 16 significant digits.

    One block per slab of whole time rows, at most 8,192 cells, a
    fixed-width byte line per node: the t and x cells are formatted once
    per file, the x cells and commas laid out once, and the t and value
    cells written per slab, the value digits by exact integer arithmetic.
    A slab that does not fit that width is written row by row, and a row
    that does not fit it is one ``%`` call (``csvout.grid``).
    """
    blocks = csvout.grid(surface.time.times, surface.grid.nodes, surface.data)
    csvout.write_csv(path, header, "t,x,value", blocks)
