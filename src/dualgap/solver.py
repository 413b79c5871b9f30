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

from dataclasses import dataclass

import numpy as np

from . import csvout
from .errors import NumericalFailure
from .lattice import SpaceGrid, TimeGrid, bracket, control_mesh, interpolate, locate, read
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
        to interpolation slack.
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
        lo = float(self.data[-1].min()) - _SURFACE_SLACK
        hi = float(self.data[-1].max()) + _SURFACE_SLACK
        if smallest < lo or largest > hi:
            n, m = np.argwhere((self.data < lo) | (self.data > hi))[0]
            raise NumericalFailure(
                f"primal surface leaves the terminal range [{lo}, {hi}] "
                f"at time index {n}, node {m} {where}"
            )
        # row by row, no surface-sized copy; the first row holding the
        # smallest step, then its first node: the flattened argmin
        steps = [np.minimum.reduce(np.subtract(row[1:], row[:-1])) for row in self.data]
        if min(steps) < -_SURFACE_SLACK:
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


def _sweep_step(next_row, located, weights, grid, plateau, reduce):
    """One backward step in either direction, given the solve's located states.

    ``interpolate`` gives the step's read tables, each branch's weight
    folded in, so a block's expectation starts from branch 0's ``read``
    and adds the others in ascending branch order, and ``reduce``
    (``np.maximum.reduce`` or ``np.minimum.reduce``, what ``np.max`` and
    ``np.min`` call) writes each node's best value over the mesh into
    the row; a tie returns the tied value, so the sweep is
    bit-reproducible.  Nodes past the located ones are the certified
    plateau and read ``plateau``.  Returns the new row; the absorbing
    origin is copied through.
    """
    best = np.empty(grid.cells + 1)
    tables = interpolate(grid, next_row, located, plateau, weights)
    for span, index, offset in located.blocks:
        reads = zip(tables, index, offset)
        value = read(*next(reads))
        for table, j, d in reads:  # no read is bound to a name while the next is built
            value += read(table, j, d)
        reduce(value, axis=0, out=best[span])
    best[located.stop:] = plateau
    best[0] = next_row[0]
    return best


def primal_step(next_row, located, weights, grid, plateau):
    """One backward step of the maximising sweep."""
    return _sweep_step(next_row, located, weights, grid, plateau, np.maximum.reduce)


def dual_step(next_row, located, weights, grid, plateau):
    """One backward step of the minimising sweep."""
    return _sweep_step(next_row, located, weights, grid, plateau, np.minimum.reduce)


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
            located = locate(grid, factors, cuts[:-1].max())  # no step reads past its cut
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
    """Each chain's (steps, branches) factors, from one ``step_factors`` call.

    Row n holds step n's factors; the coupled chains take the same
    branch, with that branch's weight, in both.
    """
    if steps < 0:
        raise ValueError(f"step count must be nonnegative, got {steps}")
    if len(primal_policy) < steps or len(dual_policy) < steps:
        raise ValueError(f"both policies must cover {steps} steps")
    fxs = step_factors(model, primal_policy[:steps], rule, step, "primal")
    fys = step_factors(model, dual_policy[:steps], rule, step, "dual")
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

    One block per time row, a fixed-width byte row per node: the t and x
    cells are formatted once per file and the value cells written per row.
    A row that does not fit that width is one ``%`` call (``csvout.grid``).
    """
    blocks = csvout.grid(surface.time.times, surface.grid.nodes, surface.data)
    csvout.write_csv(path, header, "t,x,value", blocks)
