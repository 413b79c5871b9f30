"""Backward semi-Lagrangian sweeps for the primal and dual value functions.

One step freezes the control over [t_n, t_n + h], advances the state by
the Euler displacement with the Gaussian increment collapsed onto the
quadrature nodes, reads the next value row by linear interpolation, and
optimises over a finite control mesh.  Both state processes are
geometric and the coefficients constant, so the displaced states are
the current node times a factor shared by every node and every step,
built once per solve:

    primal, maximising:  1 + h (r + a (b - r) + g) + sqrt(h) a sigma xi
    dual,   minimising:  1 - h (r + sup_a {g - a gamma}) + sqrt(h) (r - b - gamma) / sigma xi

with xi running over the quadrature nodes.  Every displaced state is
therefore bracketed on the grid once per solve (``lattice.locate``), and
a step only reads the next row at the stored brackets.  The state at
the origin is absorbing in both cases, so row entry 0 is copied through
time.  Both directions run the same step kernel; they differ only in
these factors and in max versus min.

The same factors drive the polar check's coupled chains
(``coupled_factors``), whose expectation is a product of per-step branch
means.  ``enumerate_coupled`` expands every branch of both chains; no
pipeline calls it, and it is the tests' referee for that product.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import csvout
from .errors import NumericalFailure, ResourceLimit
from .lattice import SpaceGrid, TimeGrid, control_mesh, interpolate, locate
from .market import penalty_conjugate
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
        steps = [np.diff(row).min() for row in self.data]
        if min(steps) < -_SURFACE_SLACK:
            n = int(np.argmin(steps))
            m = int(np.diff(self.data[n]).argmin())
            raise NumericalFailure(
                f"primal surface decreasing in space at time index {n}, node {m} {where}"
            )


def step_factors(model, control, rule, step, direction):
    """Branch multipliers for one step of the chosen chain.

    For a scalar control this is an array over quadrature branches; for
    a control mesh it is a (controls, branches) array.  The displaced
    state is the current state times the factor.  The dual chain
    evaluates the conjugate penalty in one vectorised call over the
    whole mesh.
    """
    r, b, sig = model.rate, model.appreciation, model.vol
    root = math.sqrt(step)
    c = np.asarray(control, dtype=float)[..., None]
    if direction == "primal":
        mu = r + c * (b - r) + model.penalty(c)
        return 1.0 + step * mu + root * c * sig * rule.nodes
    if direction == "dual":
        conj = np.asarray(penalty_conjugate(model, control), dtype=float)[..., None]
        return 1.0 - step * (r + conj) + root * ((r - b - c) / sig) * rule.nodes
    raise ValueError(f"unknown direction {direction!r}")


def _sweep_step(next_row, located, weights, grid, plateau, select):
    """One backward step in either direction, given the solve's located states.

    Block by block, branches are accumulated in ascending node order,
    and ``select`` (``np.argmax`` or ``np.argmin``) keeps the earliest
    mesh point on ties, so the sweep is bit-reproducible.  Returns the
    new row; the absorbing origin is copied through.
    """
    best = np.empty(grid.cells + 1)
    blocks = interpolate(grid, next_row, located, plateau)
    for span, reads in zip(located.spans, blocks):
        value = np.zeros((located.controls, span.stop - span.start))
        for weight in weights:  # not zip: its reused tuple would keep the last read alive
            value += weight * next(reads)
        best[span] = value[select(value, axis=0), np.arange(value.shape[1])]
    best[0] = next_row[0]
    return best


def primal_step(next_row, located, weights, grid, plateau):
    """One backward step of the maximising sweep."""
    return _sweep_step(next_row, located, weights, grid, plateau, np.argmax)


def dual_step(next_row, located, weights, grid, plateau):
    """One backward step of the minimising sweep."""
    return _sweep_step(next_row, located, weights, grid, plateau, np.argmin)


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
    ValueSurface, already validated.
    """
    if direction not in ("primal", "dual"):
        raise ValueError(f"unknown direction {direction!r}")
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
    located = locate(grid, step_factors(model, mesh, rule, time.step, direction))
    data = np.empty((disc.steps + 1, grid.cells + 1))
    data[disc.steps] = bottom
    for n in range(disc.steps - 1, -1, -1):
        row = sweep_step(data[n + 1], located, rule.weights, grid, plateau)
        if not np.all(np.isfinite(row)):
            raise NumericalFailure(
                f"non-finite {direction} value row at time index {n} "
                f"(N={disc.steps}, J={grid.cells})"
            )
        data[n] = row
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
        raise ResourceLimit(
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

    One block per time row: its template holds the t and x cells, each
    formatted once per file, and one ``%`` call fills in the row's values.
    """
    blocks = csvout.grid(surface.time.times, surface.grid.nodes, surface.data)
    csvout.write_csv(path, header, "t,x,value", blocks)
