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

with xi running over the quadrature nodes.  The state at the origin is
absorbing in both cases, so row entry 0 is copied through time.  Both
directions run the same step kernel; they differ only in these factors
and in max versus min.

The same factors drive ``enumerate_coupled``, which expands every branch
of the primal and dual chains explicitly for small step counts; it is
the ground truth the expectation-level tests and the polar check run on.
"""

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import NumericalFailure, ResourceLimit
from .lattice import SpaceGrid, TimeGrid, control_mesh, interpolate
from .market import penalty_conjugate
from .quadrature import gauss_hermite_rule

#: hard cap on explicitly enumerated chain branches
MAX_BRANCHES = 10_000_000

_SURFACE_SLACK = 1.0e-8


@dataclass(frozen=True)
class ValueSurface:
    """A solved value function on the full time-space lattice.

    ``data[n, m]`` approximates the value at time node n and space node
    m; row ``steps`` is the terminal condition.  ``controls[n, m]`` is
    the control the sweep selected there (first mesh point on ties),
    kept for diagnostics.
    """

    grid: SpaceGrid
    time: TimeGrid
    data: np.ndarray
    direction: str
    plateau: float
    controls: Optional[np.ndarray] = None

    def validate(self):
        """Check the discrete structure the sweep is supposed to preserve.

        The terminal row must be stored exactly.  For the maximising
        direction the sweep is a composition of convex combinations and
        a pointwise maximum, so every value must stay inside the
        terminal range and rows must be nondecreasing in space, both up
        to interpolation slack.
        """
        if not np.all(np.isfinite(self.data)):
            raise NumericalFailure("value surface contains non-finite entries")
        if self.direction != "primal":
            return
        lo = float(self.data[-1].min()) - _SURFACE_SLACK
        hi = float(self.data[-1].max()) + _SURFACE_SLACK
        if self.data.min() < lo or self.data.max() > hi:
            raise NumericalFailure(
                f"primal surface leaves the terminal range [{lo}, {hi}]"
            )
        steps = np.diff(self.data, axis=1)
        if steps.min() < -_SURFACE_SLACK:
            n, m = divmod(int(steps.argmin()), steps.shape[1])
            raise NumericalFailure(
                f"primal surface decreasing in space at time index {n}, node {m}"
            )


def step_factors(model, control, rule, step, direction):
    """Branch multipliers for one step of the chosen chain.

    For a scalar control this is an array over quadrature branches; for
    a control mesh it is a (controls, branches) array.  The displaced
    state is the current state times the factor.  The dual chain
    evaluates the conjugate penalty once per gamma.
    """
    r, b, sig = model.rate, model.appreciation, model.vol
    root = math.sqrt(step)
    c = np.asarray(control, dtype=float)[..., None]
    if direction == "primal":
        mu = r + c * (b - r) + np.asarray(model.penalty(c), dtype=float)
        return 1.0 + step * mu + root * c * sig * rule.nodes
    if direction == "dual":
        conj = np.array([penalty_conjugate(model, g) for g in c.ravel()]).reshape(c.shape)
        return 1.0 - step * (r + conj) + root * ((r - b - c) / sig) * rule.nodes
    raise ValueError(f"unknown direction {direction!r}")


def _sweep_step(next_row, factors, weights, controls, grid, plateau, select):
    """One backward step in either direction, given its (controls, branches) factors.

    Branches are accumulated in ascending node order, and ``select``
    (``np.argmax`` or ``np.argmin``) keeps the earliest mesh point on
    ties, so the sweep is bit-reproducible.  Returns the new row and the
    selected control per node; the absorbing origin is copied through.
    """
    nodes = grid.nodes
    value = np.zeros((controls.size, nodes.size))
    for weight, factor in zip(weights, factors.T):
        value += weight * interpolate(grid, next_row, factor[:, None] * nodes, plateau)
    pick = select(value, axis=0)
    best = value[pick, np.arange(nodes.size)]
    chosen = controls[pick]
    best[0] = next_row[0]
    chosen[0] = controls[0]
    return best, chosen


def primal_step(next_row, factors, weights, controls, grid, plateau):
    """One backward step of the maximising sweep."""
    return _sweep_step(next_row, factors, weights, controls, grid, plateau, np.argmax)


def dual_step(next_row, factors, weights, gammas, grid, plateau):
    """One backward step of the minimising sweep."""
    return _sweep_step(next_row, factors, weights, gammas, grid, plateau, np.argmin)


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
        mesh = control_mesh(model.a_interval, disc.primal_controls)
        sweep_step = primal_step
    else:
        grid = SpaceGrid(disc.y_max, disc.dual_cells)
        mesh = control_mesh(model.gamma_interval, disc.dual_controls)
        sweep_step = dual_step
    bottom = np.asarray(terminal.evaluate(grid.nodes), dtype=float)
    if bottom.shape != grid.nodes.shape or not np.all(np.isfinite(bottom)):
        raise ValueError("terminal reward must be finite on the grid")
    plateau = float(bottom[-1])
    factors = step_factors(model, mesh, rule, time.step, direction)
    data = np.empty((disc.steps + 1, grid.cells + 1))
    data[disc.steps] = bottom
    controls = np.empty((disc.steps, grid.cells + 1))
    for n in range(disc.steps - 1, -1, -1):
        row, arg = sweep_step(data[n + 1], factors, rule.weights, mesh, grid, plateau)
        if not np.all(np.isfinite(row)):
            raise NumericalFailure(
                f"non-finite {direction} value row at time index {n} "
                f"(N={disc.steps}, J={grid.cells})"
            )
        data[n] = row
        controls[n] = arg
    data.setflags(write=False)
    controls.setflags(write=False)
    surface = ValueSurface(
        grid=grid,
        time=time,
        data=data,
        direction=direction,
        plateau=plateau,
        controls=controls,
    )
    surface.validate()
    return surface


def _checked_branch_count(order, steps):
    total = order**steps
    if total > MAX_BRANCHES:
        raise ResourceLimit(
            f"{order}^{steps} = {total} chain branches exceed the cap of {MAX_BRANCHES}"
        )
    return total


def enumerate_coupled(model, rule, steps, step, start, primal_policy, dual_policy):
    """All endpoint states of both chains after ``steps`` steps, with probabilities.

    The chains start at time 0 from ``start = (x, y)`` and run on one
    model, one quadrature rule and one step.  They are driven by the
    same branch noise: per step both states multiply by their own
    factors at the same quadrature branch, with that branch's weight.
    This is the coupling under which the product of the chains is a
    near-supermartingale.  Branches multiply by the rule order each
    step, so this is only for small step counts; the cap guards against
    runaway requests.  States and probabilities come back in a fixed
    depth-first order.
    """
    if steps < 0:
        raise ValueError(f"step count must be nonnegative, got {steps}")
    if len(primal_policy) < steps or len(dual_policy) < steps:
        raise ValueError(f"both policies must cover {steps} steps")
    _checked_branch_count(rule.order, steps)
    xs = np.array([float(start[0])])
    ys = np.array([float(start[1])])
    probs = np.array([1.0])
    for i in range(steps):
        fx = step_factors(model, primal_policy[i], rule, step, "primal")
        fy = step_factors(model, dual_policy[i], rule, step, "dual")
        xs = (xs[:, None] * fx[None, :]).reshape(-1)
        ys = (ys[:, None] * fy[None, :]).reshape(-1)
        probs = (probs[:, None] * rule.weights[None, :]).reshape(-1)
    return xs, ys, probs


def write_surface_csv(surface, path, header=None):
    """Dump a surface as ``t,x,value`` rows, time-major, 16 significant digits."""
    lines = []
    if header:
        lines.append(f"# {header}")
    lines.append("t,x,value")
    for n, t in enumerate(surface.time.times):
        for x, v in zip(surface.grid.nodes, surface.data[n]):
            lines.append(f"{t:.15e},{x:.15e},{v:.15e}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
