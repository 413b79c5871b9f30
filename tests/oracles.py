"""Independent reference implementations used to pin solver results.

Everything here is deliberately naive: plain Python loops, one state at a
time, no shared code with the production sweep beyond the control meshes,
the penalty transform leaf and the golden-section polish.  Slow is fine;
these only run on toy problem sizes.
"""

import dataclasses
import math
import types

import numpy as np

from dualgap.lattice import control_mesh
from dualgap.market import cuoco_liu_model, merton_model, penalty_conjugate
from dualgap.optim import golden_max
from dualgap.utility import conjugate_spec, lipschitz_truncate, power_utility


def interp_scalar(nodes, row, query, plateau):
    """One-point mirror of the production boundary closure."""
    if query < 0.0:
        slope = (row[1] - row[0]) / (nodes[1] - nodes[0])
        return row[0] + slope * query
    if query > nodes[-1]:
        return plateau
    for j in range(len(nodes) - 1):
        if nodes[j] <= query <= nodes[j + 1]:
            width = nodes[j + 1] - nodes[j]
            weight = (query - nodes[j]) / width
            return (1.0 - weight) * row[j] + weight * row[j + 1]
    return row[-1]


def naive_solve(model, terminal, disc, direction, rule):
    """Backward sweep by exhaustive enumeration, one node at a time.

    Returns (nodes, data) with data indexed time-major like the production
    surface.  The plateau is the terminal value at the far edge, matching
    the production closure.
    """
    if direction == "primal":
        length, cells = disc.x_max, disc.cells
        controls = control_mesh(model.a_interval, disc.primal_controls)
    else:
        length, cells = disc.y_max, disc.dual_cells
        controls = control_mesh(model.gamma_interval, disc.dual_controls)
    nodes = np.linspace(0.0, length, cells + 1)
    step = model.horizon / disc.steps
    root = math.sqrt(step)

    rows = [None] * (disc.steps + 1)
    rows[-1] = np.array([float(terminal.evaluate(float(x))) for x in nodes])
    plateau = float(rows[-1][-1])

    rate, appreciation, vol = model.rate, model.appreciation, model.vol
    for n in range(disc.steps - 1, -1, -1):
        prev = rows[n + 1]
        row = np.empty_like(prev)
        row[0] = prev[0]
        for m in range(1, cells + 1):
            x = float(nodes[m])
            candidates = []
            for control in controls:
                if direction == "primal":
                    drift = rate + control * (appreciation - rate)
                    drift += float(model.penalty(control))
                    noise = control * vol
                else:
                    drift = -(rate + penalty_conjugate(model, control))
                    noise = (rate - appreciation - control) / vol
                total = 0.0
                for weight, xi in zip(rule.weights, rule.nodes):
                    query = x * (1.0 + step * drift + root * noise * xi)
                    total += weight * interp_scalar(nodes, prev, query, plateau)
                candidates.append(total)
            row[m] = max(candidates) if direction == "primal" else min(candidates)
        rows[n] = row
    return nodes, np.stack(rows)


def convex_conjugate(spec, y, search_grid):
    """sup_x {U(x) - x y} by grid scan plus golden refinement.

    The scan picks the best mesh point (first index on ties), the
    refinement polishes the bracket around it.  Exact for the analytic
    cases up to the refinement tolerance; the cross-check oracle for the
    closed-form conjugate.
    """
    if y < 0.0:
        raise ValueError(f"conjugate argument must satisfy y >= 0, got {y}")
    grid = np.asarray(search_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("search grid must be a 1-d array with at least 2 points")
    values = np.asarray(spec.evaluate(grid), dtype=float) - grid * y
    best = int(np.argmax(values))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, grid.size - 1)]
    refined, _ = golden_max(lambda x: float(spec.evaluate(x)) - x * y, lo, hi)
    return max(float(values[best]), refined)


def random_setup(rng):
    """Draw a small random problem: (model, terminal, disc, direction).

    Sizes stay tiny so exhaustive per-node enumeration is instant.
    """
    kind = rng.integers(0, 3)
    r = float(rng.uniform(0.0, 1.0))
    b = float(rng.uniform(r - 0.5, r + 1.0))
    sigma = float(rng.uniform(0.3, 2.0))
    horizon = float(rng.uniform(0.25, 1.0))
    lo = -float(rng.uniform(0.25, 1.0))
    hi = float(rng.uniform(0.25, 1.0))
    if kind == 2:
        model = cuoco_liu_model(
            r=r,
            borrowing_rate=r + float(rng.uniform(0.0, 0.5)),
            b=b,
            sigma=sigma,
            horizon=horizon,
            iota=float(rng.uniform(0.0, 1.0)),
            lambda_plus=float(rng.uniform(0.5, 2.0)),
            lambda_minus=float(rng.uniform(0.5, 2.0)),
        )
    else:
        model = merton_model(r=r, b=b, sigma=sigma, horizon=horizon,
                             a_interval=(lo, hi))
        if kind == 1:
            spread = float(rng.uniform(0.1, 1.0))
            model = dataclasses.replace(model, gamma_interval=(-spread, spread))

    x_max = float(rng.choice([2.0, 5.0]))
    rho = 0.8 * x_max
    reward = lipschitz_truncate(power_utility(float(rng.uniform(0.3, 0.7))),
                                rho, 0.3 * rho * rho)
    direction = "primal" if rng.integers(0, 2) == 0 else "dual"
    terminal = reward if direction == "primal" else conjugate_spec(reward)

    disc = types.SimpleNamespace(
        steps=int(rng.integers(1, 4)),
        cells=int(rng.choice([4, 9, 16])),
        dual_cells=int(rng.choice([4, 9, 16])),
        order=int(rng.integers(2, 4)),
        primal_controls=3,
        dual_controls=3,
        x_max=x_max,
        y_max=float(rng.choice([2.0, 4.0])),
    )
    return model, terminal, disc, direction
