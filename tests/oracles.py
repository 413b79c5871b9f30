"""Independent reference implementations used to pin solver results.

Everything here is deliberately naive: plain Python loops, one state at a
time, no shared code with the production sweep beyond the control meshes,
the model's penalty and the golden-section polish.  Slow is fine; these
only run on toy problem sizes.

The one exception is the ``interp_*`` referee: the vectorised sweep as it
was before displaced states were located once per solve, searching every
state with ``np.interp`` at every step.  It reads each branch from the
weighted row ``weight * next_row``, as production's weighted tables do,
and shares the grids and the step factors with production on purpose,
so the two can be compared bit for bit.  Its primal sweep writes the
plateau U(rho) from the certified cut on, as production does, but
derives the cut on its own (``interp_plateau_cuts``): by a formula in
f*, not from brackets.

``store_plateau_cuts`` is the certified cut as it was before it came
from the bracket of f* x_m: per node of a full located store, the
largest over controls of the smallest bracket over branches, and the
suffix minimum of that reach.  Production's reach is that same number
with no scan: fl(f x) is nondecreasing in f for x >= 0 and the bracket
is nondecreasing in the state, so the min over branches and the max over
controls pass through the product and the bracket, and ascending nodes
make the reach nondecreasing, so the suffix minimum changes nothing.

The ``csv_*`` referee is the CSV writer as it was before it formatted
whole blocks: one ``cell`` call per cell, one joined line per row.

``scan_polish_conjugate`` is the penalty conjugate as it was before it
became a maximum over the penalty's vertices: a fixed 201-point scan of
the control interval, then a golden-section polish of the best bracket.
It assumes nothing about kinks, so the naive sweep uses it too.

``cuoco_liu_penalty`` is the cuoco-liu drift penalty as it was before
the model stored it as vertex values: the closed formula, evaluated
wherever it is asked.

``scan_coefficient_bounds`` and ``scan_dual_coefficient_bounds`` are the
coefficient sizes as they were before they were evaluated at the
penalty's vertices: the largest values on a 1e-4-spaced control mesh and
on a 201-point gamma mesh.  A scan reads low, or one ulp high on a flat
stretch of a coefficient.
"""

import dataclasses
import math
import types
from numbers import Integral

import numpy as np

from dualgap.lattice import SpaceGrid, TimeGrid, control_mesh
from dualgap.market import CoefficientBounds, cuoco_liu_model, merton_model, penalty_conjugate
from dualgap.optim import golden_max
from dualgap.quadrature import gauss_hermite_rule
from dualgap.solver import step_factors
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


def interp_read(grid, row, query, plateau):
    """``np.interp`` plus the scheme's two closures, on an array of queries."""
    q = np.asarray(query, dtype=float)
    out = np.interp(q, grid.nodes, row)
    left = q < 0.0
    if np.any(left):
        slope = (row[1] - row[0]) / (grid.nodes[1] - grid.nodes[0])
        out = np.where(left, row[0] + slope * q, out)
    return np.where(q > grid.length, plateau, out)


def interp_step(next_row, factors, weights, grid, plateau, select, cut):
    """One backward step that searches every displaced state afresh; plateau from ``cut`` on.

    Each branch reads ``np.interp`` of the weighted row ``weight * next_row``
    (plateau ``weight * plateau``), and the sum starts from the first read.
    """
    reads = (
        interp_read(grid, weight * next_row, factor[:, None] * grid.nodes, weight * plateau)
        for weight, factor in zip(weights, factors.T)
    )
    value = next(reads)
    for read in reads:
        value += read
    best = value[select(value, axis=0), np.arange(grid.cells + 1)]
    best[cut:] = plateau
    best[0] = next_row[0]
    return best


def interp_plateau_cuts(grid, factors, terminal_row, steps):
    """The certified cut m*_n for n = 0..steps, from the branch factors.

    f* is the largest over controls of the smallest branch factor: under
    that control every branch of node m lands at or past the state
    f* x_m.  From the first node where the terminal row is flat, each
    earlier cut is ceil(x_{m*_{n+1}} / (f* dx)), capped at cells + 1 (no
    node).  Where f* x_m falls within rounding of a node the formula can
    be one node off, so the states f* x_m on either side settle it; past
    the grid means beyond its length.
    """
    none = grid.cells + 1
    fstar = float(factors.min(axis=1).max())

    def certified(m, cut):
        state = fstar * grid.nodes[m]
        return state > grid.length if cut == none else state >= grid.nodes[cut]

    cut = max((m for m in range(none) if terminal_row[m] != terminal_row[-1]), default=-1) + 1
    cuts = [cut]
    for _ in range(steps):
        if cut > 0:
            m = none
            if fstar > 0.0 and cut < none:
                m = min(math.ceil(grid.nodes[cut] / (fstar * grid.spacing)), none)
            while m > 0 and certified(m - 1, cut):
                m -= 1
            while m < none and not certified(m, cut):
                m += 1
            cut = m
        cuts.insert(0, cut)
    return cuts


def store_plateau_cuts(located, terminal_row, steps):
    """The certified cut m*_n for n = 0..steps, scanned from a store that holds every node."""
    different = np.flatnonzero(terminal_row != terminal_row[-1])
    reach = np.concatenate([index.min(axis=0).max(axis=0) for _, index, _ in located.blocks])
    floor = np.minimum.accumulate(reach[::-1])[::-1]
    cuts = np.empty(steps + 1, dtype=np.intp)
    cuts[steps] = different[-1] + 1 if different.size else 0
    for n in range(steps - 1, -1, -1):
        cuts[n] = np.searchsorted(floor, cuts[n + 1])
    return cuts


def interp_solve(model, terminal, disc, direction):
    """The full backward sweep of ``interp_step``; returns the surface data."""
    rule = gauss_hermite_rule(disc.order)
    if direction == "primal":
        grid = SpaceGrid(disc.x_max, disc.cells)
        mesh = control_mesh(model.a_interval, disc.controls)
        select = np.argmax
    else:
        grid = SpaceGrid(disc.y_max, disc.dual_cells)
        mesh = control_mesh(model.gamma_interval, disc.controls)
        select = np.argmin
    factors = step_factors(model, mesh, rule, TimeGrid(model.horizon, disc.steps).step, direction)
    data = np.empty((disc.steps + 1, grid.cells + 1))
    data[-1] = terminal.evaluate(grid.nodes)
    cuts = [grid.cells + 1] * (disc.steps + 1)
    if direction == "primal":
        cuts = interp_plateau_cuts(grid, factors, data[-1], disc.steps)
    plateau = data[-1, -1]
    for n in range(disc.steps - 1, -1, -1):
        data[n] = interp_step(data[n + 1], factors, rule.weights, grid, plateau, select, cuts[n])
    return data


def naive_solve(model, terminal, disc, direction, rule):
    """Backward sweep by exhaustive enumeration, one node at a time.

    Returns (nodes, data) with data indexed time-major like the production
    surface.  The plateau is the terminal value at the far edge, matching
    the production closure.
    """
    if direction == "primal":
        length, cells = disc.x_max, disc.cells
        controls = control_mesh(model.a_interval, disc.controls)
    else:
        length, cells = disc.y_max, disc.dual_cells
        controls = control_mesh(model.gamma_interval, disc.controls)
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
                    drift = -(rate + scan_polish_conjugate(model, control))
                    noise = (rate - appreciation - control) / vol
                total = 0.0
                for weight, xi in zip(rule.weights, rule.nodes):
                    query = x * (1.0 + step * drift + root * noise * xi)
                    total += weight * interp_scalar(nodes, prev, query, plateau)
                candidates.append(total)
            row[m] = max(candidates) if direction == "primal" else min(candidates)
        rows[n] = row
    return nodes, np.stack(rows)


def scan_polish_conjugate(model, nu):
    """sup over admissible a of g(a) - a nu: 201-point scan, then a golden polish.

    The scan picks the best mesh point (first index on ties), the polish
    refines the bracket around it, and the larger of the two is kept.
    """
    mesh = control_mesh(model.a_interval, 201)
    values = np.asarray(model.penalty(mesh), dtype=float) - mesh * nu
    best = int(np.argmax(values))
    lo = mesh[max(best - 1, 0)]
    hi = mesh[min(best + 1, mesh.size - 1)]
    refined, _ = golden_max(lambda a: float(model.penalty(a)) - a * nu, lo, hi)
    return max(float(values[best]), refined)


def cuoco_liu_penalty(a, r=0.8, borrowing_rate=1.0, iota=0.5, lambda_minus=1.0):
    """g(a) of ``cuoco_liu_model`` with the same parameters, by its formula."""
    arr = np.asarray(a, dtype=float)
    spread = borrowing_rate - r
    short_rate = r * (1.0 + iota * lambda_minus)
    long_part = np.maximum(0.0, arr)
    short_part = np.maximum(0.0, -arr)
    return -short_rate * short_part - spread * (1.0 - long_part - iota * lambda_minus * short_part)


def scan_coefficient_bounds(model):
    """Largest primal drift and volatility sizes on a control mesh of spacing 1e-4."""
    lo, hi = model.a_interval
    count = max(int(math.ceil((hi - lo) / 1.0e-4)) + 1, 2)
    mesh = np.array([lo]) if hi == lo else np.linspace(lo, hi, count)
    r, b = model.rate, model.appreciation
    drift = np.abs(r + mesh * (b - r) + np.asarray(model.penalty(mesh), dtype=float))
    vol = np.abs(mesh * model.vol)
    return CoefficientBounds(drift=float(drift.max()), vol=float(vol.max()))


def scan_dual_coefficient_bounds(model):
    """Largest dual drift and volatility sizes on a 201-point gamma mesh."""
    gammas = control_mesh(model.gamma_interval, 201)
    conj = np.asarray(penalty_conjugate(model, gammas))
    r, b = model.rate, model.appreciation
    drift = np.abs(r + conj)
    vol = np.abs((r - b - gammas) / model.vol)
    return CoefficientBounds(drift=float(drift.max()), vol=float(vol.max()))


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


def tail_weight(log_ratio, drift_bound, vol_bound, horizon):
    """One clamped large-deviation tail weight, in ``math`` arithmetic."""
    margin = max(0.0, log_ratio - drift_bound * horizon)
    exponent = -(3.0 / (8.0 * vol_bound**2 * horizon)) * margin * margin
    return min(1.0, 2.0 * math.exp(exponent))


def tail_sum_loop(x, rho, constants, cutoff):
    """Tail weights over integer barriers from floor(rho) up, one term at a time.

    Collects terms in barrier order until the first one under ``cutoff``
    and returns (their correctly rounded sum by ``math.fsum``, level of
    that first term).  No cap: callers keep x small enough for the loop
    to end.
    """
    # tail_weight inlined with the same operations in the same order; a
    # call per term would double the loop's time
    shift = constants.drift_bound * constants.horizon
    coeff = -(3.0 / (8.0 * constants.vol_bound**2 * constants.horizon))
    log, exp = math.log, math.exp
    terms = []
    level = max(int(math.floor(rho)), 1)
    while True:
        margin = log(level / x) - shift
        if margin < 0.0:
            margin = 0.0
        term = 2.0 * exp(coeff * margin * margin)
        if term > 1.0:
            term = 1.0
        if term < cutoff:
            return math.fsum(terms), level
        terms.append(term)
        level += 1


def tail_term(level, x, constants):
    """The unclamped tail weight g(L) = 2 exp(-k (log(L / x) - c_mu T)^2), k = 3 / (8 c_psi^2 T)."""
    k = 3.0 / (8.0 * constants.vol_bound**2 * constants.horizon)
    margin = math.log(level / x) - constants.drift_bound * constants.horizon
    return 2.0 * math.exp(-k * margin * margin)


def tail_integral(x, lo, hi, constants):
    """The integral of ``tail_term`` over levels [lo, hi] by quadrature, not by erfc.

    In u = log L the integrand is 2 exp(-k (u - log x - c_mu T)^2 + u),
    smooth; 32-point Gauss-Legendre on 64 equal pieces of [log lo, log hi].
    """
    k = 3.0 / (8.0 * constants.vol_bound**2 * constants.horizon)
    centre = math.log(x) + constants.drift_bound * constants.horizon
    nodes, weights = np.polynomial.legendre.leggauss(32)
    edges = np.linspace(math.log(lo), math.log(hi), 65)
    half = 0.5 * (edges[1:] - edges[:-1])
    u = (half[:, None] * nodes + (0.5 * (edges[1:] + edges[:-1]))[:, None]).ravel()
    values = 2.0 * np.exp(-k * (u - centre) ** 2 + u)
    return math.fsum((np.repeat(half, 32) * np.tile(weights, 64) * values).tolist())


def allowance_loop(x, utility, rho, c0, constants, cutoff):
    """Truncation allowance at one state with the per-term tail loop."""
    lower = tail_weight(
        math.log(rho / (c0 * x)), constants.drift_bound, constants.vol_bound, constants.horizon
    )
    total = float(utility.evaluate(c0 / rho)) * lower
    return total + float(utility.derivative(rho)) * tail_sum_loop(x, rho, constants, cutoff)[0]


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
        controls=3,
        x_max=x_max,
        y_max=float(rng.choice([2.0, 4.0])),
    )
    return model, terminal, disc, direction


def csv_cell(value):
    """One CSV cell: strings as they are, integers via ``str``, floats as ``.15e``."""
    if isinstance(value, str):
        return value
    if isinstance(value, Integral):
        return str(value)
    return f"{value:.15e}"


def csv_text(header, columns, rows):
    """The whole file the per-cell writer makes of ``rows``."""
    lines = [f"# {header}", columns] + [",".join(map(csv_cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


def surface_csv_text(surface, header):
    """A surface dump through the per-cell writer: ``t,x,value``, time-major."""
    rows = (
        (t, x, v)
        for t, values in zip(surface.time.times.tolist(), surface.data.tolist())
        for x, v in zip(surface.grid.nodes.tolist(), values)
    )
    return csv_text(header, "t,x,value", rows)
