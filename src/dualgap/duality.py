"""Numerical duality gap and the two-sided error bounds built on it.

The dual surface approximates the conjugate problem, so conjugating it
back,

    min over grid points y_j > 0 of  dual(t, y_j) + x y_j,

should land just above the primal surface; the difference is the
numerical duality gap.  It is nonnegative up to discretisation error,
shrinks with the meshes, and sandwiches the unknown true error: the gap
plus a priori envelopes gives a computable upper bound on how far the
primal surface sits below the true value, and an envelope alone bounds
the overshoot.

The polar check validates the mechanism the gap rests on: along any
pair of policies the product of the two chains, driven by the same
branch noise, must stay an expectation supermartingale up to O(h).
Branches are independent across steps, so that expectation is a
product of per-step branch means: O(N M) work, not M^N branches.
"""

from dataclasses import dataclass

import numpy as np

from . import csvout
from .errors import NumericalFailure
from .solver import coupled_factors

#: minimand entries per chunk of x rows in the gap readout
_CHUNK = 8192


@dataclass(frozen=True)
class GapReport:
    """Gap values at one time index, per interior space node.

    ``argmin_y`` records where the conjugate minimum was attained
    (smallest dual node on ties) and ``boundary_hit`` flags nodes whose
    minimiser sat at an end of the dual grid, where the reported gap is
    a boundary artefact rather than a conjugacy statement.
    """

    x: np.ndarray
    gap: np.ndarray
    argmin_y: np.ndarray
    boundary_hit: np.ndarray


@dataclass(frozen=True)
class BoundReport:
    """Two-sided a posteriori bounds around the primal surface.

    At each node: lower <= true value - primal value <= upper, with
    ``upper`` combining the observed gap, the dual envelope at the
    attained conjugate argument, and the truncation allowance.  ``x``
    lets a writer check the nodes against the gap report's.
    """

    x: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


def duality_gap(primal, dual, time_index=0):
    """Conjugate the dual surface back and subtract the primal one.

    Both surfaces must share the time lattice.  The minimum runs over the
    dual nodes y > 0 only.  Weak duality V(x) <= dual(y) + x y holds at
    y = 0 too, and at t = 0 the y = 0 certificate is exact on wealth
    x >= x* = rho exp(-(r + g(0)) T): the riskless position carries such
    wealth to at least rho, where the truncated reward reaches its
    supremum dual(0) = U(rho).  The readout leaves y = 0 out only because
    the acceptance gate pins the convergence orders of this y_1 readout,
    whose gap on that block is O(x y_1).  The minimand is formed a chunk
    of x rows at a time, never whole; one that overflows raises a
    NumericalFailure naming the time index and the largest x and y,
    whatever the caller's numpy error settings.
    """
    if primal.direction != "primal" or dual.direction != "dual":
        raise ValueError("duality_gap expects a primal and a dual surface, in that order")
    if primal.time.steps != dual.time.steps or primal.time.horizon != dual.time.horizon:
        raise ValueError("surfaces live on different time lattices")
    n = int(time_index)
    if not 0 <= n <= primal.time.steps:
        raise ValueError(f"time index {n} outside [0, {primal.time.steps}]")
    xs = primal.grid.nodes[1:]
    ys = dual.grid.nodes[1:]
    pick = np.empty(xs.size, dtype=np.intp)
    low = np.empty(xs.size)
    chunk = max(1, _CHUNK // ys.size)
    try:
        with np.errstate(over="raise", invalid="raise"):
            for start in range(0, xs.size, chunk):
                rows = slice(start, start + chunk)
                minimand = dual.data[n, 1:][None, :] + xs[rows, None] * ys[None, :]
                pick[rows] = np.argmin(minimand, axis=1)
                low[rows] = minimand[np.arange(minimand.shape[0]), pick[rows]]
    except FloatingPointError as exc:
        raise NumericalFailure(
            f"duality gap readout: {exc} at time index {n}; "
            f"largest x = {float(xs.max()):.6g}, largest y = {float(ys.max()):.6g}"
        ) from exc
    gap = low - primal.data[n, 1:]
    return GapReport(
        x=xs.copy(),
        gap=gap,
        argmin_y=ys[pick],
        boundary_hit=(pick == 0) | (pick == ys.size - 1),
    )


def aposteriori_bounds(
    report,
    *,
    order,
    step,
    spacing,
    lip_primal,
    lip_dual,
    c_primal,
    c_dual,
    allowance,
):
    """Wrap a gap report into the computable two-sided error bounds.

    Both sides carry the scheme rate step^((M-1)/2M) + spacing/step with
    polynomial growth 1 + s^{2M}, where s is the space node for the
    lower side and the attained conjugate argument for the upper side.
    ``allowance`` is what the domain truncation may cost, as an array
    over the report nodes; it enters the upper side only.  A side that
    overflows raises a NumericalFailure naming it, M, the step, the
    spacing, its largest s and its Lipschitz constant, whatever the
    caller's numpy error settings.
    """
    if order < 1:
        raise ValueError(f"quadrature order must be positive, got {order}")
    if step <= 0.0 or spacing <= 0.0:
        raise ValueError("step and spacing must be positive")
    two_m = 2 * order
    slack = np.asarray(allowance, dtype=float)
    if slack.shape != report.x.shape:
        raise ValueError("allowance array must match the report nodes")
    try:
        with np.errstate(over="raise", invalid="raise"):
            side, name, reach, lip = "lower", "x", report.x, lip_primal
            # np.divide, so that a rate past the float range raises too
            rate = step ** ((order - 1.0) / (2.0 * order)) + np.divide(spacing, step)
            lower = -lip * c_primal * (1.0 + reach**two_m) * rate
            side, name, reach, lip = "upper", "argmin_y", report.argmin_y, lip_dual
            upper = report.gap + lip * c_dual * (1.0 + reach**two_m) * rate + slack
    except FloatingPointError as exc:
        raise NumericalFailure(
            f"a posteriori {side} bound: {exc} (M={order}, step={step:.6g}, "
            f"spacing={spacing:.6g}); largest {name} = {float(np.max(reach)):.6g}, "
            f"Lipschitz constant {lip:.6g}"
        ) from exc
    return BoundReport(x=report.x, lower=lower, upper=upper)


def polar_defect(model, rule, steps, step, start, primal_policy, dual_policy):
    """Expectation of the coupled product chain and its defect from x y.

    Returns (E[X Y], E[X Y] - x y).  Both chains take one shared branch
    per step, independent across steps, so E[X_N Y_N] is exactly
    x y prod_n sum_b w_b fx_n[b] fy_n[b] over the ``coupled_factors``.
    Each mean is an elementwise product summed over branches, not a BLAS
    call, so its bits do not depend on the BLAS build.  The defect must
    be O(step) uniformly in the policies: each step multiplies the
    expectation by 1 + h (g - conj(g) - a gamma) - h^2 mu (r + conj(g))
    whose middle term is nonpositive by conjugacy.  A product that
    overflows raises a NumericalFailure naming N and the largest mean,
    whatever the caller's numpy error settings.
    """
    fxs, fys = coupled_factors(model, rule, steps, step, primal_policy, dual_policy)
    means = np.sum(rule.weights * fxs * fys, axis=1)
    origin = float(start[0]) * float(start[1])
    try:
        with np.errstate(over="raise", invalid="raise"):
            expectation = origin * float(np.prod(means))
    except FloatingPointError as exc:
        largest = float(np.abs(means).max())
        raise NumericalFailure(
            f"polar check: {exc} (N={steps}); largest |branch mean| = {largest:.6g}"
        ) from exc
    return expectation, expectation - origin


def write_gap_csv(report, path, header, bounds):
    """Dump a gap report and its bounds as ``x,gap,argmin_y,lower,upper`` rows."""
    if not np.array_equal(bounds.x, report.x):
        raise ValueError("bound report does not match the gap report nodes")
    rows = zip(report.x, report.gap, report.argmin_y, bounds.lower, bounds.upper)
    csvout.write_csv(path, header, "x,gap,argmin_y,lower,upper", csvout.table((float,) * 5, rows))
