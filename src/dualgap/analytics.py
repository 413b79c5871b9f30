"""Refinement ladders, windowed error norms, and convergence tables.

One ladder level couples all meshes to the time step: N = 4 * 2^k time
steps, J = ceil(N^{11/8}) space cells, and 2^k + 1 control points per
interval.  The space/time coupling keeps the interpolation term
spacing/step of the same order as the rest of the scheme error, so the
observed orders are attributable to the step.

Norms are taken over a window of space nodes at the initial time: the
truncation and boundary closures pollute the far ends of the grid, the
window is where the scheme is supposed to be accurate.
"""

import math
import time as _time
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from . import csvout
from .duality import duality_gap
from .lattice import Discretization
from .solver import solve

_NORM_KEYS = ("l1", "l2", "linf")

#: space window of the error-mode norms
_ERROR_WINDOW = (1.0, 2.0)


def dual_cell_count(steps):
    """Dual-grid cells for a solve with the given number of time steps.

    The conjugate readout of the dual surface carries an O(x dy) term, so
    dy has to shrink like the time step for the gap to decay at first
    order.  Tying dy to the primal spacing instead lets that term dominate
    every coarse level.  Three dual cells per two time steps balances the
    readout against the interpolation error accumulated over the steps.
    """
    return math.ceil(3 * steps / 2)


@dataclass(frozen=True)
class ConvergenceTable:
    """Norms per ladder level with observed orders between levels.

    ``orders[key][i]`` is log2 of the norm drop from level i-1 to i and
    nan at i = 0.  ``seconds`` holds wall-clock solve times; they are
    reported on stdout but kept out of the CSV so reruns stay
    byte-identical.
    """

    levels: Tuple[Discretization, ...]
    norms: Tuple[dict, ...]
    orders: dict
    seconds: Tuple[float, ...]


def refinement_ladder(k_min, k_max, order, x_max, y_max):
    """Levels k_min..k_max of the coupled mesh family, as Discretizations."""
    if k_min < 0:
        raise ValueError(f"level indices start at 0, got k_min = {k_min}")
    if k_max < k_min:
        raise ValueError(f"empty ladder: k_min = {k_min}, k_max = {k_max}")
    levels = []
    for k in range(k_min, k_max + 1):
        steps = 4 * 2**k
        levels.append(
            Discretization(
                steps=steps,
                cells=math.ceil(steps**1.375),
                dual_cells=dual_cell_count(steps),
                order=order,
                controls=2**k + 1,
                x_max=float(x_max),
                y_max=float(y_max),
            )
        )
    return tuple(levels)


def window_norms(xs, values, reference, window, spacing):
    """Discrete l1, l2, max norms of values - reference over a node window.

    ``reference`` is a callable of x.  The l1 and l2 norms carry the node
    spacing, so they approximate the continuous norms over the window.
    """
    xs = np.asarray(xs, dtype=float)
    values = np.asarray(values, dtype=float)
    if xs.shape != values.shape:
        raise ValueError("nodes and values must align")
    lo, hi = window
    mask = (xs >= lo - 1.0e-12) & (xs <= hi + 1.0e-12)
    if not np.any(mask):
        raise ValueError(f"window [{lo}, {hi}] contains no grid nodes")
    err = np.abs(values[mask] - np.asarray(reference(xs[mask]), dtype=float))
    return {
        "l1": float(spacing * err.sum()),
        "l2": float(math.sqrt(spacing * float(np.sum(err * err)))),
        "linf": float(err.max()),
    }


def convergence_orders(series):
    """log2 drop between consecutive values; nan first, nan on bad ratios."""
    series = [float(v) for v in series]
    orders = [float("nan")]
    for prev, cur in zip(series[:-1], series[1:]):
        if prev > 0.0 and cur > 0.0:
            orders.append(math.log2(prev / cur))
        else:
            orders.append(float("nan"))
    return orders


def run_ladder(
    model,
    terminal,
    ladder,
    *,
    reference: Optional[Callable] = None,
    conjugate=None,
):
    """Solve every ladder level once and collect each requested readout's norms.

    With ``reference`` (the closed-form value as a callable of x) the
    "error" readout compares the primal surface at the initial time
    against it over the window [1, 2].  With ``conjugate`` (the
    conjugate terminal reward) the "gap" readout also solves the dual
    surface, takes the duality gap at the initial time, and measures it
    against zero over the whole positive axis of the grid.  Returns
    ``{mode: ConvergenceTable}`` for the requested readouts, "error"
    first; every table's ``seconds`` hold the whole level's solve time.
    """
    wanted = (("error", reference), ("gap", conjugate))
    modes = tuple(mode for mode, given in wanted if given is not None)
    if not modes:
        raise ValueError("a ladder needs a reference value function, a conjugate reward or both")
    norms = {mode: [] for mode in modes}
    seconds = []
    for disc in ladder:
        begin = _time.perf_counter()
        primal = solve(model, terminal, disc, "primal")
        if reference is not None:
            norms["error"].append(
                window_norms(
                    primal.grid.nodes,
                    primal.data[0],
                    reference,
                    _ERROR_WINDOW,
                    primal.grid.spacing,
                )
            )
        if conjugate is not None:
            dual = solve(model, conjugate, disc, "dual")
            report = duality_gap(primal, dual, 0)
            norms["gap"].append(
                window_norms(
                    report.x,
                    report.gap,
                    lambda x: np.zeros_like(x),
                    (0.0, disc.x_max),
                    primal.grid.spacing,
                )
            )
        seconds.append(_time.perf_counter() - begin)
    return {
        mode: ConvergenceTable(
            levels=tuple(ladder),
            norms=tuple(norms[mode]),
            orders={
                key: tuple(convergence_orders([n[key] for n in norms[mode]])) for key in _NORM_KEYS
            },
            seconds=tuple(seconds),
        )
        for mode in modes
    }


def write_convergence_csv(table, path, header):
    """Dump ``J,N,l1,order_l1,l2,order_l2,linf,order_linf`` rows.

    The first level has no predecessor, its order cells hold nan.
    """

    rows = []
    for i, level in enumerate(table.levels):
        row = [level.cells, level.steps]
        for key in _NORM_KEYS:
            row += [table.norms[i][key], table.orders[key][i]]
        rows.append(row)
    columns = "J,N,l1,order_l1,l2,order_l2,linf,order_linf"
    csvout.write_csv(path, header, columns, csvout.table((int, int) + (float,) * 6, rows))
