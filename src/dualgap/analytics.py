"""Refinement ladders, windowed error norms, and convergence tables.

One ladder level couples all meshes to the time step: N = 4 * 2^k time
steps, J = ceil(N^{11/8}) space cells, and 2^k + 1 control points per
interval.  On merton at k = 4..6 the window error is the interpolation
term, not the step's: halving J raises it 2.6-3.8 times, and doubling N
on the same J raises it too.

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
ERROR_WINDOW = (1.0, 2.0)


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
    nan at i = 0.  ``seconds`` holds wall-clock times per level; they
    are reported on stdout but kept out of the CSV so reruns stay
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


def in_window(xs, window):
    """Which of the nodes ``xs`` lie in the closed ``window``, up to 1e-12 at either end."""
    return (xs >= window[0] - 1.0e-12) & (xs <= window[1] + 1.0e-12)


def window_norms(xs, values, reference, window, spacing):
    """Discrete l1, l2, max norms of values - reference over a node window.

    ``reference`` is a callable of x.  The l1 and l2 norms carry the node
    spacing, so they approximate the continuous norms over the window.
    """
    xs = np.asarray(xs, dtype=float)
    values = np.asarray(values, dtype=float)
    if xs.shape != values.shape:
        raise ValueError("nodes and values must align")
    mask = in_window(xs, window)
    if not np.any(mask):
        raise ValueError(f"window [{window[0]}, {window[1]}] contains no grid nodes")
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


def levels(model, reward, ladder, conjugate=None):
    """Solve each ladder level once, yielding ``(disc, primal, dual, report)``.

    ``report`` is the duality gap at the initial time.  Without
    ``conjugate`` (the conjugate terminal reward) no dual surface is
    solved, and ``dual`` and ``report`` are None.
    """
    for disc in ladder:
        primal = solve(model, reward, disc, "primal")
        if conjugate is None:
            yield disc, primal, None, None
            continue
        dual = solve(model, conjugate, disc, "dual")
        yield disc, primal, dual, duality_gap(primal, dual, 0)


def run_ladder(solved, *, reference: Optional[Callable] = None):
    """Reduce solved levels, read one at a time, to one table per readout.

    With ``reference`` (the closed-form value as a callable of x) the
    "error" readout compares the primal surface at the initial time
    against it over the window [1, 2].  Levels that carry a gap report
    give the "gap" readout, measured against zero over the whole positive
    axis of the grid.  Returns ``{mode: ConvergenceTable}``, "error"
    first.  A level's ``seconds`` run from the end of the one before, so
    over ``levels(...)`` they hold its solve as well as its norms.
    """
    discs = []
    norms = {"error": [], "gap": []}
    stamps = [_time.perf_counter()]
    for disc, primal, dual, report in solved:
        readouts = {}
        if reference is not None:
            readouts["error"] = (primal.grid.nodes, primal.data[0], reference, ERROR_WINDOW)
        if report is not None:
            readouts["gap"] = (report.x, report.gap, np.zeros_like, (0.0, disc.x_max))
        if not readouts:
            raise ValueError(
                "a ladder needs a reference value function, a conjugate reward or both"
            )
        for mode, args in readouts.items():
            norms[mode].append(window_norms(*args, primal.grid.spacing))
        discs.append(disc)
        stamps.append(_time.perf_counter())
        # Hold nothing of this level while the next one is solved.
        del primal, dual, report, readouts, args
    seconds = tuple(end - begin for begin, end in zip(stamps, stamps[1:]))
    return {
        mode: ConvergenceTable(
            levels=tuple(discs),
            norms=tuple(rows),
            orders={key: tuple(convergence_orders([n[key] for n in rows])) for key in _NORM_KEYS},
            seconds=seconds,
        )
        for mode, rows in norms.items()
        if rows
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
