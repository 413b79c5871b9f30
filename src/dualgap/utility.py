"""Utility functions, Lipschitz truncation, and convex conjugates.

The schemes need a terminal reward that is globally Lipschitz, which a
power utility is not: its slope blows up at zero.  ``lipschitz_truncate``
replaces it by the chord from 0 to a small cutoff x_rho = c0/rho, keeps
the original function up to rho, and freezes it beyond.  The truncated
function has slope at most L_rho = (U(x_rho) - U(0))/x_rho and its
conjugate sup_x {U(x) - x y} vanishes for y >= L_rho, is Lipschitz with
constant rho, and comes out in closed form for power bases.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


def _match_shape(out, template):
    """Return a float for scalar input, the array otherwise."""
    if np.ndim(template) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class UtilitySpec:
    """A scalar utility on [0, inf), with optional truncation geometry.

    ``evaluate`` and ``derivative`` accept floats or arrays.  The fields
    after ``derivative`` are populated for truncated specs: ``x_rho`` is
    the chord cutoff c0/rho and ``lipschitz`` the global slope bound.
    """

    kind: str
    evaluate: Callable
    derivative: Callable
    p: Optional[float] = None
    rho: Optional[float] = None
    x_rho: Optional[float] = None
    lipschitz: Optional[float] = None


@dataclass(frozen=True)
class ConjugateSpec:
    """The convex conjugate sup_x {U(x) - x y} of a truncated utility.

    ``evaluate`` vanishes from the chord slope on and is Lipschitz in y
    with constant ``lipschitz`` (the plateau abscissa of the primal side).
    """

    evaluate: Callable
    lipschitz: float


def power_utility(p):
    """U(x) = x^p / p on [0, inf), for p in (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"power exponent must lie in (0, 1), got {p}")

    def evaluate(x):
        arr = np.asarray(x, dtype=float)
        if np.any(arr < 0.0):
            raise ValueError("power utility is defined for x >= 0")
        return _match_shape(np.power(arr, p) / p, x)

    def derivative(x):
        arr = np.asarray(x, dtype=float)
        if np.any(arr < 0.0):
            raise ValueError("power utility is defined for x >= 0")
        with np.errstate(divide="ignore"):
            # infinite at 0, which is exactly why truncation exists
            out = np.power(arr, p - 1.0)
        return _match_shape(out, x)

    return UtilitySpec(kind="power", evaluate=evaluate, derivative=derivative, p=p)


def lipschitz_truncate(base, rho, c0):
    """Clamp ``base`` to a globally Lipschitz utility.

    Linear with the chord slope on [0, x_rho], unchanged on (x_rho, rho],
    constant at base(rho) beyond.  Requires x_rho = c0/rho < rho and a
    finite value at zero.
    """
    if rho <= 0.0 or c0 <= 0.0:
        raise ValueError(f"truncation needs rho > 0 and c0 > 0, got rho={rho}, c0={c0}")
    x_rho = c0 / rho
    if x_rho >= rho:
        raise ValueError(f"c0/rho = {x_rho} must fall below rho = {rho}")
    at_zero = float(base.evaluate(0.0))
    if not math.isfinite(at_zero):
        raise ValueError("base utility must be finite at 0")
    at_cut = float(base.evaluate(x_rho))
    at_plateau = float(base.evaluate(rho))
    slope = (at_cut - at_zero) / x_rho

    def evaluate(x):
        arr = np.asarray(x, dtype=float)
        inner = base.evaluate(np.clip(arr, x_rho, rho))
        out = np.where(
            arr <= x_rho,
            at_zero + slope * arr,
            np.where(arr <= rho, inner, at_plateau),
        )
        return _match_shape(out, x)

    def derivative(x):
        arr = np.asarray(x, dtype=float)
        inner = base.derivative(np.clip(arr, x_rho, rho))
        out = np.where(arr < x_rho, slope, np.where(arr < rho, inner, 0.0))
        return _match_shape(out, x)

    kind = "truncated-power" if base.kind == "power" else "custom"
    return UtilitySpec(
        kind=kind,
        evaluate=evaluate,
        derivative=derivative,
        p=base.p,
        rho=float(rho),
        x_rho=x_rho,
        lipschitz=slope,
    )


def conjugate_spec(spec):
    """Closed-form conjugate of a Lipschitz-truncated power utility.

    The supremum is attained at the chord kink, at the interior
    stationary point y^{1/(p-1)}, or at the plateau edge rho, depending
    on which slope band y falls into; the four bands below are exactly
    those cases.  Untruncated utilities are rejected, since without the
    truncation the conjugate is infinite near 0, and so are truncated
    bases other than a power.
    """
    if spec.lipschitz is None or spec.rho is None:
        raise ValueError("conjugate_spec needs a Lipschitz-truncated utility")
    if spec.kind != "truncated-power":
        raise ValueError(f"no closed-form conjugate for a {spec.kind} utility")
    p = spec.p
    rho = spec.rho
    x_rho = spec.x_rho
    slope = spec.lipschitz
    y_kink = x_rho ** (p - 1.0)  # marginal utility at the chord cutoff
    y_plateau = rho ** (p - 1.0)  # marginal utility at the plateau edge
    at_cut = x_rho**p / p
    at_plateau = rho**p / p

    def evaluate(y):
        arr = np.asarray(y, dtype=float)
        if np.any(arr < 0.0):
            raise ValueError("conjugate is defined for y >= 0")
        with np.errstate(divide="ignore", over="ignore"):
            interior = (1.0 / p - 1.0) * np.power(arr, -p / (1.0 - p))
        out = np.where(
            arr >= slope,
            0.0,
            np.where(
                arr >= y_kink,
                at_cut - x_rho * arr,
                np.where(arr > y_plateau, interior, at_plateau - rho * arr),
            ),
        )
        return _match_shape(out, y)

    return ConjugateSpec(evaluate=evaluate, lipschitz=rho)
