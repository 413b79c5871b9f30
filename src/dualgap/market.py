"""Market models: controlled wealth dynamics and their convex duals.

A model bundles the riskless rate r(t), the risky appreciation rate
b(t), the volatility sigma(t), and a concave drift penalty g(t, a)
encoding trading constraints (zero for the unconstrained case).  The
wealth fraction a invested in the risky asset lives in a bounded
interval containing 0, so the primal drift and volatility are

    x * (r + a (b - r) + g(t, a)),    x * a * sigma.

The dual state process runs against an auxiliary control gamma from a
second interval, with the penalty replaced by its concave conjugate in
the control argument and the drift reversed in sign:

    -y * (r + sup_a {g(t, a) - a gamma}),    y * (r - b - gamma) / sigma.

The product of the two chains driven by the same noise is then a
supermartingale up to O(h^2) per step, which is what makes the computed
duality gap meaningful.
"""

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .lattice import control_mesh
from .optim import golden_max

#: mesh resolutions for the coefficient-bound scans
_BOUND_A_STEP = 1.0e-4
_BOUND_TIME_SAMPLES = 65
_DUAL_BOUND_TIME_SAMPLES = 9

#: points of the a mesh the penalty conjugate scans and of the dual bounds' gamma mesh
_SCAN_MESH = 201


@dataclass(frozen=True)
class MarketModel:
    """Time-dependent coefficients and control intervals of one market."""

    name: str
    rate: Callable[[float], float]
    appreciation: Callable[[float], float]
    vol: Callable[[float], float]
    penalty: Callable  # penalty(t, a), vectorised in a
    a_interval: Tuple[float, float]
    gamma_interval: Tuple[float, float]
    horizon: float


@dataclass(frozen=True)
class CoefficientBounds:
    """Worst-case coefficient sizes feeding the error constants.

    ``drift`` bounds |r + a (b - r) + g| over controls and time,
    ``vol`` bounds |a sigma|.
    """

    drift: float
    vol: float


def penalty_conjugate(model, t, nu):
    """sup over admissible a of g(t, a) - a nu.

    Scans a fixed mesh over ``model.a_interval``, then polishes the
    winning bracket with a golden-section pass and keeps the larger of
    the two.  For a concave penalty (every bundled model) the result is
    exact up to the refinement tolerance; for a piecewise-linear one
    whose kinks are mesh points (both bundled models on their default
    intervals) the scan alone is exact.
    """
    mesh = control_mesh(model.a_interval, _SCAN_MESH)
    values = np.asarray(model.penalty(t, mesh), dtype=float) - mesh * nu
    best = int(np.argmax(values))
    lo = mesh[max(best - 1, 0)]
    hi = mesh[min(best + 1, mesh.size - 1)]
    refined, _ = golden_max(lambda a: float(model.penalty(t, a)) - a * nu, lo, hi)
    return max(float(values[best]), refined)


def merton_model(r=0.8, b=1.2, sigma=1.0, horizon=0.5, a_interval=(-1.0, 1.0)):
    """Unconstrained benchmark with constant coefficients and zero penalty.

    The dual control interval is degenerate at 0: with no constraint the
    conjugate penalty is finite only there.
    """
    lo, hi = a_interval
    if not lo <= 0.0 <= hi:
        raise ValueError(f"control interval must contain 0, got {a_interval}")
    if sigma <= 0.0:
        raise ValueError(f"volatility must be positive, got {sigma}")
    if horizon <= 0.0:
        raise ValueError(f"horizon must be positive, got {horizon}")

    def penalty(t, a):
        return np.zeros_like(np.asarray(a, dtype=float))

    return MarketModel(
        name="merton",
        rate=lambda t: r,
        appreciation=lambda t: b,
        vol=lambda t: sigma,
        penalty=penalty,
        a_interval=(float(lo), float(hi)),
        gamma_interval=(0.0, 0.0),
        horizon=float(horizon),
    )


def merton_optimal_fraction(p, r, b, sigma):
    """(b - r) / (sigma^2 (1 - p)), the constant optimal risky fraction."""
    if not p < 1.0:
        raise ValueError(f"power exponent must satisfy p < 1, got {p}")
    if sigma <= 0.0:
        raise ValueError(f"volatility must be positive, got {sigma}")
    return (b - r) / (sigma * sigma * (1.0 - p))


def merton_value(tau, x, p, r, b, sigma):
    """Closed-form value for the unconstrained power problem.

    ``tau`` is time to maturity.  With the constant optimal fraction
    a* = (b - r)/(sigma^2 (1 - p)) the wealth stays lognormal and

        v = exp(p (a* (b - r) + r - a*^2 (1 - p) sigma^2 / 2) tau) x^p / p.

    At tau = 0 this is the utility itself.
    """
    if tau < 0.0:
        raise ValueError(f"time to maturity must be nonnegative, got {tau}")
    frac = merton_optimal_fraction(p, r, b, sigma)
    growth = frac * (b - r) + r - 0.5 * frac * frac * (1.0 - p) * sigma * sigma
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("wealth must be nonnegative")
    out = math.exp(p * growth * tau) * np.power(arr, p) / p
    if np.ndim(x) == 0:
        return float(out)
    return out


def cuoco_liu_model(
    r=0.8,
    borrowing_rate=1.0,
    b=1.2,
    sigma=0.5,
    horizon=0.5,
    iota=0.5,
    lambda_plus=1.0,
    lambda_minus=1.0,
    gamma_interval=(-1.0, 1.0),
):
    """Margin-constrained market with a borrowing spread.

    Long positions are margined at rate lambda_plus, short ones at
    lambda_minus with a haircut iota on the shorted stock, and cash
    borrowed beyond wealth costs ``borrowing_rate`` instead of r.  The
    admissible fractions are those with total margin at most one, i.e.
    the interval [-1/lambda_minus, 1/lambda_plus], and the drift penalty

        g(a) = -r (1 + iota lambda_minus) max(0, -a)
               - (borrowing_rate - r) (1 - max(0, a) - iota lambda_minus max(0, -a))

    is piecewise linear and concave with g <= 0 on the admissible set.
    """
    if borrowing_rate < r:
        raise ValueError(f"borrowing rate {borrowing_rate} must be at least r = {r}")
    if lambda_plus <= 0.0 or lambda_minus <= 0.0:
        raise ValueError("margin rates must be positive, unbounded positions are unsupported")
    if iota < 0.0:
        raise ValueError(f"short haircut must be nonnegative, got {iota}")
    if sigma <= 0.0:
        raise ValueError(f"volatility must be positive, got {sigma}")
    if horizon <= 0.0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    spread = borrowing_rate - r
    short_rate = r * (1.0 + iota * lambda_minus)

    def penalty(t, a):
        arr = np.asarray(a, dtype=float)
        long_part = np.maximum(0.0, arr)
        short_part = np.maximum(0.0, -arr)
        return -short_rate * short_part - spread * (1.0 - long_part - iota * lambda_minus * short_part)

    return MarketModel(
        name="cuoco-liu",
        rate=lambda t: r,
        appreciation=lambda t: b,
        vol=lambda t: sigma,
        penalty=penalty,
        a_interval=(-1.0 / lambda_minus, 1.0 / lambda_plus),
        gamma_interval=(float(gamma_interval[0]), float(gamma_interval[1])),
        horizon=float(horizon),
    )


def _mesh(lo, hi, step):
    if hi == lo:
        return np.array([lo])
    count = max(int(math.ceil((hi - lo) / step)) + 1, 2)
    return np.linspace(lo, hi, count)


def coefficient_bounds(model):
    """Scan the primal coefficients for their worst-case sizes."""
    mesh = _mesh(*model.a_interval, _BOUND_A_STEP)
    times = np.linspace(0.0, model.horizon, _BOUND_TIME_SAMPLES)
    drift = 0.0
    vol = 0.0
    for t in times:
        r = model.rate(t)
        b = model.appreciation(t)
        sig = model.vol(t)
        if sig <= 0.0:
            raise ValueError(f"volatility must stay positive, got {sig} at t = {t}")
        candidates = np.abs(r + mesh * (b - r) + np.asarray(model.penalty(t, mesh), dtype=float))
        drift = max(drift, float(candidates.max()))
        vol = max(vol, float(np.abs(mesh * sig).max()))
    return CoefficientBounds(drift=drift, vol=vol)


def dual_coefficient_bounds(model):
    """Worst-case sizes of the dual drift and volatility coefficients.

    The conjugate penalty is convex in gamma, so the scan over a modest
    gamma mesh, which contains both endpoints, is reliable.  A reversed
    control interval raises ``ValueError``.
    """
    gammas = control_mesh(model.gamma_interval, _SCAN_MESH)
    times = np.linspace(0.0, model.horizon, _DUAL_BOUND_TIME_SAMPLES)
    drift = 0.0
    vol = 0.0
    for t in times:
        r = model.rate(t)
        b = model.appreciation(t)
        sig = model.vol(t)
        for gamma in gammas:
            conj = penalty_conjugate(model, t, float(gamma))
            drift = max(drift, abs(r + conj))
            vol = max(vol, abs((r - b - gamma) / sig))
    return CoefficientBounds(drift=drift, vol=vol)
