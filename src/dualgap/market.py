"""Market models: controlled wealth dynamics and their convex duals.

A model is plain data: a constant riskless rate r, risky appreciation
rate b and volatility sigma, and a piecewise-linear drift penalty g(a)
encoding trading constraints (zero for the unconstrained case), whose
kinks may be concave or convex.  The wealth fraction a invested in the
risky asset lives in a bounded interval containing 0, so the primal
drift and volatility are

    x * (r + a (b - r) + g(a)),    x * a * sigma.

The dual state process runs against an auxiliary control gamma from a
second interval, with the penalty replaced by its conjugate
sup_a {g(a) - a gamma}, convex in gamma, and the drift reversed in sign:

    -y * (r + sup_a {g(a) - a gamma}),    y * (r - b - gamma) / sigma.

The product of the two chains driven by the same noise is then a
supermartingale up to O(h^2) per step, which is what makes the computed
duality gap meaningful.

A model stores its penalty as data: its values at the vertices (the
interval ends and the kinks between them), linear in between, so no
non-linear segment can be built.  g(a) - a gamma is then linear between
vertices too, so its supremum is attained at a vertex, and the conjugate
is one maximum over the vertices: exact, and vectorised in gamma.  The
coefficient sizes are exact too, evaluated only where they can peak.
"""

import itertools
import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .optim import golden_max  # noqa: F401  kept: the benchmark tests this traced binding


@dataclass(frozen=True)
class MarketModel:
    """Constant coefficients, drift penalty and control intervals of one market."""

    name: str
    rate: float
    appreciation: float
    vol: float
    vertices: Tuple[float, ...]  # strictly ascending, the control interval's ends outermost
    values: Tuple[float, ...]  # the penalty at each vertex, linear in between
    gamma_interval: Tuple[float, float]
    horizon: float

    def __post_init__(self):
        if self.vol <= 0.0:
            raise ValueError(f"volatility must be positive, got {self.vol}")
        if self.horizon <= 0.0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if not self.vertices or len(self.values) != len(self.vertices):
            raise ValueError(f"need one value per vertex, got {self.values} at {self.vertices}")
        if any(left >= right for left, right in zip(self.vertices, self.vertices[1:])):
            raise ValueError(f"vertices {self.vertices} must ascend strictly")
        lo, hi = self.gamma_interval
        if lo > hi:
            raise ValueError(f"empty control interval [{lo}, {hi}]")

    @property
    def a_interval(self):
        """The control interval: the first and last vertex."""
        return (self.vertices[0], self.vertices[-1])

    def penalty(self, a):
        """g(a), vectorised in a: the linear interpolant of the vertex values."""
        return np.interp(a, self.vertices, self.values)


@dataclass(frozen=True)
class CoefficientBounds:
    """Worst-case coefficient sizes feeding the error constants.

    ``drift`` is the largest |r + a (b - r) + g| over the controls,
    ``vol`` the largest |a sigma|, or the dual coefficients' over gamma.
    """

    drift: float
    vol: float


def penalty_conjugate(model, nu):
    """sup over admissible a of g(a) - a nu, for a scalar or an array ``nu``.

    The model's penalty is linear between its vertices, so g(a) - a nu is
    too and the supremum is the largest g(v) - v nu over the vertices: exact,
    with no search.  A scalar ``nu`` gives a float, an array the nested
    list of floats that ``ndarray.tolist`` makes.  A list prints on one
    line, and the benchmark's trace file keeps one printed return value
    per line.
    """
    vertices = np.array(model.vertices)
    nu = np.asarray(nu, dtype=float)[..., None]
    best = (np.array(model.values) - vertices * nu).max(axis=-1)
    return best.tolist()


def merton_model(
    r=0.8, b=1.2, sigma=1.0, horizon=0.5, a_interval=(-1.0, 1.0), gamma_interval=(0.0, 0.0)
):
    """Unconstrained benchmark with constant coefficients and zero penalty.

    The dual control interval defaults to the degenerate one at 0: with
    no constraint the conjugate penalty is finite only there.
    """
    lo, hi = float(a_interval[0]), float(a_interval[1])
    if not lo <= 0.0 <= hi:
        raise ValueError(f"control interval must contain 0, got {a_interval}")
    vertices = (lo,) if lo == hi else (lo, hi)
    return MarketModel(
        name="merton",
        rate=float(r),
        appreciation=float(b),
        vol=float(sigma),
        vertices=vertices,
        values=(0.0,) * len(vertices),
        gamma_interval=(float(gamma_interval[0]), float(gamma_interval[1])),
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
    lambda_minus with a haircut iota on the shorted stock.  The
    admissible fractions are those with total margin at most one, i.e.
    the interval [-1/lambda_minus, 1/lambda_plus], and the drift penalty

        g(a) = -r (1 + iota lambda_minus) max(0, -a)
               - (borrowing_rate - r) (1 - max(0, a) - iota lambda_minus max(0, -a))

    is piecewise linear with one kink at a = 0; the model stores its values
    at the vertices -1/lambda_minus, 0 and 1/lambda_plus.  The spread
    borrowing_rate - r is charged on 1 - a^+ - iota lambda_minus a^-
    whatever its sign, so g(0) = -(borrowing_rate - r) although the
    position a = 0 borrows nothing, and g <= 0 on the admissible set
    wherever that amount is nonnegative, as it is for lambda_plus >= 1
    and iota <= 1.  The formula is kept as it is because the benchmark's
    frozen reference outputs (``perfbench/reference.json``) depend on it.
    It is concave exactly when borrowing_rate <= 2 r; a larger spread
    makes the kink convex, which the vertex conjugate handles as well.
    """
    if borrowing_rate < r:
        raise ValueError(f"borrowing rate {borrowing_rate} must be at least r = {r}")
    if lambda_plus <= 0.0 or lambda_minus <= 0.0:
        raise ValueError("margin rates must be positive, unbounded positions are unsupported")
    if iota < 0.0:
        raise ValueError(f"short haircut must be nonnegative, got {iota}")
    spread = borrowing_rate - r
    short_rate = r * (1.0 + iota * lambda_minus)
    vertices = np.array((-1.0 / lambda_minus, 0.0, 1.0 / lambda_plus))
    long_part, short_part = np.maximum(0.0, vertices), np.maximum(0.0, -vertices)
    values = -short_rate * short_part - spread * (1.0 - long_part - iota * lambda_minus * short_part)
    return MarketModel(
        name="cuoco-liu",
        rate=float(r),
        appreciation=float(b),
        vol=float(sigma),
        vertices=tuple(vertices.tolist()),
        values=tuple(values.tolist()),
        gamma_interval=(float(gamma_interval[0]), float(gamma_interval[1])),
        horizon=float(horizon),
    )


def coefficient_bounds(model):
    """Worst-case sizes of the primal drift and volatility coefficients.

    Both are linear in a between the penalty's vertices, so their largest
    absolute values are attained at a vertex: exact, with no scan.
    """
    vertices = np.array(model.vertices)
    r, b = model.rate, model.appreciation
    drift = np.abs(r + vertices * (b - r) + np.array(model.values))
    vol = np.abs(vertices * model.vol)
    return CoefficientBounds(drift=float(drift.max()), vol=float(vol.max()))


def dual_coefficient_bounds(model):
    """Worst-case sizes of the dual drift and volatility coefficients.

    The volatility is linear in gamma, so it peaks at an end of the gamma
    interval.  r + conj(gamma) is convex and piecewise linear, kinked at
    pairwise slopes of the penalty's vertices: largest at an end, smallest
    at an end or at such a slope.  One conjugate call over those gammas
    is exact.
    """
    lo, hi = model.gamma_interval
    pairs = itertools.combinations(zip(model.vertices, model.values), 2)
    slopes = [(g1 - g2) / (v1 - v2) for (v1, g1), (v2, g2) in pairs]
    gammas = np.array([lo, hi, *(slope for slope in slopes if lo < slope < hi)])
    conj = np.asarray(penalty_conjugate(model, gammas))
    r, b = model.rate, model.appreciation
    drift = np.abs(r + conj)
    vol = np.abs((r - b - gammas) / model.vol)
    return CoefficientBounds(drift=float(drift.max()), vol=float(vol.max()))
