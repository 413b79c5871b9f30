"""Worst-case error envelopes from coefficient bounds alone.

Everything here is an explicit function of the coefficient sizes
(c_mu, c_psi), the horizon, and the quadrature order; no solve is
needed.  Three ingredients:

  * a chain-versus-diffusion envelope, order sqrt(h), from the Euler
    displacement (``em_bound``),
  * a Gaussian-replacement envelope, order h^((M-1)/2M), from the first
    quadrature moment the rule misses (``gh_bound``),
  * a truncation allowance from large-deviation tail weights, bounding
    what restricting the domain to [0, rho] can cost (``truncation_allowance``).

The allowance's tail sum is one numpy pass per state, up to a
closed-form last barrier.  numpy's log and exp may differ from
``math``'s in the last ulp, so it can differ from a per-term ``math``
loop in the 16th significant digit.

The constants are crude by design: they are fully explicit, monotone in
the inputs, and meant to dominate the observed errors, not to hug them.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimit
from .quadrature import double_factorial, moment_defect
from .utility import TruncatedUtility

#: summed tail terms below this are dropped
_TAIL_CUTOFF = 1.0e-16
_TAIL_MAX_TERMS = 10_000_000


@dataclass(frozen=True)
class ConstantSet:
    """Coefficient sizes plus the derived constants of the error analysis.

    ``drift_bound`` and ``vol_bound`` are the sups of the drift and
    volatility coefficients (per unit state); the properties below are
    the explicit constants built from them.
    """

    drift_bound: float
    vol_bound: float
    horizon: float

    @property
    def growth_rate(self):
        """c_mu^2 T + c_psi^2, the exponential rate of second moments."""
        return self.drift_bound**2 * self.horizon + self.vol_bound**2

    @property
    def defect_envelope(self):
        """sqrt(3 + 9 k1 T e^{3 k1 T}), carrying one-step defects to the horizon."""
        k1 = self.growth_rate
        return math.sqrt(3.0 + 9.0 * k1 * self.horizon * math.exp(3.0 * k1 * self.horizon))


def constant_set(bounds, horizon):
    """ConstantSet from CoefficientBounds."""
    if horizon <= 0.0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    return ConstantSet(drift_bound=bounds.drift, vol_bound=bounds.vol, horizon=float(horizon))


def em_bound(step, x, lipschitz, constants):
    """Lipschitz-weighted distance between the chain and its diffusion.

    Order sqrt(step), with the quadratic dependence on the start state
    kept explicit.
    """
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step}")
    k1 = constants.growth_rate
    t = constants.horizon
    body = (
        24.0
        * k1
        * t
        * constants.vol_bound**2
        * x
        * x
        * (1.0 + 4.0 * k1 * t * math.exp(4.0 * k1 * t))
    )
    return lipschitz * math.sqrt(body) * math.sqrt(step)


def gh_bound(step, x, rule, lipschitz, constants):
    """One-step Gaussian-replacement error accumulated over the horizon.

    The rule is exact through degree 2M - 1, so the defect starts at the
    2M-th moment of the branch factors; collecting powers of sqrt(step)
    leaves order step^((M-1)/2M) with the coefficient below and the
    polynomial growth 1 + x^{2M} of the bounded-moment regime.
    """
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step}")
    m = rule.order
    two_m = 2 * m
    moment = float(double_factorial(two_m - 1)) + moment_defect(rule)
    coeff = (2.0 ** (two_m - 1) / math.factorial(two_m)) * constants.vol_bound**two_m * moment
    growth = 1.0 + x**two_m
    return (
        lipschitz
        * constants.defect_envelope
        * step ** ((m - 1.0) / (2.0 * m))
        * coeff
        * growth
    )


def _gaussian_tail_weight(log_ratio, drift_bound, vol_bound, horizon):
    # Large-deviation shape: the bound is informative only once the
    # barrier clears the drifted mean, below that it clamps to one.
    # Takes a float array of log level ratios and overwrites it.
    margin = log_ratio
    margin -= drift_bound * horizon
    np.maximum(margin, 0.0, out=margin)
    weight = -(3.0 / (8.0 * vol_bound**2 * horizon)) * margin
    weight *= margin
    np.exp(weight, out=weight)
    weight *= 2.0
    return np.minimum(weight, 1.0, out=weight)


def _barriers(x, rho, constants):
    """First and last integer barrier of the tail sum from state x.

    The first is floor(rho) (at least 1).  A term falls below
    ``_TAIL_CUTOFF`` once log(L / x) - c_mu T exceeds sqrt(ln(2 / cutoff) / k)
    with k = 3 / (8 c_psi^2 T), so the last is the ceiling of that L plus
    a margin of two for rounding, and never below the first.  It is a
    float, inf when x is too large for the level to be represented.
    """
    first = max(math.floor(rho), 1)
    k = 3.0 / (8.0 * constants.vol_bound**2 * constants.horizon)
    reach = constants.drift_bound * constants.horizon + math.sqrt(math.log(2.0 / _TAIL_CUTOFF) / k)
    level = x * math.exp(reach)
    last = math.ceil(level) + 2.0 if math.isfinite(level) else math.inf
    return first, max(last, first)


def _tail_sum(x, rho, constants):
    """Tail weights from barrier floor(rho) up, before the first under the cutoff."""
    first, last = _barriers(x, rho, constants)
    if last - first + 1 > _TAIL_MAX_TERMS:
        raise ResourceLimit(
            f"tail sum from state {x} needs {last - first + 1:.6g} terms "
            f"to fall below {_TAIL_CUTOFF}, more than {_TAIL_MAX_TERMS}"
        )
    levels = np.arange(first, int(last) + 1, dtype=float)
    np.divide(levels, x, out=levels)
    terms = _gaussian_tail_weight(
        np.log(levels, out=levels), constants.drift_bound, constants.vol_bound, constants.horizon
    )
    below = terms < _TAIL_CUTOFF
    if not below.any():
        raise ResourceLimit(
            f"tail sum from state {x} still above {_TAIL_CUTOFF} at barrier {int(last)}"
        )
    cut = int(below.argmax())
    # cumsum adds in barrier order, as a loop would; np.sum adds pairwise.
    # The spent log ratios' buffer takes the partial sums.
    return float(np.cumsum(terms[:cut], out=levels[:cut])[-1]) if cut else 0.0


def truncation_allowance(x, utility, rho, c0, constants):
    """What restricting the domain to [0, rho] can cost at state x.

    ``x`` is one state or a 1-D array of states; the result is a float
    or an array of the same length.  Small-wealth part: the utility at
    the scaled-down cutoff times the weight of falling under it,
    min(1, 2 exp(-(3 / (8 c_psi^2 T)) (log(rho / (c0 x)) - c_mu T)^2)).
    Large-wealth part: the marginal utility at rho times the summed
    tail over integer barriers from floor(rho) up, truncated before the
    first term under 1e-16.  ``utility`` is the power base or its
    truncation by ``lipschitz_truncate``; both are valid, and the
    truncated reward's zero slope at rho kills the second part.  A
    truncated reward must carry the ``rho`` and ``c0`` passed beside it.

    Each state's tail terms are one numpy evaluation up to the
    closed-form last barrier of ``_barriers``, cut where a per-term
    loop would stop and added in barrier order with ``np.cumsum``; only
    one state's terms are held at a time.  A state whose closed-form
    count exceeds ``_TAIL_MAX_TERMS`` raises ResourceLimit before its
    terms are allocated, as does a tail that never falls below the
    cutoff: a partial sum would understate the allowance.
    """
    states = np.asarray(x, dtype=float)
    if states.ndim > 1:
        raise ValueError(f"states must be a scalar or a 1-D array, got shape {states.shape}")
    nodes = np.atleast_1d(states)
    if not np.all(nodes > 0.0):
        i = int(np.argmin(nodes > 0.0))
        raise ValueError(f"state must be positive, got {nodes[i]} at index {i}")
    if rho <= 0.0 or c0 <= 0.0:
        raise ValueError("tail weights need positive x, rho, c0")
    if isinstance(utility, TruncatedUtility) and (utility.rho, utility.c0) != (rho, c0):
        raise ValueError(
            f"rho={rho}, c0={c0} differ from the truncated reward's "
            f"rho={utility.rho}, c0={utility.c0}"
        )
    if constants.vol_bound <= 0.0 or constants.horizon <= 0.0:
        raise ValueError("tail weights need positive volatility bound and horizon")
    # math's log, not numpy's, which may differ in the last ulp
    log_ratios = np.array([math.log(rho / (c0 * s)) for s in nodes.tolist()])
    bounds = (constants.drift_bound, constants.vol_bound, constants.horizon)
    lower = _gaussian_tail_weight(log_ratios, *bounds)
    total = float(utility.evaluate(c0 / rho)) * lower
    slope = float(utility.derivative(rho))
    if slope > 0.0:
        total += slope * np.array([_tail_sum(s, rho, constants) for s in nodes.tolist()])
    return float(total[0]) if states.ndim == 0 else total


def envelope_constants(primal_constants, dual_constants, rule):
    """Per-unit-growth coefficients for the two-sided gap bounds.

    For each side: the chain envelope coefficient (``em_bound`` at unit
    state, step and Lipschitz constant), plus the quadrature replacement
    coefficient (``gh_bound`` at unit step and state 0, where its growth
    factor is one), plus one unit covering space interpolation.  The
    caller applies the growth factor 1 + s^{2M} and the rate
    step^((M-1)/2M) + spacing/step, which both dominate the per-state
    forms of ``em_bound`` and ``gh_bound`` for steps below one.
    """

    def per_side(c):
        return em_bound(1.0, 1.0, 1.0, c) + gh_bound(1.0, 0.0, rule, 1.0, c) + 1.0

    return per_side(primal_constants), per_side(dual_constants)

