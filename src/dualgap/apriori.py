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

The allowance's tail sum has three parts per state: the barriers whose
term is clamped to one, counted in closed form; a short head of terms
summed pairwise by numpy; and the rest by Euler-Maclaurin, an erfc
integral plus P = 6 derivative corrections, from where the terms vary
on scales S0 = 8 barriers wide.  The clamp's end and the stop come from
closed forms settled by the terms next to them, so no per-state term
count is needed.  numpy's log and exp may differ from ``math``'s in the
last ulp, so the sum can differ from the exact sum of a per-term
``math`` loop's terms in the 16th significant digit.

The constants are crude by design: they are fully explicit, monotone in
the inputs, and meant to dominate the observed errors, not to hug them.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure
from .quadrature import double_factorial, moment_defect
from .utility import PowerUtility

#: summed tail terms below this are dropped
_TAIL_CUTOFF = 1.0e-16
#: most head terms one state may evaluate; heads run to a few hundred
_TAIL_MAX_TERMS = 10_000_000
#: states whose heads fit this many terms together share one evaluation; 64 KiB arrays stay
#: under glibc's 128 KiB mmap threshold, so the heap reuses them (2^14 read 0.1-0.3 MiB more RSS)
_TAIL_BLOCK = 2**13
#: barriers from here on are no longer exact floats
_BARRIER_LIMIT = 2.0**53
#: exp overflows past this
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
#: S0: Euler-Maclaurin starts where g varies on scales this many barriers wide
_EM_SPAN = 8.0
#: B_2 .. B_2P, P = 6: the Euler-Maclaurin corrections
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730)


def _stirling(n):
    """Signed Stirling numbers of the first kind s(n, 0..n)."""
    row = [1]
    for m in range(n):
        row = [(row[i - 1] if i else 0) - m * (row[i] if i <= m else 0) for i in range(m + 2)]
    return row


def _em_weights():
    """Entry i - 1: (2j - 1 - i, B_2j / (2j)! s(2j - 1, i)) for each j = 1..P with 2j - 1 >= i."""
    weights = [[] for _ in range(2 * len(_BERNOULLI) - 1)]
    for j, bernoulli in enumerate(_BERNOULLI, start=1):
        stirling = _stirling(2 * j - 1)
        for i in range(1, 2 * j):
            weights[i - 1].append((2 * j - 1 - i, bernoulli / math.factorial(2 * j) * stirling[i]))
    return weights


#: per Hermite order i, the (power of 1 / L, weight) pairs of the derivative corrections
_EM_WEIGHTS = _em_weights()


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
        k1, t = self.growth_rate, self.horizon
        return math.sqrt(3.0 + 9.0 * k1 * t * self.exp_growth(3.0, "defect envelope"))

    def exp_growth(self, factor, envelope):
        """exp(factor k1 T); an overflow raises NumericalFailure naming ``envelope``, k1 and T."""
        k1, t = self.growth_rate, self.horizon
        try:
            return math.exp(factor * k1 * t)
        except OverflowError as exc:
            where = f"exp({factor:g} k1 T) overflows at k1 = {k1:.6g}, T = {t:g}"
            raise NumericalFailure(f"{envelope}: {where}") from exc


def constant_set(bounds, horizon):
    """ConstantSet from CoefficientBounds."""
    if horizon <= 0.0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    return ConstantSet(drift_bound=bounds.drift, vol_bound=bounds.vol, horizon=float(horizon))


def em_bound(step, x, lipschitz, constants):
    """Lipschitz-weighted distance between the chain and its diffusion.

    Order sqrt(step), with the quadratic dependence on the start state
    kept explicit.  Past the float range it raises NumericalFailure.
    """
    if step <= 0.0:
        raise ValueError(f"step must be positive, got {step}")
    k1, t = constants.growth_rate, constants.horizon
    growth = constants.exp_growth(4.0, "em_bound envelope")
    body = 24.0 * k1 * t * constants.vol_bound**2 * x * x * (1.0 + 4.0 * k1 * t * growth)
    bound = lipschitz * math.sqrt(body) * math.sqrt(step)
    if not math.isfinite(bound):
        where = f"its product overflows at k1 = {k1:.6g}, T = {t:g}"
        raise NumericalFailure(f"em_bound envelope: {where}")
    return bound


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


def _tail_rate(constants):
    """k = 3 / (8 c_psi^2 T); past the float range it raises NumericalFailure naming T and c_psi."""
    spread = 8.0 * constants.vol_bound**2 * constants.horizon
    k = 3.0 / spread if spread > 0.0 else math.inf
    if not math.isfinite(k):
        raise NumericalFailure(
            f"truncation allowance: k = 3 / (8 c_psi^2 T) is {k} "
            f"at T = {constants.horizon}, c_psi = {constants.vol_bound}"
        )
    return k


def _tail_terms(states, lows, widths, constants):
    """Tail terms of barriers lows[i] .. lows[i] + widths[i] - 1, state after state in one array."""
    ends = np.cumsum(widths)
    levels = np.repeat(lows - (ends - widths), widths) + np.arange(ends[-1])
    # the levels are a temporary, freed before the terms are allocated
    ratios = np.divide(levels, np.repeat(states, widths))
    del levels
    bounds = (constants.drift_bound, constants.vol_bound, constants.horizon)
    return _gaussian_tail_weight(np.log(ratios, out=ratios), *bounds)


def _refuse(states, bad, message):
    """Raise NumericalFailure for the first state flagged in ``bad``, if any."""
    if np.any(bad):
        i = int(np.argmax(bad))
        raise NumericalFailure(f"tail sum from state {states[i]} {message(i)}")


def _crossing_levels(states, threshold, k, constants):
    """The level L past which a state's terms are below ``threshold``, in closed form.

    A term falls below ``threshold`` once log(L / x) - c_mu T exceeds
    sqrt(ln(2 / threshold) / k).
    """
    shift = constants.drift_bound * constants.horizon
    return states * math.exp(shift + math.sqrt(math.log(2.0 / threshold) / k))


def _crossings(states, first, threshold, k, constants):
    """Per state, the first barrier from ``first`` up whose term is below ``threshold``.

    The closed form is the first integer past ``_crossing_levels``.
    Rounding can move it, so it is settled by the terms of the barriers
    around it: two either side, plus one per 2^44 of level.  A level
    from 2^53 on, where barriers are no longer exact floats, raises
    NumericalFailure, and so does a crossing outside the settled window.
    """
    levels = _crossing_levels(states, threshold, k, constants)
    _refuse(states, ~(levels < _BARRIER_LIMIT), lambda i: (
        f"runs to barrier {levels[i]:.6g}, past 2**53, where barriers are no longer exact floats"
    ))
    margin = 2 + int(levels.max(initial=0.0) * 2.0**-44)
    width = 2 * margin + 1
    lows = np.maximum(levels.astype(np.int64) + 1 - margin, first)
    crossings = np.empty_like(lows)
    rows = max(1, _TAIL_BLOCK // width)
    for start in range(0, states.size, rows):
        block = slice(start, start + rows)
        low = lows[block]
        terms = _tail_terms(states[block], low, np.full(low.size, width), constants)
        below = (terms < threshold).reshape(low.size, width)
        _refuse(states[block], ~below[:, -1], lambda i: (
            f"still at or above {threshold} at barrier {low[i] + width - 1}"
        ))
        _refuse(states[block], below[:, 0] & (low > first), lambda i: (
            f"already below {threshold} at barrier {low[i]}"
        ))
        crossings[block] = low + np.argmax(below, axis=1)
    return crossings


def _head_ends(states, starts, stops, k, constants):
    """Per state, the barrier a from which its tail goes to Euler-Maclaurin.

    The remainder is negligible once every barrier L from a to the stop
    has L >= S0 (2 k m(L) + sqrt(4 k P)), m(L) = log(L / x) - c_mu T:
    g then varies on scales S0 times a barrier.  The excess L - S0 (...)
    is convex in L, so if the last barrier's is nonnegative, four
    fixed-point steps L <- max(start, S0 (...)) from it stay where it
    is nonnegative up to the stop.  Otherwise the head runs to the stop.
    Every state must have a term past its clamp (start < stop).
    """
    shift = constants.drift_bound * constants.horizon
    reach = 2.0 * k * _EM_SPAN
    floor = _EM_SPAN * math.sqrt(4.0 * k * len(_BERNOULLI))

    def span(levels):
        return reach * (np.log(levels / states) - shift) + floor

    lasts = (stops - 1).astype(float)
    levels = lasts
    for _ in range(4):
        levels = np.maximum(starts, span(levels))
    # levels stays below lasts where it is kept; the bound keeps the cast in range elsewhere
    ends = np.ceil(np.minimum(levels, lasts)).astype(np.int64)
    return np.where(span(lasts) <= lasts, ends, stops)


def _em_tails(states, starts, lasts, k, constants):
    """Per state, sum_{L=a}^{b} g(L) by Euler-Maclaurin, g(L) = 2 exp(-k m(L)^2).

    With m(L) = log(L / x) - c_mu T and z = sqrt(k) m: the integral of g
    is sqrt(pi / k) x e^{c_mu T + 1/(4k)} erfc(z - 1/(2 sqrt k)) between
    the ends, and g^(n)(L) = L^-n sum_i s(n, i) (-sqrt k)^i H_i(z) g(L).
    """
    root = math.sqrt(k)
    n = states.size
    shift = constants.drift_bound * constants.horizon
    levels = np.concatenate([starts, lasts]).astype(float)
    z = root * (np.log(levels / np.concatenate([states, states])) - shift)
    g = 2.0 * np.exp(-(z * z))
    w = (z - 0.5 / root).tolist()
    # erfc of the larger magnitudes, so the difference never cancels
    areas = [
        math.erfc(a) - math.erfc(b) if b > 0.0 else math.erfc(-b) - math.erfc(-a)
        for a, b in zip(w[:n], w[n:])
    ]
    scale = math.exp(_integral_log_scale(k, constants))
    # g^(2j-1) weighted by B_2j / (2j)!, summed over j: the sum over i of
    # (-sqrt k / L)^i H_i(z) g times that of B_2j / (2j)! s(2j - 1, i) L^-(2j-1-i)
    inverse = 1.0 / levels
    powers = [np.ones_like(z)]
    for _ in range(2 * len(_BERNOULLI) - 2):
        powers.append(powers[-1] * inverse)
    ratio = -root * inverse
    slopes = np.zeros_like(z)
    previous, hermite = np.ones_like(z), 2.0 * z * ratio
    for i, row in enumerate(_EM_WEIGHTS, start=1):
        slopes += hermite * sum(weight * powers[e] for e, weight in row)
        previous, hermite = hermite, ratio * (2.0 * z * hermite - 2.0 * i * ratio * previous)
    slopes *= g
    return scale * states * np.array(areas) + 0.5 * (g[:n] + g[n:]) + (slopes[n:] - slopes[:n])


def _integral_log_scale(k, constants):
    """log of sqrt(pi / k) e^{c_mu T + 1/(4k)}, the factor of the tail integral."""
    return constants.drift_bound * constants.horizon + 0.25 / k + 0.5 * math.log(math.pi / k)


def _tail_sums(states, rho, constants):
    """Per state, the sum of its tail weights from barrier floor(rho) up and their count.

    ``states`` is a float array.  A state's terms end before its stop,
    its first barrier whose term is below ``_TAIL_CUTOFF``.  Terms
    clamped to one are counted, those before the Euler-Maclaurin start
    of ``_head_ends`` are summed, and the rest go to ``_em_tails``.
    Every state's head width is checked against ``_TAIL_MAX_TERMS``
    before any head is evaluated.  Consecutive states whose heads fit
    ``_TAIL_BLOCK`` terms together share one evaluation.
    """
    first = max(math.floor(rho), 1)
    k = _tail_rate(constants)
    stops = _crossings(states, first, _TAIL_CUTOFF, k, constants)
    starts = _crossings(states, first, 1.0, k, constants)
    # past exp's range the integral's factor overflows, so the heads run to the stops
    live = (starts < stops) & (_integral_log_scale(k, constants) < _LOG_FLOAT_MAX)
    ends = stops.copy()
    ends[live] = _head_ends(states[live], starts[live], stops[live], k, constants)
    widths = ends - starts
    _refuse(states, widths > _TAIL_MAX_TERMS, lambda i: (
        f"needs {widths[i]} head terms, more than {_TAIL_MAX_TERMS}"
    ))
    sums = np.zeros(states.size)
    totals, start = np.cumsum(widths), 0
    while start < states.size:
        limit = totals[start] - widths[start] + _TAIL_BLOCK
        stop = max(start + 1, int(np.searchsorted(totals, limit, side="right")))
        block = slice(start, stop)
        sums[block] = _head_block(states[block], starts[block], widths[block], constants)
        start = stop
    em = ends < stops
    if np.any(em):
        sums[em] += _em_tails(states[em], ends[em], stops[em] - 1, k, constants)
    return (starts - first) + sums, stops - first


def _head_block(states, starts, widths, constants):
    """Head sums of ``states``, from one evaluation of all their terms.

    Each state's terms are added over their own stretch, so a state's
    sum is the same in any block.
    """
    terms = _tail_terms(states, starts, widths, constants)
    ends = np.cumsum(widths).tolist()
    # pairwise, so the rounding grows like log(count), not like count
    return [np.add.reduce(terms[end - width : end]) for end, width in zip(ends, widths.tolist())]


def truncation_allowance(x, utility, rho, c0, constants):
    """What restricting the domain to [0, rho] can cost at state x.

    ``x`` is one state or a 1-D array of states; the result is a float
    or an array of the same length.  Small-wealth part: the utility at
    the scaled-down cutoff times the weight of falling under it,
    min(1, 2 exp(-(3 / (8 c_psi^2 T)) (log(rho / (c0 x)) - c_mu T)^2)).
    Large-wealth part: the marginal utility at rho times the summed
    tail over integer barriers from floor(rho) up, truncated before the
    first term under 1e-16.  ``utility`` is the untruncated power base
    (``power_utility``); anything else, a ``TruncatedUtility`` included,
    raises ValueError, since the truncated reward's zero slope at rho
    would drop the large-wealth part and understate the allowance.

    Each state's tail has three parts.  The barriers whose term is
    clamped to one, up to x e^{c_mu T + sqrt(ln 2 / k)} with
    k = 3 / (8 c_psi^2 T), are counted.  A head of terms is evaluated by
    numpy and added pairwise by ``np.add.reduce``, up to a barrier a from
    which every barrier L has L >= S0 (2 k m(L) + sqrt(4 k P)), with
    m(L) = log(L / x) - c_mu T, S0 = 8 and P = 6.  The rest, up to the
    stop, is Euler-Maclaurin's: the integral of
    g(L) = 2 exp(-k m(L)^2) by ``math.erfc``, half of g at both ends and
    P derivative corrections.  The clamp's end and the stop come from
    closed forms, each settled by the terms next to it, so both are a
    per-term loop's.  There is no per-state term count: heads run to a
    few hundred terms (724 at most over k from 0.1 to 4e11), and on the
    nodes of the bundled configs' gap levels (merton k=3, cuoco-liu k=4)
    about 1,900 and 39,000 of the 2.56M and 186K terms are evaluated.
    There the tail sums lie within 6e-16 relative of ``math.fsum`` over
    the loop's terms.  Consecutive states whose heads fit ``_TAIL_BLOCK``
    terms together are evaluated in one pass, a longer head alone.  Where
    the integral's factor sqrt(pi / k) e^{c_mu T + 1/(4k)} is past the
    float range (k below about 3.5e-4), every head runs to its stop.  A
    head longer than ``_TAIL_MAX_TERMS`` raises NumericalFailure before
    any head is evaluated, as does a stop from 2^53 on, where barriers
    are no longer exact floats, or a k past the float range (a horizon
    of 1e-320, say), naming T, c_psi and k.  A non-finite x, rho or c0
    raises ValueError naming it.
    """
    states = np.asarray(x, dtype=float)
    if states.ndim > 1:
        raise ValueError(f"states must be a scalar or a 1-D array, got shape {states.shape}")
    nodes = np.atleast_1d(states)
    valid = (nodes > 0.0) & np.isfinite(nodes)
    if not np.all(valid):
        i = int(np.argmin(valid))
        raise ValueError(f"state must be positive and finite, got x = {nodes[i]} at index {i}")
    for name, value in (("rho", rho), ("c0", c0)):
        if not math.isfinite(value):
            raise ValueError(f"tail weights need finite rho and c0, got {name} = {value}")
    if rho <= 0.0 or c0 <= 0.0:
        raise ValueError("tail weights need positive x, rho, c0")
    if not isinstance(utility, PowerUtility):
        raise ValueError(f"the allowance needs the power base, got {type(utility).__name__}")
    if constants.vol_bound <= 0.0 or constants.horizon <= 0.0:
        raise ValueError("tail weights need positive volatility bound and horizon")
    tails = _tail_sums(nodes, rho, constants)[0]
    # math's log, not numpy's, which may differ in the last ulp
    log_ratios = np.array([math.log(rho / (c0 * s)) for s in nodes.tolist()])
    bounds = (constants.drift_bound, constants.vol_bound, constants.horizon)
    lower = _gaussian_tail_weight(log_ratios, *bounds)
    total = float(utility.evaluate(c0 / rho)) * lower
    total += float(utility.derivative(rho)) * tails
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

