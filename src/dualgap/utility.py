"""Utility functions, Lipschitz truncation, and convex conjugates.

The schemes need a terminal reward that is globally Lipschitz, which a
power utility is not: its slope blows up at zero.  ``lipschitz_truncate``
replaces it by the chord from 0 to a small cutoff x_rho = c0/rho, keeps
the original function up to rho, and freezes it beyond.  The truncated
function has slope at most L_rho = U(x_rho)/x_rho and its conjugate
sup_x {U(x) - x y} vanishes for y >= L_rho, is Lipschitz with constant
rho, and comes out in closed form.

Each object holds only its numbers (a power utility p; a truncation its
base, rho and c0; a conjugate its reward) and derives the rest.  Every
``evaluate``, and the power utility's ``derivative``, returns a float
for a scalar input.
"""

import math
from dataclasses import dataclass

import numpy as np


def _match_shape(out, template):
    """Return a float for scalar input, the array otherwise."""
    return float(out) if np.ndim(template) == 0 else out


def _nonnegative(values, message):
    arr = np.asarray(values, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError(message)
    return arr


@dataclass(frozen=True)
class PowerUtility:
    """U(x) = x^p / p on [0, inf), for p in (0, 1); U(0) = 0."""

    p: float

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"power exponent must lie in (0, 1), got {self.p}")

    def evaluate(self, x):
        arr = _nonnegative(x, "power utility is defined for x >= 0")
        return _match_shape(np.power(arr, self.p) / self.p, x)

    def derivative(self, x):
        arr = _nonnegative(x, "power utility is defined for x >= 0")
        with np.errstate(divide="ignore"):
            # infinite at 0, which is exactly why truncation exists
            out = np.power(arr, self.p - 1.0)
        return _match_shape(out, x)


@dataclass(frozen=True)
class TruncatedUtility:
    """A power utility clamped to a globally Lipschitz one.

    The chord of slope ``lipschitz`` on [0, x_rho], the base on (x_rho, rho],
    base(rho) beyond.  Needs finite rho > 0, c0 > 0 and x_rho = c0/rho < rho.
    """

    base: PowerUtility
    rho: float
    c0: float

    def __post_init__(self):
        if not isinstance(self.base, PowerUtility):
            raise ValueError(f"only a power utility can be truncated, got {self.base!r}")
        # written so that a NaN fails as well
        if not (0.0 < self.rho < math.inf and 0.0 < self.c0 < math.inf):
            raise ValueError(
                f"truncation needs finite rho > 0 and c0 > 0, got rho={self.rho}, c0={self.c0}"
            )
        if not self.x_rho < self.rho:
            raise ValueError(f"c0/rho = {self.x_rho} must fall below rho = {self.rho}")

    @property
    def x_rho(self):
        """The chord cutoff c0/rho."""
        return self.c0 / self.rho

    @property
    def lipschitz(self):
        """The chord slope (U(x_rho) - U(0))/x_rho, the global slope bound."""
        return self.base.evaluate(self.x_rho) / self.x_rho

    def evaluate(self, x):
        arr = np.asarray(x, dtype=float)
        # the base takes the nodes neither end band holds, so a NaN stays NaN
        out = np.piecewise(
            arr,
            [arr <= self.x_rho, arr > self.rho],
            [lambda a: self.lipschitz * a, self.base.evaluate(self.rho), self.base.evaluate],
        )
        return _match_shape(out, x)


@dataclass(frozen=True)
class ConjugateSpec:
    """The convex conjugate sup_x {U(x) - x y} of a truncated power utility.

    The four slope bands of ``evaluate``, from the chord slope down, put
    the supremum at x = 0, at the chord cutoff x_rho, at the stationary
    point y^{1/(p-1)} and at the plateau edge rho.  Lipschitz in y, constant rho.
    """

    reward: TruncatedUtility

    def __post_init__(self):
        if not isinstance(self.reward, TruncatedUtility):
            # without the truncation the conjugate is infinite near 0
            raise ValueError("conjugate_spec needs a Lipschitz-truncated utility")

    @property
    def lipschitz(self):
        return self.reward.rho

    def evaluate(self, y):
        arr = _nonnegative(y, "conjugate is defined for y >= 0")
        p, rho, x_rho = self.reward.base.p, self.reward.rho, self.reward.x_rho
        # each band holds the nodes that no band above it holds
        zero = arr >= self.reward.lipschitz
        chord = ~zero & (arr >= x_rho ** (p - 1.0))  # marginal utility at the chord cutoff
        # rho^(p-1) is the marginal utility at the plateau edge
        interior = ~(zero | chord) & (arr > rho ** (p - 1.0))
        out = np.piecewise(
            arr,
            [zero, chord, interior],
            [
                0.0,
                lambda b: x_rho**p / p - x_rho * b,
                lambda b: (1.0 / p - 1.0) * np.power(b, -p / (1.0 - p)),
                lambda b: rho**p / p - rho * b,
            ],
        )
        return _match_shape(out, y)


def power_utility(p):
    """U(x) = x^p / p on [0, inf), for p in (0, 1)."""
    return PowerUtility(p)


def lipschitz_truncate(base, rho, c0):
    """Clamp the power utility ``base`` to a globally Lipschitz one (see TruncatedUtility)."""
    return TruncatedUtility(base, float(rho), float(c0))


def conjugate_spec(reward):
    """Closed-form conjugate of a Lipschitz-truncated power utility; others are refused."""
    return ConjugateSpec(reward)
