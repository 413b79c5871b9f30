"""Gauss-Hermite quadrature normalised against the standard Gaussian.

The classical rule integrates f(z) exp(-z^2) dz.  The value iterations
need expectations E[f(Z)] with Z ~ N(0, 1), so nodes are stretched by
sqrt(2) and weights divided by sqrt(pi).  An M-point rule then
reproduces E[Z^q] exactly for every q <= 2M - 1; the first neglected
moment E[Z^{2M}] = (2M-1)!! is missed by a small computable defect that
feeds directly into the consistency constants of the error envelopes.

Roots are found per half axis by Newton iteration on the orthonormal
three-term recurrence, starting from standard asymptotic guesses for
the largest root and marching inward.  The negative half is mirrored
bit-exactly, so odd moments vanish identically rather than to rounding.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure

MIN_ORDER = 2
MAX_ORDER = 20

_NEWTON_TOL = 1.0e-14
_NEWTON_MAX_ITER = 100


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights representing E[f(Z)] for standard normal Z.

    ``nodes`` are ascending and symmetric about zero, ``weights`` are
    positive and sum to one.  Both mirror bit for bit:
    ``weights[i] == weights[M - 1 - i]`` holds for every bit, which the
    sweep's read tables rely on (``lattice.interpolate`` serves branches
    i and M - 1 - i from one table).
    """

    order: int
    nodes: np.ndarray
    weights: np.ndarray


def double_factorial(n):
    """n!! for n >= -1 (empty product for n in {-1, 0})."""
    if n < -1:
        raise ValueError(f"double factorial needs n >= -1, got {n}")
    return math.prod(range(n, 0, -2))


def _half_axis_roots(n):
    """Positive roots of the order-n Hermite polynomial, descending.

    Works on the physicists' polynomial with weight exp(-z^2), in the
    orthonormal scaling so the Newton correction is p/p' with p' coming
    from the derivative identity.  Returns ceil(n/2) roots and their
    Gauss weights; for odd n the last root is the one at the origin.
    """
    m = (n + 1) // 2
    roots = np.empty(m)
    weights = np.empty(m)
    z = 0.0
    for i in range(m):
        if i == 0:
            z = math.sqrt(2.0 * n + 1.0) - 1.85575 * (2.0 * n + 1.0) ** (-1.0 / 6.0)
        elif i == 1:
            z -= 1.14 * n**0.426 / z
        elif i == 2:
            z = 1.86 * z - 0.86 * roots[0]
        elif i == 3:
            z = 1.91 * z - 0.91 * roots[1]
        else:
            z = 2.0 * z - roots[i - 2]
        pp = 0.0
        for _ in range(_NEWTON_MAX_ITER):
            p1 = math.pi**-0.25
            p2 = 0.0
            for j in range(1, n + 1):
                p1, p2 = z * math.sqrt(2.0 / j) * p1 - math.sqrt((j - 1.0) / j) * p2, p1
            pp = math.sqrt(2.0 * n) * p2
            dz = p1 / pp
            z -= dz
            if abs(dz) <= _NEWTON_TOL * max(1.0, abs(z)):
                break
        else:
            raise NumericalFailure(
                f"Hermite root {i} of order {n} not converged after {_NEWTON_MAX_ITER} Newton steps"
            )
        roots[i] = z
        weights[i] = 2.0 / (pp * pp)
    return roots, weights


def gauss_hermite_rule(order):
    """Build the M-point rule for E[f(Z)], Z standard normal.

    Parameters
    ----------
    order : int
        Number of nodes M, between 2 and 20.  Below 2 the rule cannot
        see the variance; above 20 the weights underflow usefulness.

    Returns
    -------
    QuadratureRule
        Ascending nodes, matching weights.  nodes[i] == -nodes[M-1-i]
        and weights[i] == weights[M-1-i] hold bitwise.
    """
    if not isinstance(order, (int, np.integer)):
        raise ValueError(f"order must be an integer, got {order!r}")
    order = int(order)
    if order < MIN_ORDER or order > MAX_ORDER:
        raise ValueError(f"order must lie in [{MIN_ORDER}, {MAX_ORDER}], got {order}")
    half_roots, half_weights = _half_axis_roots(order)
    nodes = np.empty(order)
    weights = np.empty(order)
    for i in range(len(half_roots)):
        nodes[order - 1 - i] = half_roots[i]
        nodes[i] = -half_roots[i]
        weights[order - 1 - i] = half_weights[i]
        weights[i] = half_weights[i]
    if order % 2 == 1:
        nodes[order // 2] = 0.0
    nodes *= math.sqrt(2.0)
    weights /= math.sqrt(math.pi)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(order=order, nodes=nodes, weights=weights)


def moment_defect(rule):
    """Absolute gap between E[Z^{2M}] = (2M-1)!! and the rule's 2M-th moment.

    This is the leading term of the one-step replacement error: all lower
    moments are exact, so whatever the rule misses at degree 2M is what
    the consistency constants must carry.
    """
    two_m = 2 * rule.order
    exact = float(double_factorial(two_m - 1))
    approx = float(np.sum(rule.weights * rule.nodes**two_m))
    return abs(exact - approx)
