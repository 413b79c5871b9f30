"""Deterministic golden-section maximisation.

No value iteration uses it any more: the penalty conjugate is a maximum
over the penalty's vertices.  It stays as the polish of the test
referees, and ``market`` keeps importing it because the benchmark's own
tests check that its traced wrapper reaches ``market.golden_max``.  The search runs a bounded
number of shrink steps with no randomness, so repeated runs produce
bit-identical results.
"""

import math

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

GOLDEN_TOL = 1.0e-12
GOLDEN_MAX_ITER = 200


def golden_max(f, lo, hi, tol=GOLDEN_TOL, max_iter=GOLDEN_MAX_ITER):
    """Golden-section maximum of ``f`` on ``[lo, hi]``.

    Assumes ``f`` is unimodal on the bracket; on ties the left probe is
    kept, which biases the argmax toward the smaller abscissa.  Returns
    ``(value, abscissa)``.
    """
    if hi < lo:
        raise ValueError(f"empty bracket [{lo}, {hi}]")
    if hi == lo:
        return f(lo), lo
    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if b - a <= tol * max(1.0, abs(a) + abs(b)):
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    if fc >= fd:
        return fc, c
    return fd, d
