"""Quadrature rules: closed forms, moment matching, symmetry."""

import math

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss

from dualgap import NumericalFailure, double_factorial, gauss_hermite_rule, moment_defect
from dualgap import quadrature
from dualgap.quadrature import MAX_ORDER, MIN_ORDER

# Rescaled nodes and weights with algebraic closed forms.
_CLOSED = {
    2: (
        [-1.0, 1.0],
        [0.5, 0.5],
    ),
    3: (
        [-math.sqrt(3.0), 0.0, math.sqrt(3.0)],
        [1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0],
    ),
    4: (
        [
            -math.sqrt(3.0 + math.sqrt(6.0)),
            -math.sqrt(3.0 - math.sqrt(6.0)),
            math.sqrt(3.0 - math.sqrt(6.0)),
            math.sqrt(3.0 + math.sqrt(6.0)),
        ],
        [
            (3.0 - math.sqrt(6.0)) / 12.0,
            (3.0 + math.sqrt(6.0)) / 12.0,
            (3.0 + math.sqrt(6.0)) / 12.0,
            (3.0 - math.sqrt(6.0)) / 12.0,
        ],
    ),
}


@pytest.mark.parametrize("order", [2, 3, 4])
def test_low_order_closed_forms(order):
    rule = gauss_hermite_rule(order)
    nodes, weights = _CLOSED[order]
    assert np.max(np.abs(rule.nodes - np.array(nodes))) < 1.0e-12
    assert np.max(np.abs(rule.weights - np.array(weights))) < 1.0e-12


@pytest.mark.parametrize("order", range(2, 9))
def test_moments_match_standard_normal(order):
    """Every moment up to degree 2M - 1 must equal the normal moment."""
    rule = gauss_hermite_rule(order)
    for degree in range(2 * order):
        got = float(np.sum(rule.weights * rule.nodes**degree))
        want = 0.0 if degree % 2 else float(double_factorial(degree - 1))
        assert abs(got - want) < 1.0e-10, (order, degree, got, want)


@pytest.mark.parametrize("order,defect", [(2, 2.0), (3, 6.0), (4, 24.0)])
def test_first_unmatched_moment(order, defect):
    assert abs(moment_defect(gauss_hermite_rule(order)) - defect) < 1.0e-10


@pytest.mark.parametrize("order", range(2, 21))
def test_weights_positive_and_normalised(order):
    rule = gauss_hermite_rule(order)
    assert rule.nodes.shape == (order,)
    assert rule.weights.shape == (order,)
    assert np.all(rule.weights > 0.0)
    assert abs(float(np.sum(rule.weights)) - 1.0) < 1.0e-13


@pytest.mark.parametrize("order", range(MIN_ORDER, MAX_ORDER + 1))
def test_exact_mirror_symmetry(order):
    """Halves are mirrored bitwise, not just to rounding error.

    The sweep's read tables rely on the weights: branches b and M - 1 - b
    share one table.
    """
    rule = gauss_hermite_rule(order)
    assert np.array_equal(rule.nodes, -rule.nodes[::-1])
    assert np.array_equal(rule.weights.view(np.uint64), rule.weights[::-1].view(np.uint64))
    if order % 2:
        assert rule.nodes[order // 2] == 0.0


@pytest.mark.parametrize("order", [5, 13, 20])
def test_against_reference_hermite_roots(order):
    """Cross-check against the numpy physicists' rule, rescaled."""
    rule = gauss_hermite_rule(order)
    z, w = hermgauss(order)
    assert np.max(np.abs(rule.nodes - math.sqrt(2.0) * z)) < 1.0e-12
    assert np.max(np.abs(rule.weights - w / math.sqrt(math.pi))) < 1.0e-12


def test_rule_arrays_are_frozen():
    rule = gauss_hermite_rule(4)
    with pytest.raises(ValueError):
        rule.nodes[0] = 0.0
    with pytest.raises(ValueError):
        rule.weights[0] = 0.0


@pytest.mark.parametrize("order", [1, 0, -3, 21, 50])
def test_order_out_of_range(order):
    with pytest.raises(ValueError):
        gauss_hermite_rule(order)


def test_order_must_be_integral():
    with pytest.raises(ValueError):
        gauss_hermite_rule(2.5)


def test_double_factorial_values():
    assert double_factorial(-1) == 1
    assert double_factorial(0) == 1
    assert double_factorial(1) == 1
    assert double_factorial(5) == 15
    assert double_factorial(7) == 105
    assert double_factorial(8) == 384


def test_double_factorial_rejects_below_minus_one():
    with pytest.raises(ValueError):
        double_factorial(-2)


def test_construction_is_deterministic():
    a = gauss_hermite_rule(16)
    b = gauss_hermite_rule(16)
    assert np.array_equal(a.nodes, b.nodes)
    assert np.array_equal(a.weights, b.weights)


def test_a_newton_iteration_that_does_not_converge_raises(monkeypatch):
    monkeypatch.setattr(quadrature, "_NEWTON_MAX_ITER", 1)
    message = "Hermite root 0 of order 4 not converged after 1 Newton steps"
    with pytest.raises(NumericalFailure, match=f"^{message}$"):
        gauss_hermite_rule(4)


def test_failure_type_is_exported():
    assert issubclass(NumericalFailure, RuntimeError)
