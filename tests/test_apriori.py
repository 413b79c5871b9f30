"""A priori error envelopes and the truncation allowance.

The frozen reference values below come from evaluating the closed-form
constants at the benchmark market (drift bound 1.2, volatility bound 1,
horizon one half) and were cross-checked against hand arithmetic.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualgap import (
    CoefficientBounds,
    ConstantSet,
    ResourceLimit,
    SpaceGrid,
    coefficient_bounds,
    constant_set,
    cuoco_liu_model,
    dual_coefficient_bounds,
    em_bound,
    envelope_constants,
    gauss_hermite_rule,
    gh_bound,
    lipschitz_truncate,
    merton_model,
    power_utility,
    refinement_ladder,
    truncation_allowance,
)
from dualgap import apriori

from oracles import allowance_loop, tail_sum_loop


@pytest.fixture(scope="module")
def primal_constants():
    return constant_set(coefficient_bounds(merton_model()), 0.5)


@pytest.fixture(scope="module")
def dual_constants():
    return constant_set(dual_coefficient_bounds(merton_model()), 0.5)


@pytest.fixture(scope="module")
def rule4():
    return gauss_hermite_rule(4)


def test_growth_rate(primal_constants, dual_constants):
    assert primal_constants.growth_rate == pytest.approx(1.72, abs=1.0e-12)
    assert dual_constants.growth_rate == pytest.approx(0.48, abs=1.0e-9)


def test_defect_envelope_frozen(primal_constants):
    # sqrt(3 + 9 k1 T e^{3 k1 T}) at k1 = 1.72, T = 1/2
    assert primal_constants.defect_envelope == pytest.approx(
        10.254065016165818, rel=1.0e-12
    )


def test_constant_set_validation():
    with pytest.raises(ValueError):
        constant_set(CoefficientBounds(drift=1.0, vol=1.0), 0.0)


def test_em_coefficient_frozen(primal_constants):
    got = em_bound(0.01, 1.0, 3.0, primal_constants) / math.sqrt(0.01)
    assert got == pytest.approx(141.8262153543814, rel=1.0e-12)


def test_em_scales_like_root_step(primal_constants):
    ratio = em_bound(0.04, 1.0, 3.0, primal_constants) / em_bound(
        0.01, 1.0, 3.0, primal_constants
    )
    assert ratio == pytest.approx(2.0, rel=1.0e-12)


def test_em_scales_linearly_in_state(primal_constants):
    ratio = em_bound(0.01, 2.0, 3.0, primal_constants) / em_bound(
        0.01, 1.0, 3.0, primal_constants
    )
    assert ratio == pytest.approx(2.0, rel=1.0e-12)


def test_gh_coefficient_frozen(primal_constants, rule4):
    got = gh_bound(0.01, 1.0, rule4, 3.0, primal_constants) / 0.01**0.375
    assert got == pytest.approx(25.195702611150285, rel=1.0e-12)


def test_gh_rate_exponent(primal_constants, rule4):
    """Order (M - 1) / 2M, which is 3/8 for the benchmark rule."""
    ratio = gh_bound(0.0001, 1.0, rule4, 3.0, primal_constants) / gh_bound(
        0.01, 1.0, rule4, 3.0, primal_constants
    )
    assert ratio == pytest.approx(0.01**0.375, rel=1.0e-10)


def test_gh_growth_in_state(primal_constants, rule4):
    ratio = gh_bound(0.01, 2.0, rule4, 3.0, primal_constants) / gh_bound(
        0.01, 1.0, rule4, 3.0, primal_constants
    )
    assert ratio == pytest.approx(257.0 / 2.0, rel=1.0e-12)


def test_bound_step_validation(primal_constants, rule4):
    with pytest.raises(ValueError):
        em_bound(0.0, 1.0, 3.0, primal_constants)
    with pytest.raises(ValueError):
        gh_bound(-0.01, 1.0, rule4, 3.0, primal_constants)


def _lower_weight(x, constants):
    """The small-wealth tail weight: the truncated reward's allowance over u(c0/rho) = 4/3."""
    reward = lipschitz_truncate(power_utility(0.5), 18.0, 8.0)
    return truncation_allowance(x, reward, 18.0, 8.0, constants) / (4.0 / 3.0)


def test_tail_weight_clamps_near_the_barrier(primal_constants):
    assert _lower_weight(1.0, primal_constants) == 1.0
    assert 0.0 < _lower_weight(0.05, primal_constants) < 1.0


def test_tail_weight_large_deviation_value(primal_constants):
    """Start chosen so the log ratio exceeds the drifted mean by 2."""
    x = (18.0 / 8.0) * math.exp(-2.6)
    assert _lower_weight(x, primal_constants) == pytest.approx(2.0 * math.exp(-3.0), rel=1.0e-12)


def test_tail_weight_validation(primal_constants):
    reward = lipschitz_truncate(power_utility(0.5), 18.0, 8.0)
    with pytest.raises(ValueError, match="positive x, rho, c0"):
        truncation_allowance(1.0, reward, 18.0, 0.0, primal_constants)
    flat = ConstantSet(drift_bound=1.2, vol_bound=0.0, horizon=0.5)
    with pytest.raises(ValueError, match="positive volatility bound and horizon"):
        truncation_allowance(np.array([1.0, 2.0]), reward, 18.0, 8.0, flat)


def test_allowance_truncated_reward(primal_constants):
    """Zero slope at the cut kills the tail sum, leaving U(4/9) times one."""
    reward = lipschitz_truncate(power_utility(0.5), 18.0, 8.0)
    got = truncation_allowance(1.0, reward, 18.0, 8.0, primal_constants)
    assert got == pytest.approx(4.0 / 3.0, abs=1.0e-12)


def test_allowance_refuses_a_reward_of_another_geometry(primal_constants):
    """A truncated reward's own rho and c0 must be the ones passed beside it."""
    reward = lipschitz_truncate(power_utility(0.5), 18.0, 8.0)
    for rho, c0 in ((12.0, 3.0), (12.0, 8.0), (18.0, 3.0)):
        with pytest.raises(ValueError, match="differ from the truncated reward's rho=18.0, c0=8.0"):
            truncation_allowance(1.0, reward, rho, c0, primal_constants)
    # the same numbers in another type are the same geometry
    assert truncation_allowance(1.0, reward, 18, 8, primal_constants) == pytest.approx(
        4.0 / 3.0, abs=1.0e-12
    )


def test_allowance_untruncated_base_frozen(primal_constants):
    base = power_utility(0.5)
    assert truncation_allowance(1.0, base, 18.0, 8.0, primal_constants) == pytest.approx(
        1.3954305015299888, rel=1.0e-12
    )
    assert truncation_allowance(2.0, base, 18.0, 8.0, primal_constants) == pytest.approx(
        1.993083881376728, rel=1.0e-12
    )


def test_allowance_monotone_in_state(primal_constants):
    base = power_utility(0.5)
    values = [
        truncation_allowance(x, base, 18.0, 8.0, primal_constants)
        for x in (0.5, 1.0, 2.0, 4.0)
    ]
    assert all(a <= b + 1.0e-12 for a, b in zip(values, values[1:]))


def test_allowance_refuses_a_cut_off_tail(primal_constants, monkeypatch):
    """A tail sum stopped before its terms fall below the cutoff is an error."""
    monkeypatch.setattr(apriori, "_TAIL_MAX_TERMS", 3)
    with pytest.raises(ResourceLimit):
        truncation_allowance(1.0, power_utility(0.5), 18.0, 8.0, primal_constants)


def test_allowance_validation(primal_constants):
    with pytest.raises(ValueError):
        truncation_allowance(-1.0, power_utility(0.5), 18.0, 8.0, primal_constants)


def test_allowance_validation_covers_every_node(primal_constants):
    base = power_utility(0.5)
    with pytest.raises(ValueError, match="at index 2"):
        truncation_allowance(np.array([1.0, 2.0, 0.0]), base, 18.0, 8.0, primal_constants)
    with pytest.raises(ValueError, match="at index 1"):
        truncation_allowance(np.array([1.0, np.nan]), base, 18.0, 8.0, primal_constants)
    with pytest.raises(ValueError):
        truncation_allowance(np.ones((2, 2)), base, 18.0, 8.0, primal_constants)


def test_allowance_cap_raises_before_it_allocates(primal_constants):
    """About 2e8 terms against a cap of 1e7: refused from the closed-form count."""
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimit):
            truncation_allowance(1.0e5, power_utility(0.5), 18.0, 8.0, primal_constants)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_allowance_array_equals_scalar_calls(primal_constants):
    base = power_utility(0.5)
    xs = np.array([0.01, 0.5, 1.0, 2.0, 7.3, 18.0, 19.9])
    got = truncation_allowance(xs, base, 18.0, 8.0, primal_constants)
    expected = [truncation_allowance(x, base, 18.0, 8.0, primal_constants) for x in xs]
    assert isinstance(got, np.ndarray) and got.shape == xs.shape
    assert all(isinstance(value, float) for value in expected)
    assert got.tolist() == expected


@pytest.mark.parametrize("factory, level", [(merton_model, 3), (cuoco_liu_model, 4)])
def test_allowance_matches_the_loop_on_every_gap_node(factory, level):
    """The bundled gap levels' nodes, against the per-term math loop."""
    constants = constant_set(coefficient_bounds(factory()), 0.5)
    base = power_utility(0.5)
    xs = SpaceGrid(20.0, refinement_ladder(level, level, 4, 20.0, 4.0)[0].cells).nodes[1:]
    got = truncation_allowance(xs, base, 18.0, 8.0, constants)
    expected = [allowance_loop(x, base, 18.0, 8.0, constants, apriori._TAIL_CUTOFF) for x in xs]
    np.testing.assert_allclose(got, expected, rtol=1.0e-14, atol=0.0)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    x=st.floats(min_value=1.0e-3, max_value=20.0),
    rho=st.floats(min_value=0.5, max_value=18.0),
    drift=st.floats(min_value=0.0, max_value=1.5),
    vol=st.floats(min_value=0.25, max_value=1.0),
    horizon=st.floats(min_value=0.1, max_value=0.5),
)
def test_allowance_matches_the_loop(x, rho, drift, vol, horizon):
    constants = ConstantSet(drift_bound=drift, vol_bound=vol, horizon=horizon)
    base = power_utility(0.5)
    got = truncation_allowance(x, base, rho, 8.0, constants)
    expected = allowance_loop(x, base, rho, 8.0, constants, apriori._TAIL_CUTOFF)
    np.testing.assert_allclose(got, expected, rtol=1.0e-14, atol=0.0)
    _, stop = tail_sum_loop(x, rho, constants, apriori._TAIL_CUTOFF)
    first, last = apriori._barriers(x, rho, constants)
    assert first <= stop <= last


def test_envelope_constants_frozen(primal_constants, dual_constants, rule4):
    c_primal, c_dual = envelope_constants(primal_constants, dual_constants, rule4)
    assert c_primal == pytest.approx(52.47468888665218, rel=1.0e-12)
    assert c_dual == pytest.approx(2.7985811792035236, rel=1.0e-12)
    assert c_primal > 1.0 and c_dual > 1.0

