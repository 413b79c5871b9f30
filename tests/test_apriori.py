"""A priori error envelopes and the truncation allowance.

The frozen reference values below come from evaluating the closed-form
constants at the benchmark market (drift bound 1.2, volatility bound 1,
horizon one half) and were cross-checked against hand arithmetic.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualgap import (
    CoefficientBounds,
    ConstantSet,
    NumericalFailure,
    SpaceGrid,
    coefficient_bounds,
    conjugate_spec,
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

from oracles import allowance_loop, tail_integral, tail_sum_loop, tail_term


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


@pytest.mark.parametrize(
    "sigma, envelope, message",
    [
        (20.0, lambda c: em_bound(0.1, 1.0, 1.0, c), "em_bound envelope: exp(4 k1 T) overflows"),
        (22.0, lambda c: c.defect_envelope, "defect envelope: exp(3 k1 T) overflows"),
        (18.6, lambda c: em_bound(0.0625, 1.0, 1.0, c), "em_bound envelope: its product overflows"),
    ],
    ids=["em_bound", "defect_envelope", "em_bound_product"],
)
def test_an_envelope_past_the_float_range_names_itself(sigma, envelope, message):
    """k1 = c_mu^2 T + c_psi^2 grows with sigma^2; exp(4 k1 T) overflows from sigma 18.8 on.

    The em_bound product around a finite exp(4 k1 T) overflows first, from sigma 18.6 on.
    """
    constants = constant_set(coefficient_bounds(merton_model(sigma=sigma)), 0.5)
    k1 = constants.growth_rate
    with pytest.raises(NumericalFailure) as info:
        envelope(constants)
    assert str(info.value) == f"{message} at k1 = {k1:.6g}, T = 0.5"


def test_bound_step_validation(primal_constants, rule4):
    with pytest.raises(ValueError):
        em_bound(0.0, 1.0, 3.0, primal_constants)
    with pytest.raises(ValueError):
        gh_bound(-0.01, 1.0, rule4, 3.0, primal_constants)


def _lower_weight(x, constants):
    """The small-wealth tail weight at rho = 18, c0 = 8: the Gaussian bound at log(rho/(c0 x))."""
    bounds = (constants.drift_bound, constants.vol_bound, constants.horizon)
    return float(apriori._gaussian_tail_weight(np.array([math.log(18.0 / (8.0 * x))]), *bounds)[0])


def test_tail_weight_clamps_near_the_barrier(primal_constants):
    assert _lower_weight(1.0, primal_constants) == 1.0
    assert 0.0 < _lower_weight(0.05, primal_constants) < 1.0


def test_tail_weight_large_deviation_value(primal_constants):
    """Start chosen so the log ratio exceeds the drifted mean by 2."""
    x = (18.0 / 8.0) * math.exp(-2.6)
    assert _lower_weight(x, primal_constants) == pytest.approx(2.0 * math.exp(-3.0), rel=1.0e-12)


def test_tail_weight_validation(primal_constants):
    base = power_utility(0.5)
    with pytest.raises(ValueError, match="positive x, rho, c0"):
        truncation_allowance(1.0, base, 18.0, 0.0, primal_constants)
    flat = ConstantSet(drift_bound=1.2, vol_bound=0.0, horizon=0.5)
    with pytest.raises(ValueError, match="positive volatility bound and horizon"):
        truncation_allowance(np.array([1.0, 2.0]), base, 18.0, 8.0, flat)


def test_allowance_refuses_anything_but_the_power_base(primal_constants):
    """The truncated reward's zero slope at rho would drop the large-wealth part."""
    reward = lipschitz_truncate(power_utility(0.5), 18.0, 8.0)
    for utility in (reward, conjugate_spec(reward)):
        with pytest.raises(ValueError, match=f"needs the power base, got {type(utility).__name__}"):
            truncation_allowance(1.0, utility, 18.0, 8.0, primal_constants)
    # the state checks still come first
    with pytest.raises(ValueError, match="state must be positive"):
        truncation_allowance(-1.0, reward, 18.0, 8.0, primal_constants)


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
    """A head longer than the cap is refused: a partial sum would cut the tail off."""
    monkeypatch.setattr(apriori, "_TAIL_MAX_TERMS", 3)
    message = "tail sum from state 1.0 needs 62 head terms, more than 3"
    with pytest.raises(NumericalFailure, match=f"^{re.escape(message)}$"):
        truncation_allowance(1.0, power_utility(0.5), 18.0, 8.0, primal_constants)


def test_allowance_refuses_a_tail_still_above_the_cutoff_at_its_last_barrier(
    primal_constants, monkeypatch
):
    """A closed-form stop 10 short of the terms' leaves the crossing outside its settling window."""
    levels = apriori._crossing_levels

    def short(states, threshold, *args):
        shift = 10.0 if threshold == apriori._TAIL_CUTOFF else 0.0
        return levels(states, threshold, *args) - shift

    monkeypatch.setattr(apriori, "_crossing_levels", short)
    message = "tail sum from state 1.0 still at or above 1e-16 at barrier 2145"
    with pytest.raises(NumericalFailure, match=f"^{re.escape(message)}$"):
        truncation_allowance(1.0, power_utility(0.5), 18.0, 8.0, primal_constants)


def test_allowance_refuses_a_closed_form_past_the_crossing(primal_constants, monkeypatch):
    """A closed-form stop 10 past the terms' is refused too, not settled at the window's start."""
    levels = apriori._crossing_levels

    def long(states, threshold, *args):
        shift = 10.0 if threshold == apriori._TAIL_CUTOFF else 0.0
        return levels(states, threshold, *args) + shift

    monkeypatch.setattr(apriori, "_crossing_levels", long)
    message = "tail sum from state 1.0 already below 1e-16 at barrier 2161"
    with pytest.raises(NumericalFailure, match=f"^{re.escape(message)}$"):
        truncation_allowance(1.0, power_utility(0.5), 18.0, 8.0, primal_constants)


def test_allowance_refuses_a_subnormal_horizon_by_name():
    """k = 3 / (8 c_psi^2 T) is inf at T = 1e-320: named, before any weight meets it."""
    constants = ConstantSet(drift_bound=1.2, vol_bound=1.0, horizon=1.0e-320)
    message = "truncation allowance: k = 3 / (8 c_psi^2 T) is inf at T = 1e-320, c_psi = 1.0"
    with pytest.raises(NumericalFailure, match=f"^{re.escape(message)}$"):
        truncation_allowance(1.0, power_utility(0.5), 18.0, 8.0, constants)


def test_allowance_refuses_a_stop_past_exact_barriers(primal_constants):
    """From 2^53 on, consecutive barriers are no longer distinct floats."""
    message = (
        "tail sum from state 10000000000000.0 runs to barrier 2.15236e+16, "
        "past 2**53, where barriers are no longer exact floats"
    )
    with pytest.raises(NumericalFailure, match=f"^{re.escape(message)}$"):
        truncation_allowance(1.0e13, power_utility(0.5), 18.0, 8.0, primal_constants)


def test_allowance_validation(primal_constants):
    with pytest.raises(ValueError):
        truncation_allowance(-1.0, power_utility(0.5), 18.0, 8.0, primal_constants)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["x", "rho", "c0"])
def test_allowance_refuses_a_non_finite_argument_by_name(primal_constants, name, value):
    args = {"x": 1.0, "rho": 18.0, "c0": 8.0}
    args[name] = value
    with pytest.raises(ValueError, match=f"{name} = {value}"):
        truncation_allowance(
            args["x"], power_utility(0.5), args["rho"], args["c0"], primal_constants
        )


def test_allowance_validation_covers_every_node(primal_constants):
    base = power_utility(0.5)
    with pytest.raises(ValueError, match="at index 2"):
        truncation_allowance(np.array([1.0, 2.0, 0.0]), base, 18.0, 8.0, primal_constants)
    with pytest.raises(ValueError, match="at index 1"):
        truncation_allowance(np.array([1.0, np.nan]), base, 18.0, 8.0, primal_constants)
    with pytest.raises(ValueError):
        truncation_allowance(np.ones((2, 2)), base, 18.0, 8.0, primal_constants)


def test_allowance_cap_raises_before_it_allocates(primal_constants, monkeypatch):
    """Every head width is checked before any head is evaluated; only the settling windows are."""
    monkeypatch.setattr(apriori, "_TAIL_MAX_TERMS", 92)

    def evaluated(*args):
        raise AssertionError("a head was evaluated")

    monkeypatch.setattr(apriori, "_head_block", evaluated)
    message = "tail sum from state 0.1 needs 93 head terms, more than 92"
    xs = np.linspace(0.1, 2.0, 2000)
    with pytest.raises(NumericalFailure, match=f"^{re.escape(message)}$"):
        truncation_allowance(xs, power_utility(0.5), 18.0, 8.0, primal_constants)


def test_allowance_array_equals_scalar_calls(primal_constants):
    base = power_utility(0.5)
    xs = np.array([0.01, 0.5, 1.0, 2.0, 7.3, 18.0, 19.9])
    got = truncation_allowance(xs, base, 18.0, 8.0, primal_constants)
    expected = [truncation_allowance(x, base, 18.0, 8.0, primal_constants) for x in xs]
    assert isinstance(got, np.ndarray) and got.shape == xs.shape
    assert all(isinstance(value, float) for value in expected)
    assert got.tolist() == expected


def _gap_nodes(factory, level):
    """The nodes of the bundled config's gap CSV at ``level``, and the primal constants."""
    constants = constant_set(coefficient_bounds(factory()), 0.5)
    xs = SpaceGrid(20.0, refinement_ladder(level, level, 4, 20.0, 4.0)[0].cells).nodes[1:]
    return xs, constants


@pytest.mark.parametrize("factory, level", [(merton_model, 3), (cuoco_liu_model, 4)])
def test_allowance_matches_the_loop_on_every_gap_node(factory, level):
    """The bundled gap levels' nodes, against the per-term math loop."""
    xs, constants = _gap_nodes(factory, level)
    base = power_utility(0.5)
    got = truncation_allowance(xs, base, 18.0, 8.0, constants)
    expected = [allowance_loop(x, base, 18.0, 8.0, constants, apriori._TAIL_CUTOFF) for x in xs]
    np.testing.assert_allclose(got, expected, rtol=1.0e-14, atol=0.0)


@pytest.mark.parametrize("factory, level", [(merton_model, 3), (cuoco_liu_model, 4)])
def test_allowance_blocks_cut_where_the_loop_stops_and_match_scalar_calls(
    factory, level, monkeypatch
):
    """Every gap node stops where the loop does, within 1e-15 of its sum, one scalar call per node.

    Short heads share a block there, so this covers the heads of a block
    being added each on its own; no evaluation exceeds a block.
    """
    xs, constants = _gap_nodes(factory, level)
    rows, sizes = [], []
    block, weight = apriori._head_block, apriori._gaussian_tail_weight

    def counting_rows(states, *args):
        rows.append(len(states))
        return block(states, *args)

    def counting_terms(log_ratio, *args):
        sizes.append(log_ratio.size)
        return weight(log_ratio, *args)

    monkeypatch.setattr(apriori, "_head_block", counting_rows)
    monkeypatch.setattr(apriori, "_gaussian_tail_weight", counting_terms)
    sums, counts = apriori._tail_sums(xs, 18.0, constants)
    assert max(rows) > 1
    assert max(sizes) <= apriori._TAIL_BLOCK
    loops = [tail_sum_loop(x, 18.0, constants, apriori._TAIL_CUTOFF) for x in xs]
    assert counts.tolist() == [stop - 18 for _, stop in loops]
    np.testing.assert_allclose(sums, [total for total, _ in loops], rtol=1.0e-15, atol=0.0)
    base = power_utility(0.5)
    got = truncation_allowance(xs, base, 18.0, 8.0, constants)
    assert got.tolist() == [truncation_allowance(x, base, 18.0, 8.0, constants) for x in xs]


def test_allowance_evaluates_few_tail_terms(monkeypatch):
    """The merton k=3 gap's tails sum 2,559,244 terms; its allowance evaluates a few thousand."""
    xs, constants = _gap_nodes(merton_model, 3)
    sizes = []
    weight = apriori._gaussian_tail_weight

    def counting_terms(log_ratio, *args):
        sizes.append(log_ratio.size)
        return weight(log_ratio, *args)

    monkeypatch.setattr(apriori, "_gaussian_tail_weight", counting_terms)
    truncation_allowance(xs, power_utility(0.5), 18.0, 8.0, constants)
    assert sum(sizes) < 10_000


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
    first = max(math.floor(rho), 1)
    k = apriori._tail_rate(constants)
    states = np.array([x])
    starts = apriori._crossings(states, first, 1.0, k, constants)
    stops = apriori._crossings(states, first, apriori._TAIL_CUTOFF, k, constants)
    assert first <= starts[0] <= stops[0] == stop


def test_allowance_matches_the_loop_far_from_the_barrier(primal_constants):
    """x = 100: 215,219 terms, 459 of them clamped to one and the rest by Euler-Maclaurin."""
    base = power_utility(0.5)
    got = truncation_allowance(100.0, base, 18.0, 8.0, primal_constants)
    expected = allowance_loop(100.0, base, 18.0, 8.0, primal_constants, apriori._TAIL_CUTOFF)
    assert got == pytest.approx(expected, rel=1.0e-14, abs=0.0)


def test_allowance_sums_every_term_where_the_integral_factor_overflows(monkeypatch):
    """c_psi = 60, T = 1/2: e^{1/(4k)} is past the float range, so x = 1e-178 sums all 2,189,272.

    The value is that of one pairwise numpy sum over every term.
    """

    def integral(*args):
        raise AssertionError("Euler-Maclaurin was used")

    monkeypatch.setattr(apriori, "_em_tails", integral)
    constants = ConstantSet(drift_bound=0.0, vol_bound=60.0, horizon=0.5)
    got = truncation_allowance(1.0e-178, power_utility(0.5), 18.0, 8.0, constants)
    assert got == pytest.approx(6.264825632038257e-11, rel=1.0e-14, abs=0.0)


@pytest.mark.parametrize("x", [4722.0, 1.0e5])
def test_euler_maclaurin_tails_lie_between_their_integral_bounds(primal_constants, x):
    """g decreases from the head's end a on, so its sum over [a, stop) is sandwiched by integrals.

    int_a^stop g <= sum <= g(a) + int_a^{stop-1} g.  The per-term loop
    would take 1.02e7 and 2.15e8 terms here.
    """
    states = np.array([x])
    k = apriori._tail_rate(primal_constants)
    starts = apriori._crossings(states, 18, 1.0, k, primal_constants)
    stops = apriori._crossings(states, 18, apriori._TAIL_CUTOFF, k, primal_constants)
    (a,) = apriori._head_ends(states, starts, stops, k, primal_constants)
    (start,), (stop,) = starts, stops
    head = math.fsum(tail_term(level, x, primal_constants) for level in range(start, a))
    rest = apriori._tail_sums(states, 18.0, primal_constants)[0][0] - (start - 18) - head
    assert tail_integral(x, a, stop, primal_constants) <= rest
    upper = tail_term(a, x, primal_constants) + tail_integral(x, a, stop - 1, primal_constants)
    assert rest <= upper


def test_envelope_constants_frozen(primal_constants, dual_constants, rule4):
    c_primal, c_dual = envelope_constants(primal_constants, dual_constants, rule4)
    assert c_primal == pytest.approx(52.47468888665218, rel=1.0e-12)
    assert c_dual == pytest.approx(2.7985811792035236, rel=1.0e-12)
    assert c_primal > 1.0 and c_dual > 1.0

