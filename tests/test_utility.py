"""Truncated utilities and their convex conjugates.

The benchmark reward is the square-root utility clamped with rho = 18
and c0 = 8, so the chord kink sits at x = 4/9 with global slope 3.  The
frozen reference values below were derived by hand from that geometry.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualgap import conjugate_spec, lipschitz_truncate, power_utility
from oracles import convex_conjugate

X_RHO = 4.0 / 9.0
AT_PLATEAU = 2.0 * math.sqrt(18.0)


@pytest.fixture(scope="module")
def base():
    return power_utility(0.5)


@pytest.fixture(scope="module")
def truncated(base):
    return lipschitz_truncate(base, 18.0, 8.0)


@pytest.fixture(scope="module")
def conj(truncated):
    return conjugate_spec(truncated)


def test_power_utility_values(base):
    assert base.evaluate(4.0) == pytest.approx(4.0, abs=1.0e-14)
    assert base.evaluate(0.0) == 0.0
    # marginal utility is x^(p-1), not the derivative of x^p
    assert base.derivative(4.0) == pytest.approx(0.5, abs=1.0e-14)


@pytest.mark.parametrize("p", [0.0, 1.0, -0.25, 1.5])
def test_power_exponent_range(p):
    with pytest.raises(ValueError):
        power_utility(p)


def test_power_utility_rejects_negative_state(base):
    with pytest.raises(ValueError):
        base.evaluate(-1.0)
    with pytest.raises(ValueError):
        base.derivative(np.array([0.5, -0.5]))


def test_truncation_geometry(truncated):
    assert truncated.x_rho == pytest.approx(X_RHO, abs=1.0e-15)
    assert truncated.lipschitz == pytest.approx(3.0, abs=1.0e-12)
    assert truncated.rho == 18.0


def test_truncated_values(truncated):
    # chord piece, untouched middle, plateau
    assert truncated.evaluate(0.0) == 0.0
    assert truncated.evaluate(0.2) == pytest.approx(0.6, abs=1.0e-12)
    assert truncated.evaluate(X_RHO) == pytest.approx(4.0 / 3.0, abs=1.0e-12)
    assert truncated.evaluate(1.0) == pytest.approx(2.0, abs=1.0e-14)
    assert truncated.evaluate(18.0) == pytest.approx(AT_PLATEAU, abs=1.0e-12)
    assert truncated.evaluate(25.0) == pytest.approx(AT_PLATEAU, abs=1.0e-12)
    assert truncated.evaluate(1.0e6) == pytest.approx(AT_PLATEAU, abs=1.0e-12)


def test_truncated_continuity(truncated):
    for joint in (X_RHO, 18.0):
        below = truncated.evaluate(joint - 1.0e-9)
        above = truncated.evaluate(joint + 1.0e-9)
        assert abs(above - below) < 1.0e-8


def test_truncated_derivative(truncated):
    assert truncated.derivative(0.1) == pytest.approx(3.0, abs=1.0e-12)
    assert truncated.derivative(1.0) == pytest.approx(1.0, abs=1.0e-14)
    assert truncated.derivative(20.0) == 0.0


def test_truncated_shapes(truncated):
    assert isinstance(truncated.evaluate(1.0), float)
    out = truncated.evaluate(np.array([0.0, 1.0, 20.0]))
    assert out.shape == (3,)


def test_truncation_rejects_bad_geometry(base):
    # cutoff at or beyond rho
    with pytest.raises(ValueError):
        lipschitz_truncate(base, 2.0, 8.0)
    with pytest.raises(ValueError):
        lipschitz_truncate(base, 4.0, 16.0)


def test_truncation_refuses_a_base_other_than_a_power(truncated):
    with pytest.raises(ValueError, match="only a power utility"):
        lipschitz_truncate(truncated, 4.0, 2.0)


def test_conjugate_frozen_values(conj):
    assert conj.evaluate(0.0) == pytest.approx(AT_PLATEAU, abs=1.0e-12)
    assert conj.evaluate(1.0) == pytest.approx(1.0, abs=1.0e-12)
    assert conj.evaluate(2.0) == pytest.approx(4.0 / 9.0, abs=1.0e-12)
    assert conj.evaluate(3.0) == pytest.approx(0.0, abs=1.0e-12)
    assert conj.evaluate(5.0) == 0.0


def test_conjugate_fields(conj):
    assert conj.lipschitz == 18.0


def test_conjugate_band_edges(conj):
    """The closed form switches branch at the plateau and kink slopes."""
    for edge in (1.0 / math.sqrt(18.0), 1.5, 3.0):
        below = conj.evaluate(edge - 1.0e-9)
        above = conj.evaluate(edge + 1.0e-9)
        assert abs(above - below) < 1.0e-7


def test_conjugate_plateau_branch(conj):
    y = 0.2  # below the plateau slope 18^(-1/2)
    assert conj.evaluate(y) == pytest.approx(AT_PLATEAU - 18.0 * y, abs=1.0e-12)


def test_conjugate_kink_branch(conj):
    y = 2.5  # between the kink slope 3/2 and the chord slope 3
    assert conj.evaluate(y) == pytest.approx(4.0 / 3.0 - X_RHO * y, abs=1.0e-12)


def test_conjugate_monotone_convex(conj):
    ys = np.linspace(0.0, 4.0, 401)
    vals = conj.evaluate(ys)
    assert np.all(np.diff(vals) <= 1.0e-12)
    assert np.all(np.diff(vals, 2) >= -1.0e-9)


def test_conjugate_scalar_and_array_shapes(conj):
    assert isinstance(conj.evaluate(1.0), float)
    assert conj.evaluate(np.array([[0.5, 1.0], [2.0, 4.0]])).shape == (2, 2)


def test_conjugate_rejects_negative_slope(conj):
    with pytest.raises(ValueError):
        conj.evaluate(-0.1)


def test_conjugate_rejects_untruncated(base):
    with pytest.raises(ValueError):
        conjugate_spec(base)


def test_scan_matches_closed_form(truncated, conj):
    grid = np.linspace(0.0, 18.0, 20001)
    for y in (0.0, 0.1, 0.5, 1.0, 1.5, 2.0, 2.9, 3.0, 4.0):
        scanned = convex_conjugate(truncated, y, grid)
        assert abs(scanned - conj.evaluate(y)) < 1.0e-8, y


def test_scan_grid_validation(truncated):
    with pytest.raises(ValueError):
        convex_conjugate(truncated, -1.0, np.linspace(0.0, 18.0, 101))
    with pytest.raises(ValueError):
        convex_conjugate(truncated, 1.0, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        convex_conjugate(truncated, 1.0, np.array([1.0]))


@settings(max_examples=60, deadline=None)
@given(
    x=st.floats(min_value=0.0, max_value=25.0),
    y=st.floats(min_value=0.0, max_value=5.0),
)
def test_fenchel_young_inequality(truncated, conj, x, y):
    assert truncated.evaluate(x) - x * y <= conj.evaluate(y) + 1.0e-9


def test_fenchel_young_is_tight(truncated, conj):
    # include both joints: for y between the one-sided slopes there the
    # supremum sits exactly on a kink that a uniform grid straddles
    xs = np.union1d(np.linspace(0.0, 20.0, 20001), [4.0 / 9.0, 18.0])
    for y in (0.1, 0.5, 1.0, 2.0):
        best = float(np.max(truncated.evaluate(xs) - xs * y))
        assert conj.evaluate(y) == pytest.approx(best, abs=1.0e-6)


@pytest.mark.parametrize(
    "rho, c0", [(math.nan, 8.0), (18.0, math.nan), (math.inf, 8.0), (18.0, math.inf)]
)
def test_truncation_refuses_a_non_finite_geometry(base, rho, c0):
    """A NaN geometry used to build a reward whose every value was NaN."""
    with pytest.raises(ValueError, match="finite rho > 0 and c0 > 0"):
        lipschitz_truncate(base, rho, c0)


@st.composite
def geometries(draw):
    """A truncated power utility with p in (0.1, 0.9) and x_rho = c0/rho in (0, rho)."""
    p = draw(st.floats(0.1, 0.9, exclude_min=True, exclude_max=True))
    rho = draw(st.floats(0.5, 30.0))
    share = draw(st.floats(0.01, 0.95))  # x_rho as a share of rho
    return lipschitz_truncate(power_utility(p), rho, share * rho * rho)


def _band_edges(reward):
    """The conjugate's band edges, ascending: the plateau and kink slopes, the chord slope."""
    p = reward.base.p
    return reward.rho ** (p - 1.0), reward.x_rho ** (p - 1.0), reward.lipschitz


@settings(max_examples=60, deadline=None, derandomize=True)
@given(reward=geometries(), s=st.floats(0.0, 2.0), t=st.floats(0.0, 2.0))
def test_fenchel_young_inequality_on_random_geometries(reward, s, t):
    conj = conjugate_spec(reward)
    x, y = s * reward.rho, t * reward.lipschitz
    value = reward.evaluate(x)
    assert value - x * y <= conj.evaluate(y) + 1.0e-12 * (1.0 + abs(value) + x * y)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(reward=geometries(), t=st.floats(0.05, 0.95))
def test_fenchel_young_is_tight_on_random_geometries(reward, t):
    """A geometric grid holding both joints attains the closed form in every band."""
    conj = conjugate_spec(reward)
    plateau, kink, chord = _band_edges(reward)
    xs = np.union1d(
        np.geomspace(reward.x_rho / 100.0, 1.2 * reward.rho, 200001),
        [0.0, reward.x_rho, reward.rho],
    )
    values = reward.evaluate(xs)
    for y in (0.0, t * plateau, plateau + t * (kink - plateau), kink + t * (chord - kink)):
        best = float(np.max(values - xs * y))
        assert conj.evaluate(y) == pytest.approx(best, rel=1.0e-7, abs=1.0e-9), y


@settings(max_examples=60, deadline=None, derandomize=True)
@given(reward=geometries())
def test_continuity_at_the_joints_on_random_geometries(reward):
    """Each side of a joint sits within the Lipschitz constant's reach of the other."""
    conj = conjugate_spec(reward)
    for fn, lipschitz, joints in (
        (reward.evaluate, reward.lipschitz, (reward.x_rho, reward.rho)),
        (conj.evaluate, reward.rho, _band_edges(reward)),
    ):
        for joint in joints:
            step = 1.0e-9 * joint
            below, above = fn(joint - step), fn(joint + step)
            assert abs(above - below) <= 2.0 * lipschitz * step * (1.0 + 1.0e-6) + 1.0e-12 * (
                1.0 + abs(below)
            ), joint


@settings(max_examples=60, deadline=None, derandomize=True)
@given(reward=geometries(), t=st.floats(0.0, 1.0e6))
def test_conjugate_vanishes_from_the_chord_slope_on(reward, t):
    conj = conjugate_spec(reward)
    ys = reward.lipschitz * (1.0 + np.array([0.0, t]))
    assert conj.evaluate(ys).tolist() == [0.0, 0.0]
    assert conj.evaluate(reward.lipschitz) == 0.0
