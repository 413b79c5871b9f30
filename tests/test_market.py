"""Market coefficient functions, benchmark models, closed-form values."""

import numpy as np
import pytest

from dualgap import (
    MarketModel,
    coefficient_bounds,
    control_mesh,
    cuoco_liu_model,
    dual_coefficient_bounds,
    merton_model,
    merton_optimal_fraction,
    merton_value,
)
from dualgap.market import penalty_conjugate

A_MESH = np.linspace(-1.0, 1.0, 201)


@pytest.fixture(scope="module")
def merton():
    return merton_model()


@pytest.fixture(scope="module")
def cuoco():
    return cuoco_liu_model()


def test_merton_penalty_is_zero(merton):
    assert float(merton.penalty(0.7)) == 0.0
    assert np.all(merton.penalty(A_MESH) == 0.0)
    assert merton.gamma_interval == (0.0, 0.0)


def test_merton_model_validation():
    with pytest.raises(ValueError):
        merton_model(a_interval=(0.5, 1.0))
    with pytest.raises(ValueError):
        merton_model(sigma=0.0)
    with pytest.raises(ValueError):
        merton_model(horizon=-1.0)


def test_optimal_fraction():
    assert merton_optimal_fraction(0.5, 0.8, 1.2, 1.0) == pytest.approx(0.8, abs=1.0e-14)
    with pytest.raises(ValueError):
        merton_optimal_fraction(1.0, 0.8, 1.2, 1.0)


def test_merton_value_frozen():
    assert merton_value(0.5, 1.0, 0.5, 0.8, 1.2, 1.0) == pytest.approx(
        2.5424983006428095, abs=1.0e-13
    )
    # scaling in wealth is exactly x^p
    assert merton_value(0.5, 4.0, 0.5, 0.8, 1.2, 1.0) == pytest.approx(
        2.0 * 2.5424983006428095, abs=1.0e-12
    )


def test_merton_value_terminal_identity():
    xs = np.linspace(0.0, 5.0, 11)
    assert np.max(np.abs(merton_value(0.0, xs, 0.5, 0.8, 1.2, 1.0) - 2.0 * np.sqrt(xs))) < 1.0e-12
    assert isinstance(merton_value(0.25, 1.0, 0.5, 0.8, 1.2, 1.0), float)


def test_merton_value_validation():
    with pytest.raises(ValueError):
        merton_value(-0.1, 1.0, 0.5, 0.8, 1.2, 1.0)
    with pytest.raises(ValueError):
        merton_value(0.5, -1.0, 0.5, 0.8, 1.2, 1.0)


def test_cuoco_penalty_frozen(cuoco):
    """Hand-derived penalty values for the default constrained market."""
    assert float(cuoco.penalty(1.0)) == pytest.approx(0.0, abs=1.0e-14)
    assert float(cuoco.penalty(0.0)) == pytest.approx(-0.2, abs=1.0e-14)
    assert float(cuoco.penalty(-1.0)) == pytest.approx(-1.3, abs=1.0e-14)
    assert cuoco.a_interval == (-1.0, 1.0)


def test_cuoco_penalty_concave_piecewise_linear(cuoco):
    vals = np.asarray(cuoco.penalty(A_MESH), dtype=float)
    assert np.all(np.diff(vals, 2) <= 1.0e-12)
    assert np.all(vals <= 1.0e-14)


def test_cuoco_conjugate_frozen(cuoco):
    cases = {
        -1.0: 1.0,
        -0.5: 0.5,
        0.0: 0.0,
        0.2: -0.2,
        0.5: -0.2,
        1.0: -0.2,
    }
    for gamma, want in cases.items():
        got = penalty_conjugate(cuoco, gamma)
        assert got == pytest.approx(want, abs=1.0e-9), gamma


def test_conjugate_dominates_penalty(cuoco):
    """Fenchel: g(a) - a gamma never exceeds the conjugate."""
    for gamma in np.linspace(-1.0, 1.0, 9):
        tilt = np.asarray(cuoco.penalty(A_MESH), dtype=float) - A_MESH * gamma
        assert penalty_conjugate(cuoco, float(gamma)) >= float(tilt.max()) - 1.0e-12


def test_conjugate_convex_in_gamma(cuoco):
    gammas = np.linspace(-1.0, 1.0, 81)
    vals = np.array([penalty_conjugate(cuoco, float(g)) for g in gammas])
    assert np.all(np.diff(vals, 2) >= -1.0e-9)


def _kink_and_ends(model, nu):
    """max of g(a) - a nu over a in {lo, 0, hi}.

    That is the supremum for a concave penalty that is linear on either
    side of a kink at 0, as both cuoco-liu pieces are.
    """
    lo, hi = model.a_interval
    g = model.penalty
    return max(float(g(lo)) - lo * nu, float(g(0.0)), float(g(hi)) - hi * nu)


def test_conjugate_is_exact_on_the_bundled_model(cuoco):
    """The fixed scan mesh holds -1, 0 and 1, so the scan alone is exact.

    The gammas are those of the finest ladder mesh, which holds every
    coarser one.  (At gamma = R - r, where g(a) - a gamma is flat for
    a > 0, the polish can exceed the scan by rounding.)
    """
    for gamma in control_mesh(cuoco.gamma_interval, 2**8 + 1):
        nu = float(gamma)
        assert penalty_conjugate(cuoco, nu) == _kink_and_ends(cuoco, nu), nu


def test_conjugate_matches_the_kink_on_random_intervals():
    """Off-mesh kinks are found by the golden-section polish."""
    rng = np.random.default_rng(5)
    for _ in range(40):
        model = cuoco_liu_model(
            r=float(rng.uniform(0.0, 1.0)),
            borrowing_rate=1.2,
            iota=float(rng.uniform(0.0, 1.0)),
            lambda_plus=float(rng.uniform(0.5, 2.0)),
            lambda_minus=float(rng.uniform(0.5, 2.0)),
        )
        nu = float(rng.uniform(-1.0, 1.0))
        assert penalty_conjugate(model, nu) == pytest.approx(
            _kink_and_ends(model, nu), rel=0.0, abs=1.0e-12
        )


def test_cuoco_model_validation():
    with pytest.raises(ValueError):
        cuoco_liu_model(borrowing_rate=0.5)
    with pytest.raises(ValueError):
        cuoco_liu_model(lambda_plus=0.0)
    with pytest.raises(ValueError):
        cuoco_liu_model(iota=-0.1)
    with pytest.raises(ValueError):
        cuoco_liu_model(sigma=0.0)


def test_model_built_directly_checks_its_vol_and_horizon(merton):
    fields = dict(
        name="direct",
        rate=0.8,
        appreciation=1.2,
        vol=1.0,
        penalty=merton.penalty,
        a_interval=(-1.0, 1.0),
        gamma_interval=(0.0, 0.0),
        horizon=0.5,
    )
    assert MarketModel(**fields).vol == 1.0
    with pytest.raises(ValueError, match="volatility must be positive, got 0.0"):
        MarketModel(**{**fields, "vol": 0.0})
    with pytest.raises(ValueError, match="horizon must be positive, got -1.0"):
        MarketModel(**{**fields, "horizon": -1.0})


def test_primal_bounds_merton(merton):
    bounds = coefficient_bounds(merton)
    assert bounds.drift == pytest.approx(1.2, abs=1.0e-9)
    assert bounds.vol == pytest.approx(1.0, abs=1.0e-9)


def test_primal_bounds_cuoco(cuoco):
    bounds = coefficient_bounds(cuoco)
    assert bounds.drift == pytest.approx(1.2, abs=1.0e-9)
    assert bounds.vol == pytest.approx(0.5, abs=1.0e-9)


def test_dual_bounds_merton(merton):
    bounds = dual_coefficient_bounds(merton)
    assert bounds.drift == pytest.approx(0.8, abs=1.0e-9)
    assert bounds.vol == pytest.approx(0.4, abs=1.0e-9)


def test_dual_bounds_cuoco(cuoco):
    # drift peaks at gamma = -1 where the conjugate reaches 1, the vol
    # at gamma = 1 where |r - b - gamma| / sigma = 1.4 / 0.5
    bounds = dual_coefficient_bounds(cuoco)
    assert bounds.drift == pytest.approx(1.8, abs=1.0e-9)
    assert bounds.vol == pytest.approx(2.8, abs=1.0e-9)



def test_dual_bounds_reject_a_reversed_gamma_interval():
    with pytest.raises(ValueError, match="empty control interval"):
        dual_coefficient_bounds(cuoco_liu_model(gamma_interval=(1.0, -1.0)))
