"""Market coefficient functions, benchmark models, closed-form values."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

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
from dualgap.cli import build_problem, load_config
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

    That is the supremum for a penalty that is linear on either side of
    a kink at 0, as both cuoco-liu pieces are, concave or not.
    """
    lo, hi = model.a_interval
    g = model.penalty
    return max(float(g(lo)) - lo * nu, float(g(0.0)), float(g(hi)) - hi * nu)


def test_conjugate_is_exact_on_the_bundled_model(cuoco):
    """The vertices are -1, 0 and 1, so the conjugate is the kink-and-ends maximum.

    The gammas are those of the finest ladder mesh.
    """
    for gamma in control_mesh(cuoco.gamma_interval, 2**8 + 1):
        nu = float(gamma)
        assert penalty_conjugate(cuoco, nu) == _kink_and_ends(cuoco, nu), nu


def test_conjugate_matches_the_kink_on_random_intervals():
    """Off-centre intervals: the kink at 0 is a vertex, whatever the mesh.

    With r < 0.6 the kink is convex (borrowing rate above 2 r); the vertex
    maximum is exact there too.
    """
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
        assert penalty_conjugate(model, nu) == _kink_and_ends(model, nu), nu
        assert penalty_conjugate(model, nu) == pytest.approx(
            oracles.scan_polish_conjugate(model, nu), rel=0.0, abs=1.0e-12
        )


def test_conjugate_matches_the_scan_and_polish_referee(cuoco):
    """Within abs 1e-15 on the dual bounds' mesh, bit for bit on every ladder mesh."""
    for gamma in control_mesh(cuoco.gamma_interval, 201):
        nu = float(gamma)
        assert penalty_conjugate(cuoco, nu) == pytest.approx(
            oracles.scan_polish_conjugate(cuoco, nu), rel=0.0, abs=1.0e-15
        ), nu
    for k in range(9):
        for gamma in control_mesh(cuoco.gamma_interval, 2**k + 1):
            nu = float(gamma)
            assert penalty_conjugate(cuoco, nu) == oracles.scan_polish_conjugate(cuoco, nu), (k, nu)


@pytest.mark.parametrize("name", ["merton", "cuoco"])
def test_conjugate_over_an_array_is_the_scalar_calls(name, request):
    model = dataclasses.replace(request.getfixturevalue(name), gamma_interval=(-1.0, 1.0))
    gammas = np.linspace(-1.5, 1.5, 24).reshape(4, 6, 1)
    got = np.asarray(penalty_conjugate(model, gammas))
    assert got.shape == gammas.shape
    want = np.array([penalty_conjugate(model, float(g)) for g in gammas.ravel()])
    assert np.array_equal(got.ravel(), want)
    assert type(penalty_conjugate(model, 0.25)) is float
    assert type(penalty_conjugate(model, np.float64(0.25))) is float


def test_merton_conjugate_on_a_widened_interval(merton):
    """Zero penalty: the supremum of -a nu sits at an end of the interval."""
    lo, hi = merton.a_interval
    model = merton_model(gamma_interval=(-2.0, 2.0))
    gammas = control_mesh(model.gamma_interval, 33)
    want = np.maximum(-lo * gammas, -hi * gammas)
    assert np.array_equal(penalty_conjugate(model, gammas), want)
    assert "\n" not in repr(penalty_conjugate(model, gammas[:, None]))
    for nu in gammas:
        assert penalty_conjugate(model, float(nu)) == max(-lo * nu, -hi * nu)


def test_model_refuses_a_penalty_outside_the_vertex_contract():
    fields = _direct_fields()
    with pytest.raises(ValueError, match=r"vertices \(-1.0, 1.5, 1.0\) must ascend strictly"):
        MarketModel(**{**fields, "vertices": (-1.0, 1.5, 1.0), "values": (0.0, 0.0, 0.0)})
    with pytest.raises(ValueError, match=r"vertices \(-1.0, 0.5, -0.5, 1.0\) must ascend"):
        MarketModel(**{**fields, "vertices": (-1.0, 0.5, -0.5, 1.0), "values": (0.0,) * 4})
    with pytest.raises(ValueError, match=r"vertices \(-1.0, -1.0, 1.0\) must ascend strictly"):
        MarketModel(**{**fields, "vertices": (-1.0, -1.0, 1.0), "values": (0.0, 0.0, 0.0)})
    with pytest.raises(ValueError, match=r"vertices \(1.0, -1.0\) must ascend strictly"):
        MarketModel(**{**fields, "vertices": (1.0, -1.0)})
    with pytest.raises(ValueError, match=r"one value per vertex, got \(0.0, 0.0, 0.0\) at"):
        MarketModel(**{**fields, "values": (0.0, 0.0, 0.0)})
    with pytest.raises(ValueError, match=r"one value per vertex, got \(\) at \(\)"):
        MarketModel(**{**fields, "vertices": (), "values": ()})
    # a vertex where the slope does not change is allowed, and so is a single one
    assert MarketModel(**{**fields, "vertices": (-1.0, 0.25, 1.0), "values": (0.0,) * 3})
    single = MarketModel(**{**fields, "vertices": (0.0,), "values": (-0.5,)})
    assert single.a_interval == (0.0, 0.0)
    assert np.array_equal(single.penalty(A_MESH), np.full_like(A_MESH, -0.5))


def test_model_refuses_a_reversed_gamma_interval():
    """Refused when the model is built, not when a reader first meets it."""
    with pytest.raises(ValueError, match=r"empty control interval \[1.0, -1.0\]"):
        merton_model(gamma_interval=(1.0, -1.0))
    with pytest.raises(ValueError, match=r"empty control interval \[0.5, 0.25\]"):
        MarketModel(**{**_direct_fields(), "gamma_interval": (0.5, 0.25)})


def test_conjugate_is_exact_at_a_convex_kink():
    """A convex kink is inside the contract: the supremum still sits at a vertex."""
    fields = {**_direct_fields(), "vertices": (-1.0, 0.0, 1.0), "values": (1.0, 0.0, 1.0)}
    model = MarketModel(**fields)
    for nu in np.linspace(-2.0, 2.0, 17):
        want = max(abs(v) - v * nu for v in (-1.0, 0.0, 1.0))
        assert penalty_conjugate(model, float(nu)) == want, nu


@pytest.mark.parametrize(
    "params, lambda_plus",
    [
        ({}, 1.0),
        ({"r": 0.3, "borrowing_rate": 0.7}, 1.0),  # a convex kink
        ({"r": 0.6, "borrowing_rate": 2.0, "iota": 0.0}, 2.0),
    ],
)
def test_vertex_penalty_matches_the_cuoco_liu_referee(params, lambda_plus):
    """Bit for bit at the vertices; within abs 1e-15 on every ladder mesh and at random points."""
    model = cuoco_liu_model(lambda_plus=lambda_plus, **params)
    vertices = np.array(model.vertices)
    at_vertices = oracles.cuoco_liu_penalty(vertices, **params).tobytes()
    assert np.array(model.values).tobytes() == at_vertices
    assert model.penalty(vertices).tobytes() == at_vertices
    points = [control_mesh(model.a_interval, 2**k + 1) for k in range(9)]
    points.append(np.random.default_rng(15).uniform(*model.a_interval, size=1000))
    for a in points:
        gap = np.abs(model.penalty(a) - oracles.cuoco_liu_penalty(a, **params))
        assert gap.max() <= 1.0e-15


def test_cuoco_model_validation():
    with pytest.raises(ValueError):
        cuoco_liu_model(borrowing_rate=0.5)
    with pytest.raises(ValueError):
        cuoco_liu_model(lambda_plus=0.0)
    with pytest.raises(ValueError):
        cuoco_liu_model(iota=-0.1)
    with pytest.raises(ValueError):
        cuoco_liu_model(sigma=0.0)


def test_model_accepts_a_linear_penalty_with_subnormal_values():
    """A borrowing spread of 5e-324 keeps the penalty linear; its values are subnormal."""
    model = cuoco_liu_model(r=0.0, borrowing_rate=5e-324, lambda_plus=2.0)
    assert model.penalty(0.0) == -5e-324


def _direct_fields():
    """MarketModel fields of a zero-penalty model built without a factory."""
    return dict(
        name="direct",
        rate=0.8,
        appreciation=1.2,
        vol=1.0,
        vertices=(-1.0, 1.0),
        values=(0.0, 0.0),
        gamma_interval=(0.0, 0.0),
        horizon=0.5,
    )


def test_model_built_directly_checks_its_vol_and_horizon():
    fields = _direct_fields()
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


def test_dual_drift_bound_is_found_inside_the_gamma_interval():
    """r + conj(gamma) is most negative at gamma = 13/15, where two vertex lines cross.

    The vertices are -1, 0 and 1/2 with g = -2, -1.4 and -0.7; the lines
    -2 + gamma and -0.7 - gamma/2 cross at 13/15, and 0.6 - 17/15 = -8/15.
    The 201-point scan reads 0.53 there.
    """
    model = cuoco_liu_model(r=0.6, borrowing_rate=2.0, b=0.5, iota=0.0, lambda_plus=2.0)
    assert dual_coefficient_bounds(model).drift == pytest.approx(8.0 / 15.0, rel=1.0e-15)
    assert oracles.scan_dual_coefficient_bounds(model).drift < 8.0 / 15.0 - 1.0e-3


@pytest.mark.parametrize("config", ["merton", "cuoco_liu"])
def test_bounds_equal_the_scans_on_the_bundled_configs(config):
    model = build_problem(load_config(config)).model
    assert coefficient_bounds(model) == oracles.scan_coefficient_bounds(model)
    assert dual_coefficient_bounds(model) == oracles.scan_dual_coefficient_bounds(model)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    r=st.floats(0.0, 1.0),
    spread=st.floats(0.0, 1.5),  # borrowing rate above 2 r: a convex kink
    excess=st.floats(-0.5, 1.0),
    sigma=st.floats(0.3, 2.0),
    iota=st.floats(0.0, 1.0),
    lambda_plus=st.floats(0.5, 2.0),
    lambda_minus=st.floats(0.5, 2.0),
    gamma_lo=st.floats(-2.0, 1.0),
    gamma_width=st.floats(0.0, 3.0),
)
def test_bounds_are_never_below_the_scans(
    r, spread, excess, sigma, iota, lambda_plus, lambda_minus, gamma_lo, gamma_width
):
    """Random cuoco-liu models, convex kinks included, against the scanning referees.

    A flat stretch of a coefficient, read between its vertices, can round
    one ulp above them (5.6e-17 at most in 20,000 draws), hence abs 1e-14;
    what a scan misses reaches rel 8.7e-3.
    """
    model = cuoco_liu_model(
        r=r,
        borrowing_rate=r + spread,
        b=r + excess,
        sigma=sigma,
        iota=iota,
        lambda_plus=lambda_plus,
        lambda_minus=lambda_minus,
        gamma_interval=(gamma_lo, gamma_lo + gamma_width),
    )
    for exact, scan in (
        (coefficient_bounds(model), oracles.scan_coefficient_bounds(model)),
        (dual_coefficient_bounds(model), oracles.scan_dual_coefficient_bounds(model)),
    ):
        assert exact.drift >= scan.drift - 1.0e-14
        assert exact.vol >= scan.vol - 1.0e-14


def test_dual_bounds_reject_a_reversed_gamma_interval():
    with pytest.raises(ValueError, match="empty control interval"):
        dual_coefficient_bounds(cuoco_liu_model(gamma_interval=(1.0, -1.0)))
