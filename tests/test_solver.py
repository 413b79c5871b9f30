"""Backward sweeps against exhaustive enumeration, chains, surfaces."""

import math
import re
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dualgap import (
    Discretization,
    NumericalFailure,
    ResourceLimit,
    SpaceGrid,
    TimeGrid,
    ValueSurface,
    conjugate_spec,
    control_mesh,
    cuoco_liu_model,
    dual_coefficient_bounds,
    gauss_hermite_rule,
    lipschitz_truncate,
    merton_model,
    power_utility,
    refinement_ladder,
    solve,
)
from dualgap import market, solver
from dualgap.market import penalty_conjugate
from dualgap.solver import (
    MAX_BRANCHES,
    dual_step,
    enumerate_coupled,
    primal_step,
    step_factors,
    write_surface_csv,
)


@pytest.fixture(scope="module")
def rule2():
    return gauss_hermite_rule(2)


@pytest.fixture(scope="module")
def merton():
    return merton_model()


def test_step_factors_primal(merton, rule2):
    got = step_factors(merton, 0.5, rule2, 0.1, "primal")
    noise = math.sqrt(0.1) * 0.5
    assert np.allclose(got, [1.1 - noise, 1.1 + noise], atol=1.0e-14)


def test_step_factors_dual(merton, rule2):
    # drift 1 - h r, noise (r - b) / sigma per unit node
    got = step_factors(merton, 0.0, rule2, 0.1, "dual")
    noise = math.sqrt(0.1) * 0.4
    assert np.allclose(got, [0.92 + noise, 0.92 - noise], atol=1.0e-14)


def test_step_factors_rejects_unknown_direction(merton, rule2):
    with pytest.raises(ValueError):
        step_factors(merton, 0.0, rule2, 0.1, "sideways")


@pytest.mark.parametrize(
    "make_model, direction",
    [(merton_model, "primal"), (cuoco_liu_model, "primal"), (cuoco_liu_model, "dual")],
)
def test_step_factors_over_a_mesh_stack_the_scalar_calls(make_model, direction):
    model = make_model()
    rule = gauss_hermite_rule(4)
    interval = model.a_interval if direction == "primal" else model.gamma_interval
    mesh = control_mesh(interval, 7)
    got = step_factors(model, mesh, rule, 0.125, direction)
    want = np.stack([step_factors(model, float(c), rule, 0.125, direction) for c in mesh])
    assert got.shape == (7, 4)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("direction", ["primal", "dual"])
def test_steps_keep_the_first_mesh_point_on_ties(direction):
    """A constant row ties every control at every node."""
    model = cuoco_liu_model()
    rule = gauss_hermite_rule(3)
    grid = SpaceGrid(2.0, 8)
    row = np.full(grid.cells + 1, 0.75)
    interval = model.a_interval if direction == "primal" else model.gamma_interval
    controls = control_mesh(interval, 5)
    factors = step_factors(model, controls, rule, 0.125, direction)
    sweep_step = primal_step if direction == "primal" else dual_step
    values, chosen = sweep_step(row, factors, rule.weights, controls, grid, 0.75)
    assert np.array_equal(chosen, np.full(grid.nodes.shape, controls[0]))
    assert np.allclose(values, 0.75, rtol=0.0, atol=1.0e-14)


def test_sweep_is_exact_on_linear_data():
    """With a riskless degenerate control the sweep is a known scalar map.

    Every step multiplies wealth by 1 + h r, and linear interpolation
    reproduces linear data exactly.  The constant closure past the right
    edge perturbs the last cell, and each sweep carries that influence
    one interpolation stencil inward, so exactness is asserted on the
    nodes whose reads stay inside the still-clean range.
    """
    model = merton_model(r=0.4, b=0.7, sigma=1.0, horizon=0.5, a_interval=(0.0, 0.0))
    terminal = types.SimpleNamespace(
        evaluate=lambda x: 0.25 * np.asarray(x, dtype=float)
    )
    disc = Discretization(
        steps=4,
        cells=10,
        dual_cells=10,
        order=4,
        primal_controls=3,
        dual_controls=1,
        x_max=2.0,
        y_max=2.0,
    )
    surface = solve(model, terminal, disc, "primal")
    factor = 1.0 + 0.125 * 0.4
    xs = np.asarray(surface.grid.nodes)
    clean = disc.cells
    for _ in range(disc.steps):
        clean = max(m for m in range(clean + 1) if math.ceil(m * factor) <= clean)
    assert clean == 6
    want = 0.25 * xs * factor**4
    assert np.max(np.abs(surface.data[0][: clean + 1] - want[: clean + 1])) < 1.0e-12
    # one step before maturity, one factor only
    keep1 = xs * factor <= 2.0
    assert np.max(np.abs(surface.data[3][keep1] - 0.25 * xs[keep1] * factor)) < 1.0e-12
    assert np.all(surface.controls == 0.0)


def test_origin_is_absorbing(merton):
    reward = lipschitz_truncate(power_utility(0.5), 1.6, 0.768)
    disc = Discretization(
        steps=3,
        cells=8,
        dual_cells=8,
        order=3,
        primal_controls=3,
        dual_controls=1,
        x_max=2.0,
        y_max=2.0,
    )
    surface = solve(merton, reward, disc, "primal")
    assert np.all(surface.data[:, 0] == reward.evaluate(0.0))


def test_solve_validation(merton):
    reward = lipschitz_truncate(power_utility(0.5), 1.6, 0.768)
    disc = Discretization(
        steps=2,
        cells=4,
        dual_cells=4,
        order=2,
        primal_controls=3,
        dual_controls=1,
        x_max=2.0,
        y_max=2.0,
    )
    with pytest.raises(ValueError):
        solve(merton, reward, disc, "sideways")
    bad = types.SimpleNamespace(
        evaluate=lambda x: np.full(np.shape(x), np.nan)
    )
    with pytest.raises(ValueError):
        solve(merton, bad, disc, "primal")


def test_solved_surface_is_frozen(merton):
    reward = lipschitz_truncate(power_utility(0.5), 1.6, 0.768)
    disc = Discretization(
        steps=2,
        cells=4,
        dual_cells=4,
        order=2,
        primal_controls=3,
        dual_controls=1,
        x_max=2.0,
        y_max=2.0,
    )
    surface = solve(merton, reward, disc, "primal")
    with pytest.raises(ValueError):
        surface.data[0, 0] = 1.0
    with pytest.raises(ValueError):
        surface.controls[0, 0] = 1.0


def _surface(data, direction):
    rows = np.asarray(data, dtype=float)
    return ValueSurface(
        grid=SpaceGrid(1.0, rows.shape[1] - 1),
        time=TimeGrid(1.0, rows.shape[0] - 1),
        data=rows,
        direction=direction,
        plateau=float(rows[-1, -1]),
    )


def test_validate_rejects_nonfinite():
    with pytest.raises(NumericalFailure):
        _surface([[0.0, np.nan, 2.0], [0.0, 1.0, 2.0]], "primal").validate()


def test_validate_rejects_decreasing_primal_row():
    with pytest.raises(NumericalFailure):
        _surface([[0.0, 2.0, 1.0], [0.0, 1.0, 2.0]], "primal").validate()


def test_validate_rejects_terminal_range_escape():
    with pytest.raises(NumericalFailure):
        _surface([[0.0, 1.0, 5.0], [0.0, 1.0, 2.0]], "primal").validate()


def test_validate_accepts_decreasing_dual_row():
    _surface([[3.0, 2.0, 1.0], [3.0, 2.0, 0.0]], "dual").validate()


def test_validate_tolerates_interpolation_slack():
    _surface([[0.0, 1.0, 1.0 - 5.0e-9], [0.0, 1.0, 2.0]], "primal").validate()


def test_enumerate_chain_shapes(merton):
    rule = gauss_hermite_rule(3)
    states, _, probs = enumerate_coupled(
        merton, rule, 2, 0.125, (1.5, 1.0), (0.5, -0.25), (0.0, 0.0)
    )
    assert states.shape == (9,)
    assert abs(float(probs.sum()) - 1.0) < 1.0e-12
    # depth-first order: children of branch i sit at positions 3 i + j
    f1 = step_factors(merton, 0.5, rule, 0.125, "primal")
    f2 = step_factors(merton, -0.25, rule, 0.125, "primal")
    want = np.repeat(1.5 * f1, 3) * np.tile(f2, 3)
    assert np.allclose(states, want, atol=1.0e-13)


def test_enumerate_chain_zero_steps(merton, rule2):
    xs, ys, probs = enumerate_coupled(merton, rule2, 0, 0.1, (2.0, 3.0), (), ())
    assert np.array_equal(xs, [2.0])
    assert np.array_equal(ys, [3.0])
    assert np.array_equal(probs, [1.0])


def test_enumerate_chain_policy_too_short(merton, rule2):
    with pytest.raises(ValueError):
        enumerate_coupled(merton, rule2, 2, 0.1, (1.0, 1.0), (0.0,), (0.0,))
    with pytest.raises(ValueError):
        enumerate_coupled(merton, rule2, -1, 0.1, (1.0, 1.0), (0.0,), (0.0,))


def test_enumeration_cap(merton):
    policy = (0.0,) * 13
    assert 4**13 > MAX_BRANCHES
    with pytest.raises(ResourceLimit):
        enumerate_coupled(merton, gauss_hermite_rule(4), 13, 0.01, (1.0, 1.0), policy, policy)


def test_enumerate_coupled_consistency(merton):
    rule = gauss_hermite_rule(3)
    xs, ys, probs = enumerate_coupled(merton, rule, 2, 0.125, (1.0, 1.0), (0.8, 0.8), (0.0, 0.0))
    assert xs.shape == ys.shape == probs.shape == (9,)
    # both chains take the same branch: children of branch i sit at 3 i + j
    fx = step_factors(merton, 0.8, rule, 0.125, "primal")
    fy = step_factors(merton, 0.0, rule, 0.125, "dual")
    assert np.allclose(xs, np.repeat(fx, 3) * np.tile(fx, 3), atol=1.0e-13)
    assert np.allclose(ys, np.repeat(fy, 3) * np.tile(fy, 3), atol=1.0e-13)
    assert np.allclose(probs, np.repeat(rule.weights, 3) * np.tile(rule.weights, 3), atol=1.0e-15)


def test_enumerate_coupled_validation(merton, rule2):
    """Each policy must cover the requested steps, the dual one included."""
    with pytest.raises(ValueError):
        enumerate_coupled(merton, rule2, 1, 0.1, (1.0, 1.0), (0.0,), ())


@settings(max_examples=25, deadline=None, derandomize=True)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_sweep_matches_exhaustive_enumeration(seed):
    """Random tiny problems, checked node by node against the naive sweep."""
    rng = np.random.default_rng(seed)
    model, terminal, disc, direction = oracles.random_setup(rng)
    surface = solve(model, terminal, disc, direction)
    nodes, want = oracles.naive_solve(
        model, terminal, disc, direction, gauss_hermite_rule(disc.order)
    )
    assert np.array_equal(np.asarray(surface.grid.nodes), nodes)
    assert float(np.max(np.abs(surface.data - want))) < 1.0e-9


def test_sweep_matches_enumeration_constrained_market():
    """One fixed constrained-market case, both directions."""
    model = cuoco_liu_model()
    reward = lipschitz_truncate(power_utility(0.5), 1.6, 0.768)
    disc = Discretization(
        steps=3,
        cells=9,
        dual_cells=9,
        order=3,
        primal_controls=3,
        dual_controls=3,
        x_max=2.0,
        y_max=2.0,
    )
    rule = gauss_hermite_rule(3)
    for direction, terminal in (("primal", reward), ("dual", conjugate_spec(reward))):
        surface = solve(model, terminal, disc, direction)
        _, want = oracles.naive_solve(model, terminal, disc, direction, rule)
        assert float(np.max(np.abs(surface.data - want))) < 1.0e-9


def test_dual_solve_ignores_the_primal_control_count():
    """The dual sweep reads the a interval only through the penalty conjugate."""
    model = cuoco_liu_model()
    terminal = conjugate_spec(lipschitz_truncate(power_utility(0.5), 1.6, 0.768))
    surfaces = [
        solve(
            model,
            terminal,
            Discretization(
                steps=3,
                cells=9,
                dual_cells=9,
                order=3,
                primal_controls=count,
                dual_controls=5,
                x_max=2.0,
                y_max=2.0,
            ),
            "dual",
        )
        for count in (2, 9)
    ]
    assert np.array_equal(surfaces[0].data, surfaces[1].data)
    assert np.array_equal(surfaces[0].controls, surfaces[1].controls)


def test_conjugate_is_evaluated_once_per_gamma(monkeypatch):
    """Constant coefficients: a dual solve builds its factors once, before the time loop."""
    calls = []

    def counting(*args):
        calls.append(args)
        return penalty_conjugate(*args)

    monkeypatch.setattr(solver, "penalty_conjugate", counting)
    monkeypatch.setattr(market, "penalty_conjugate", counting)
    model = cuoco_liu_model()
    terminal = conjugate_spec(lipschitz_truncate(power_utility(0.5), 1.6, 0.768))
    disc = refinement_ladder(2, 2)[0].discretization(2.0, 2.0)
    solve(model, terminal, disc, "dual")
    assert (disc.steps, disc.dual_controls) == (16, 5)
    assert len(calls) == disc.dual_controls
    calls.clear()
    dual_coefficient_bounds(model)
    assert len(calls) == 201


def test_non_finite_row_names_direction_level_and_time(monkeypatch):
    monkeypatch.setattr(
        solver, "dual_step", lambda row, *args: (np.full_like(row, np.nan), np.zeros_like(row))
    )
    terminal = conjugate_spec(lipschitz_truncate(power_utility(0.5), 1.6, 0.768))
    disc = Discretization(
        steps=4,
        cells=6,
        dual_cells=6,
        order=2,
        primal_controls=3,
        dual_controls=3,
        x_max=2.0,
        y_max=2.0,
    )
    message = "non-finite dual value row at time index 3 (N=4, J=6)"
    with pytest.raises(NumericalFailure, match=re.escape(message)):
        solve(cuoco_liu_model(), terminal, disc, "dual")


def test_surface_csv_schema(tmp_path, merton):
    reward = lipschitz_truncate(power_utility(0.5), 1.6, 0.768)
    disc = Discretization(
        steps=2,
        cells=4,
        dual_cells=4,
        order=2,
        primal_controls=3,
        dual_controls=1,
        x_max=2.0,
        y_max=2.0,
    )
    surface = solve(merton, reward, disc, "primal")
    path = tmp_path / "surface.csv"
    write_surface_csv(surface, path, header="unit test")
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# unit test"
    assert lines[1] == "t,x,value"
    assert len(lines) == 2 + 3 * 5
    first = lines[2].split(",")
    assert first[0] == "0.000000000000000e+00"
    assert len(first) == 3
