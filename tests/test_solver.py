"""Backward sweeps against exhaustive enumeration, chains, surfaces."""

import math
import re
import tracemalloc
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dualgap import (
    Discretization,
    NumericalFailure,
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
from dualgap import lattice, market, solver
from dualgap.cli import build_problem, load_config
from dualgap.lattice import locate
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
    # bit for bit in the product order 1 + h mu + ((sqrt(h) a) sigma) xi, at a sigma that
    # is not a power of two, where sqrt(h) (a sigma) moves last bits on this mesh
    model, step, rule = merton_model(sigma=0.3, b=1.1), 0.125, gauss_hermite_rule(4)
    r, b, sigma = model.rate, model.appreciation, model.vol
    a = control_mesh(model.a_interval, 17)[:, None]
    got = step_factors(model, a[:, 0], rule, step, "primal")
    drift = 1.0 + step * (r + a * (b - r) + 0.0)
    assert np.array_equal(got, drift + math.sqrt(step) * a * sigma * rule.nodes)
    assert not np.array_equal(got, drift + math.sqrt(step) * (a * sigma) * rule.nodes)


def test_step_factors_dual(merton, rule2):
    # drift 1 - h r, noise (r - b) / sigma per unit node
    got = step_factors(merton, 0.0, rule2, 0.1, "dual")
    noise = math.sqrt(0.1) * 0.4
    assert np.allclose(got, [0.92 + noise, 0.92 - noise], atol=1.0e-14)
    # bit for bit in the product order 1 - h (r + conj) + (sqrt(h) ((r - b - gamma) / sigma)) xi
    model, step, rule = cuoco_liu_model(sigma=0.3), 0.125, gauss_hermite_rule(4)
    r, b, sigma = model.rate, model.appreciation, model.vol
    gamma = control_mesh(model.gamma_interval, 17)
    conj = np.array([penalty_conjugate(model, g) for g in gamma.tolist()])[:, None]
    gamma = gamma[:, None]
    got = step_factors(model, gamma[:, 0], rule, step, "dual")
    drift = 1.0 - step * (r + conj)
    assert np.array_equal(got, drift + math.sqrt(step) * ((r - b - gamma) / sigma) * rule.nodes)
    assert not np.array_equal(got, drift + math.sqrt(step) * (r - b - gamma) / sigma * rule.nodes)


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
    """A constant row ties every control at every node; the row comes back unchanged."""
    model = cuoco_liu_model()
    rule = gauss_hermite_rule(3)
    grid = SpaceGrid(2.0, 8)
    row = np.full(grid.cells + 1, 0.75)
    interval = model.a_interval if direction == "primal" else model.gamma_interval
    controls = control_mesh(interval, 5)
    located = locate(grid, step_factors(model, controls, rule, 0.125, direction))
    sweep_step = primal_step if direction == "primal" else dual_step
    values = sweep_step(row, located, rule.weights, grid, 0.75)
    assert np.allclose(values, 0.75, rtol=0.0, atol=1.0e-14)


@pytest.mark.parametrize(
    "k, order",
    [pytest.param(k, None, id=str(k)) for k in (1, 2, 3, 4, 5)]
    + [pytest.param(k, m, id=f"{k}-M{m}") for m in (2, 5, 8, 20) for k in (1, 3)],
)
@pytest.mark.parametrize("direction", ["primal", "dual"])
@pytest.mark.parametrize("config", ["merton", "cuoco_liu"])
def test_solve_matches_the_np_interp_sweep_bit_for_bit(config, direction, k, order):
    """Stored brackets change where the search happens, not one bit of the surface.

    ``order`` None runs the config's own rule; the other orders change the
    branch count each block accumulates before the reduction over the mesh.
    At k = 5 the primal store spans blocks, and the sweep skips its
    dominated controls.
    """
    cfg = load_config(config)
    problem = build_problem(cfg)
    disc = refinement_ladder(k, k, order or cfg.M, cfg.x_max, cfg.y_max)[0]
    terminal = problem.reward if direction == "primal" else problem.conjugate
    got = solve(problem.model, terminal, disc, direction).data
    want = oracles.interp_solve(problem.model, terminal, disc, direction)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _pruned_solve(model, reward, disc):
    """The primal surface of ``solve`` and whether its store was a pruned one."""
    stores = []
    store = solver._primal_store

    def spy(*args):
        stores.append(store(*args))
        return stores[-1]

    with mock.patch.object(solver, "_primal_store", spy):
        data = solve(model, reward, disc, "primal").data
    return data, isinstance(stores[0], solver._Pruned)


@pytest.mark.parametrize(
    "k, order",
    [pytest.param(k, None, id=str(k)) for k in (1, 2, 3, 4, 5)]
    + [pytest.param(k, m, id=f"{k}-M{m}") for m in (2, 5, 8, 20) for k in (1, 3)],
)
@pytest.mark.parametrize("config", ["merton", "cuoco_liu"])
def test_the_pruned_primal_sweep_matches_the_np_interp_sweep_bit_for_bit(config, k, order):
    """48 located points per branch a block: every level's store spans blocks and is pruned."""
    cfg = load_config(config)
    problem = build_problem(cfg)
    disc = refinement_ladder(k, k, order or cfg.M, cfg.x_max, cfg.y_max)[0]
    with mock.patch.object(lattice, "_BLOCK", 48):
        got, pruned = _pruned_solve(problem.model, problem.reward, disc)
    assert pruned
    want = oracles.interp_solve(problem.model, problem.reward, disc, "primal")
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_the_certificate_keeps_the_bits_that_dropping_everywhere_moves(monkeypatch):
    """cuoco-liu k=3: next to the plateau cut a dominated control wins the rounded max.

    Skipping the dominated controls on every node moves node 106 at
    time index 17 first; the certified band reads them there.
    """
    cfg = load_config("cuoco_liu")
    problem = build_problem(cfg)
    disc = refinement_ladder(3, 3, cfg.M, cfg.x_max, cfg.y_max)[0]
    want = oracles.interp_solve(problem.model, problem.reward, disc, "primal")
    monkeypatch.setattr(lattice, "_BLOCK", 48)
    got, pruned = _pruned_solve(problem.model, problem.reward, disc)
    assert pruned and np.array_equal(got.view(np.uint64), want.view(np.uint64))
    monkeypatch.setattr(solver._Pruned, "band", lambda *args: ())
    dropped, _ = _pruned_solve(problem.model, problem.reward, disc)
    moved = np.argwhere(dropped != want)
    assert moved[np.argmax(moved[:, 0])].tolist() == [17, 106]


def _mesh_factors(model, k):
    cfg = load_config("merton")
    disc = refinement_ladder(k, k, cfg.M, cfg.x_max, cfg.y_max)[0]
    rule = gauss_hermite_rule(disc.order)
    mesh = control_mesh(model.a_interval, disc.controls)
    step = TimeGrid(model.horizon, disc.steps).step
    return mesh, step_factors(model, mesh, rule, step, "primal"), rule.weights


def test_the_bundled_merton_mesh_drops_exactly_its_negative_fractions():
    mesh, factors, weights = _mesh_factors(build_problem(load_config("merton")).model, 5)
    dominated, margin = solver.dominated_controls(factors, weights)
    assert mesh.size == 33 and dominated.sum() == 16
    assert np.array_equal(dominated, mesh < 0.0)
    assert 0.0 < margin < np.inf


def test_mirror_controls_tie_and_drop_nothing_where_b_equals_r():
    """b = r: controls a and -a share their sorted factor pairs, so neither beats the other."""
    mesh, factors, weights = _mesh_factors(merton_model(r=1.2, b=1.2), 5)
    dominated, margin = solver.dominated_controls(factors, weights)
    assert not dominated.any() and margin == np.inf


_ROW_STEP = st.one_of(
    st.sampled_from([0.0, 2.0**-52, -(2.0**-52), 2.0**-50]),
    st.floats(-1.0e-15, 0.5),
)
#: steps that keep a row rising by as little as an ulp, so every slope is positive
_RISE = st.one_of(st.sampled_from([2.0**-52, 2.0**-50]), st.floats(2.0**-52, 1.0e-6))
_GAP = st.one_of(st.sampled_from([2.0**-52, 2.0**-51]), st.floats(1.0e-16, 1.0e-9))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_pruned_step_is_the_full_mesh_step_bit_for_bit(data):
    """Any finite row, any factors: the certificate only skips controls that cannot win.

    Dominated controls sit an ulp to 1e-9 under a dominator on each
    branch, and the rows are flat, fall or climb by ulps in places, so
    the rounded max can pick a dominated control wherever the
    certificate does not hold: where a slope is not positive, or where
    the margin is within the rounding bound.
    """
    grid = SpaceGrid(data.draw(st.floats(0.5, 64.0)), data.draw(st.integers(2, 40)))
    rule = gauss_hermite_rule(data.draw(st.integers(2, 6)))
    factor = st.floats(-0.25, 2.0)
    kept = [data.draw(st.lists(factor, min_size=rule.order, max_size=rule.order)) for _ in range(2)]
    dominated = []
    for _ in range(data.draw(st.integers(1, 6))):
        over = kept[data.draw(st.integers(0, 1))]
        gaps = data.draw(st.lists(_GAP, min_size=rule.order, max_size=rule.order))
        under = np.subtract(over, gaps)
        # mirrored, the branches of a pair swap: the sorted pairs stay, the sums' order does not
        dominated.append(under[::-1] if data.draw(st.booleans()) else under)
    factors = np.array(data.draw(st.permutations(kept + dominated)))
    step = data.draw(st.sampled_from([_ROW_STEP, _RISE]))
    steps = data.draw(st.lists(step, min_size=grid.cells, max_size=grid.cells))
    scale = data.draw(st.sampled_from([1.0, 1.0e-300, 1.0e300]))
    row = scale * (1.0 + np.concatenate([[0.0], np.cumsum(steps)]))
    stop = data.draw(st.integers(0, grid.cells + 1))
    with mock.patch.object(lattice, "_BLOCK", data.draw(st.integers(1, 64))):
        store = solver._primal_store(grid, factors, rule.weights, stop)
        full = locate(grid, factors, stop)
    cut = data.draw(st.integers(0, stop))
    got = primal_step(row, store.below(cut), rule.weights, grid, float(row[-1]))
    want = primal_step(row, full.below(cut), rule.weights, grid, float(row[-1]))
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _plateau_case(model, reward, disc):
    """The referee's certified cuts and the production surface of one primal level."""
    rule = gauss_hermite_rule(disc.order)
    grid = SpaceGrid(disc.x_max, disc.cells)
    mesh = control_mesh(model.a_interval, disc.controls)
    factors = step_factors(model, mesh, rule, TimeGrid(model.horizon, disc.steps).step, "primal")
    bottom = reward.evaluate(grid.nodes)
    want = oracles.interp_plateau_cuts(grid, factors, bottom, disc.steps)
    got = solver.plateau_cuts(grid, factors, bottom, disc.steps)
    assert got.tolist() == want
    return want, solve(model, reward, disc, "primal").data


@pytest.mark.parametrize("k", [3, 4, 5])
@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("config", ["merton", "cuoco_liu"])
def test_primal_rows_are_the_plateau_exactly_from_the_certified_cut(config, order, k):
    """From m*_n on, every primal row is U(rho) bit for bit, not U(rho)(1 + O(eps))."""
    cfg = load_config(config)
    problem = build_problem(cfg)
    disc = refinement_ladder(k, k, order, cfg.x_max, cfg.y_max)[0]
    cuts, data = _plateau_case(problem.model, problem.reward, disc)
    plateau = np.full(disc.cells + 1, data[-1, -1])
    assert cuts[0] <= disc.cells  # even at t = 0 the certificate holds a node
    for row, cut in zip(data, cuts):
        assert np.array_equal(row[cut:].view(np.uint64), plateau[cut:].view(np.uint64))


@pytest.mark.parametrize("k", [3, 4, 5])
@pytest.mark.parametrize("order", [2, 4])
def test_a_convex_kink_shrinks_the_certificate_and_keeps_the_referee_bits(order, k):
    """r + g(0) = -0.1 < 0, so f* < 1: each step certifies fewer nodes, none at t = 0."""
    model = cuoco_liu_model(r=0.3, borrowing_rate=0.7)
    reward = lipschitz_truncate(power_utility(0.5), 18.0, 8.0)
    disc = refinement_ladder(k, k, order, 20.0, 4.0)[0]
    cuts, data = _plateau_case(model, reward, disc)
    assert cuts == sorted(cuts, reverse=True) and cuts[-1] < cuts[0] == disc.cells + 1
    want = oracles.interp_solve(model, reward, disc, "primal")
    assert np.array_equal(data.view(np.uint64), want.view(np.uint64))


_FACTOR = st.one_of(
    st.floats(-4.0, 4.0, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 1.0, 5.0e-324]),
)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_plateau_cuts_are_the_store_scan_of_every_bracket(data):
    """The bracket of f* x_m is the store's max-min bracket, so its reach needs no suffix minimum."""
    grid = SpaceGrid(data.draw(st.floats(0.125, 64.0)), data.draw(st.integers(1, 40)))
    controls, branches = data.draw(st.integers(1, 9)), data.draw(st.integers(2, 20))
    size = controls * branches
    factors = np.array(data.draw(st.lists(_FACTOR, min_size=size, max_size=size)))
    factors = factors.reshape(controls, branches)
    flat = data.draw(st.integers(0, grid.cells))  # the terminal row is flat from this node on
    bottom = np.minimum(np.arange(grid.cells + 1.0), flat)
    steps = data.draw(st.integers(1, 8))
    reach, _ = lattice.bracket(grid, factors.min(axis=1).max() * grid.nodes)
    assert np.all(np.diff(reach) >= 0)
    with mock.patch.object(lattice, "_BLOCK", data.draw(st.integers(1, 64))):
        located = locate(grid, factors)  # the oracle reads every block of a full store
    want = oracles.store_plateau_cuts(located, bottom, steps)
    assert solver.plateau_cuts(grid, factors, bottom, steps).tolist() == want.tolist()


def test_a_slope_past_the_float_range_certifies_nothing():
    """Row slopes of 3.2e308 overflow in the certificate, not in the weighted read tables."""
    grid = SpaceGrid(1.0, 4)
    rule = gauss_hermite_rule(4)
    factors = np.array([[0.9, 1.05, 1.15, 1.25], [1.0, 1.1, 1.2, 1.3]])
    row = np.array([0.0, 0.8e308, 0.9e308, 1.0e308, 1.1e308])
    with mock.patch.object(lattice, "_BLOCK", 4):  # four nodes per block of one control
        store = solver._primal_store(grid, factors, rule.weights, grid.cells + 1)
    assert isinstance(store, solver._Pruned)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        band = store.band(grid, row, rule.order)
        assert [(span.start, span.stop) for span, _, _ in band] == [(1, 4), (4, 5)]
        got = primal_step(row, store, rule.weights, grid, float(row[-1]))
        want = primal_step(row, locate(grid, factors), rule.weights, grid, float(row[-1]))
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_primal_step_holds_one_block_at_a_time():
    """A merton k=5 step allocates block temporaries, not (controls x nodes) arrays."""
    cfg = load_config("merton")
    problem = build_problem(cfg)
    disc = refinement_ladder(5, 5, cfg.M, cfg.x_max, cfg.y_max)[0]
    rule = gauss_hermite_rule(disc.order)
    grid = SpaceGrid(disc.x_max, disc.cells)
    mesh = control_mesh(problem.model.a_interval, disc.controls)
    step = TimeGrid(problem.model.horizon, disc.steps).step
    located = locate(grid, step_factors(problem.model, mesh, rule, step, "primal"))
    row = problem.reward.evaluate(grid.nodes)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        primal_step(row, located, rule.weights, grid, float(row[-1]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (mesh.size, grid.cells) == (33, 790)
    assert peak - before < 0.25 * 2**20


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
        controls=3,
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


def test_origin_is_absorbing(merton):
    reward = lipschitz_truncate(power_utility(0.5), 1.6, 0.768)
    disc = Discretization(
        steps=3,
        cells=8,
        dual_cells=8,
        order=3,
        controls=3,
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
        controls=3,
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
        controls=3,
        x_max=2.0,
        y_max=2.0,
    )
    surface = solve(merton, reward, disc, "primal")
    with pytest.raises(ValueError):
        surface.data[0, 0] = 1.0


def _surface(data, direction):
    rows = np.asarray(data, dtype=float)
    return ValueSurface(
        grid=SpaceGrid(1.0, rows.shape[1] - 1),
        time=TimeGrid(1.0, rows.shape[0] - 1),
        data=rows,
        direction=direction,
    )


def test_validate_rejects_nonfinite():
    message = "primal value surface has a non-finite entry at time index 0, node 1 (N=1, J=2)"
    with pytest.raises(NumericalFailure, match=re.escape(message)):
        _surface([[0.0, np.nan, 2.0], [0.0, 1.0, 2.0]], "primal").validate()


def test_validate_names_the_direction_of_a_nonfinite_dual_entry():
    message = "dual value surface has a non-finite entry at time index 1, node 2 (N=2, J=2)"
    with pytest.raises(NumericalFailure, match=re.escape(message)):
        _surface([[3.0, 2.0, 1.0], [3.0, 2.0, np.inf], [3.0, 2.0, 0.0]], "dual").validate()


def test_validate_rejects_decreasing_primal_row():
    message = "primal surface decreasing in space at time index 0, node 1 (N=1, J=2)"
    with pytest.raises(NumericalFailure, match=re.escape(message)):
        _surface([[0.0, 2.0, 1.0], [0.0, 1.0, 2.0]], "primal").validate()


def test_validate_names_the_first_steepest_decrease():
    """Rows are checked one at a time; the reported node is the flattened argmin's."""
    rows = [
        [0.0, 1.0, 0.5, 3.0],
        [1.0, 2.0, 3.0, 2.0],
        [2.0, 1.0, 2.0, 3.0],
        [0.0, 1.0, 2.0, 3.0],
    ]
    message = "primal surface decreasing in space at time index 1, node 2 (N=3, J=3)"
    with pytest.raises(NumericalFailure, match=re.escape(message)):
        _surface(rows, "primal").validate()


def test_validate_rejects_terminal_range_escape():
    message = r"primal surface leaves the terminal range \[.*\] "
    where = re.escape("at time index 0, node 2 (N=1, J=2)")
    with pytest.raises(NumericalFailure, match=message + where):
        _surface([[0.0, 1.0, 5.0], [0.0, 1.0, 2.0]], "primal").validate()


def test_validate_accepts_decreasing_dual_row():
    _surface([[3.0, 2.0, 1.0], [3.0, 2.0, 0.0]], "dual").validate()


def test_validate_tolerates_interpolation_slack():
    _surface([[0.0, 1.0, 1.0 - 5.0e-9], [0.0, 1.0, 2.0]], "primal").validate()


def test_validate_scales_its_slack_with_the_terminal_row():
    """A surface 8 ulps above a terminal max of 6.3e149 and a row step of -1e134 are rounding."""
    top = 6.324555320336759e149
    over = top * (1.0 + 8 * 2.0**-52)
    _surface([[0.0, over - 1.0e134, over], [0.0, top, top]], "primal").validate()
    message = r"primal surface leaves the terminal range \[.*\] "
    where = re.escape("at time index 0, node 2 (N=1, J=2)")
    with pytest.raises(NumericalFailure, match=message + where):
        _surface([[0.0, top, top * (1.0 + 2.0e-8)], [0.0, top, top]], "primal").validate()


def test_a_large_scale_merton_surface_validates_at_level_5():
    """x_max = 1e300, rho = 1e299: the level-5 surface is within 1.1e-15 of its terminal range."""
    cfg = load_config("merton")
    model = merton_model()
    reward = lipschitz_truncate(power_utility(0.5), 1.0e299, 8.0)
    disc = refinement_ladder(5, 5, cfg.M, 1.0e300, cfg.y_max)[0]
    data = solve(model, reward, disc, "primal").data
    assert data.max() > data[-1].max()


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
    message = f"4^13 = 67108864 chain branches exceed the cap of {MAX_BRANCHES}"
    with pytest.raises(NumericalFailure, match=f"^{re.escape(message)}$"):
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
        controls=3,
        x_max=2.0,
        y_max=2.0,
    )
    rule = gauss_hermite_rule(3)
    for direction, terminal in (("primal", reward), ("dual", conjugate_spec(reward))):
        surface = solve(model, terminal, disc, direction)
        _, want = oracles.naive_solve(model, terminal, disc, direction, rule)
        assert float(np.max(np.abs(surface.data - want))) < 1.0e-9


def test_merton_dual_solve_ignores_the_control_count(merton):
    """Merton's gamma interval is one point, so any control count searches that point alone."""
    terminal = conjugate_spec(lipschitz_truncate(power_utility(0.5), 1.6, 0.768))
    surfaces = [
        solve(
            merton,
            terminal,
            Discretization(
                steps=3,
                cells=9,
                dual_cells=9,
                order=3,
                controls=count,
                x_max=2.0,
                y_max=2.0,
            ),
            "dual",
        )
        for count in (2, 9)
    ]
    assert np.array_equal(surfaces[0].data, surfaces[1].data)


def test_conjugate_is_evaluated_once_per_solve(monkeypatch):
    """One vectorised conjugate call per dual solve, per dual bounds and per enumeration."""
    calls = []

    def counting(*args):
        calls.append(args)
        return penalty_conjugate(*args)

    monkeypatch.setattr(market, "penalty_conjugate", counting)
    model = cuoco_liu_model()
    terminal = conjugate_spec(lipschitz_truncate(power_utility(0.5), 1.6, 0.768))
    disc = refinement_ladder(2, 2, 4, 2.0, 2.0)[0]
    solve(model, terminal, disc, "dual")
    assert (disc.steps, disc.controls) == (16, 5)
    assert len(calls) == 1
    assert calls[0][1].size == disc.controls
    calls.clear()
    dual_coefficient_bounds(model)
    assert len(calls) == 1
    # the ends, then the vertex slopes inside
    assert calls[0][1] == pytest.approx([-1.0, 1.0, 0.65, 0.2], abs=1.0e-15)
    calls.clear()
    policy = (0.5, -0.25, 0.0, 1.0)
    enumerate_coupled(model, gauss_hermite_rule(3), 4, 0.125, (1.0, 1.0), policy, policy)
    assert len(calls) == 1


def test_enumerate_coupled_matches_the_per_step_factors(cuoco):
    """One factor call per chain gives the states of one call per step, bit for bit."""
    rule = gauss_hermite_rule(3)
    primal_policy, dual_policy = (0.5, -0.25, 1.0, 0.0), (-1.0, 0.2, 0.5, 0.0)
    xs, ys, probs = enumerate_coupled(cuoco, rule, 3, 0.125, (1.5, 2.0), primal_policy, dual_policy)
    want_x, want_y = np.array([1.5]), np.array([2.0])
    for a, gamma in zip(primal_policy[:3], dual_policy[:3]):
        want_x = np.outer(want_x, step_factors(cuoco, a, rule, 0.125, "primal")).ravel()
        want_y = np.outer(want_y, step_factors(cuoco, gamma, rule, 0.125, "dual")).ravel()
    assert np.array_equal(xs, want_x)
    assert np.array_equal(ys, want_y)
    assert probs.shape == (27,)


def test_a_library_solve_reports_its_own_overflow():
    """No caller's errstate needed: the sweep raises its floating-point errors itself."""
    cfg = load_config("merton")
    conjugate = build_problem(cfg).conjugate
    disc = refinement_ladder(1, 1, cfg.M, cfg.x_max, cfg.y_max)[0]
    message = (
        "dual sweep: overflow encountered in multiply at time index 6 (N=8, J=12); "
        "largest |branch factor| = 2.33441e+299"
    )
    with pytest.raises(NumericalFailure, match=f"^{re.escape(message)}$"):
        solve(merton_model(sigma=1e-300), conjugate, disc, "dual")


def test_non_finite_row_names_direction_level_and_time(monkeypatch):
    """A step that returns NaN without an FP error is caught by the surface check."""
    monkeypatch.setattr(solver, "dual_step", lambda row, *args: np.full_like(row, np.nan))
    terminal = conjugate_spec(lipschitz_truncate(power_utility(0.5), 1.6, 0.768))
    disc = Discretization(
        steps=4,
        cells=6,
        dual_cells=6,
        order=2,
        controls=3,
        x_max=2.0,
        y_max=2.0,
    )
    message = "dual value surface has a non-finite entry at time index 0, node 0 (N=4, J=6)"
    with pytest.raises(NumericalFailure, match=re.escape(message)):
        solve(cuoco_liu_model(), terminal, disc, "dual")


def test_surface_csv_schema(tmp_path, merton):
    reward = lipschitz_truncate(power_utility(0.5), 1.6, 0.768)
    disc = Discretization(
        steps=2,
        cells=4,
        dual_cells=4,
        order=2,
        controls=3,
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
    # first time block, t = 0: x runs over linspace(0, 2, 5); x = 0 absorbs the reward 0
    assert lines[2] == "0.000000000000000e+00,0.000000000000000e+00,0.000000000000000e+00"
    assert [line.rsplit(",", 1)[0] for line in lines[2:7]] == [
        "0.000000000000000e+00,0.000000000000000e+00",
        "0.000000000000000e+00,5.000000000000000e-01",
        "0.000000000000000e+00,1.000000000000000e+00",
        "0.000000000000000e+00,1.500000000000000e+00",
        "0.000000000000000e+00,2.000000000000000e+00",
    ]
    assert lines[7].startswith("2.500000000000000e-01,0.000000000000000e+00,")
    assert all(len(line.split(",")) == 3 for line in lines[2:])


def test_surface_csv_is_streamed(tmp_path):
    """Writing a surface holds a row at a time, not the whole file."""
    time = TimeGrid(0.5, 128)
    grid = SpaceGrid(2.0, 1024)
    data = np.tile(np.sqrt(grid.nodes), (time.steps + 1, 1))
    surface = ValueSurface(grid=grid, time=time, data=data, direction="primal")
    path = tmp_path / "surface.csv"
    tracemalloc.start()
    try:
        write_surface_csv(surface, path, "streamed")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    with path.open(encoding="utf-8") as fh:
        assert sum(1 for _ in fh) == 2 + 129 * 1025


def _surface_csv_matches_the_per_cell_writer(tmp_path, config, direction, level):
    cfg = load_config(config)
    problem = build_problem(cfg)
    disc = refinement_ladder(level, level, cfg.M, cfg.x_max, cfg.y_max)[0]
    terminal = problem.reward if direction == "primal" else problem.conjugate
    surface = solve(problem.model, terminal, disc, direction)
    path = tmp_path / "surface.csv"
    write_surface_csv(surface, path, f"{config} {direction}")
    assert path.read_bytes() == oracles.surface_csv_text(surface, f"{config} {direction}").encode()


@pytest.mark.parametrize("direction", ["primal", "dual"])
@pytest.mark.parametrize("config", ["merton", "cuoco_liu"])
def test_surface_csv_matches_the_per_cell_writer(tmp_path, config, direction):
    _surface_csv_matches_the_per_cell_writer(tmp_path, config, direction, 3)


@pytest.mark.parametrize("direction", ["primal", "dual"])
@pytest.mark.parametrize("config", ["merton", "cuoco_liu"])
def test_surface_csv_matches_the_per_cell_writer_at_level_5(tmp_path, config, direction):
    """The size the benchmark writes, with cells the digit path leaves to %."""
    _surface_csv_matches_the_per_cell_writer(tmp_path, config, direction, 5)


def test_surface_csv_special_values_match_the_per_cell_writer(tmp_path):
    """Values no solve returns (never validated) keep the per-cell writer's bytes."""
    specials = [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e300, -1e300, 0.1]
    data = np.array([specials, specials[::-1]])
    surface = ValueSurface(
        grid=SpaceGrid(7.0, 7), time=TimeGrid(0.5, 1), data=data, direction="dual"
    )
    path = tmp_path / "surface.csv"
    write_surface_csv(surface, path, "specials")
    text = path.read_text(encoding="utf-8")
    assert text == oracles.surface_csv_text(surface, "specials")
    assert text.splitlines()[2:10] == [
        "0.000000000000000e+00,0.000000000000000e+00,nan",
        "0.000000000000000e+00,1.000000000000000e+00,inf",
        "0.000000000000000e+00,2.000000000000000e+00,-inf",
        "0.000000000000000e+00,3.000000000000000e+00,-0.000000000000000e+00",
        "0.000000000000000e+00,4.000000000000000e+00,4.940656458412465e-324",
        "0.000000000000000e+00,5.000000000000000e+00,1.000000000000000e+300",
        "0.000000000000000e+00,6.000000000000000e+00,-1.000000000000000e+300",
        "0.000000000000000e+00,7.000000000000000e+00,1.000000000000000e-01",
    ]
