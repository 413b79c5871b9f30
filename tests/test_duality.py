"""Duality gaps, two-sided bounds, and the coupled product chain."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualgap import (
    BoundReport,
    GapReport,
    NumericalFailure,
    SpaceGrid,
    TimeGrid,
    ValueSurface,
    aposteriori_bounds,
    cuoco_liu_model,
    duality_gap,
    gauss_hermite_rule,
    merton_model,
    polar_defect,
    write_gap_csv,
)
from dualgap.solver import enumerate_coupled


def _flat_surface(direction, length, cells, rows, steps=2):
    data = np.tile(np.asarray(rows, dtype=float), (steps + 1, 1))
    return ValueSurface(
        grid=SpaceGrid(length, cells),
        time=TimeGrid(0.5, steps),
        data=data,
        direction=direction,
    )


def test_gap_against_zero_dual_surface():
    """With a vanishing dual surface the conjugate readout is x y_1."""
    primal = _flat_surface("primal", 2.0, 4, [0.0] * 5)
    dual = _flat_surface("dual", 1.0, 4, [0.0] * 5)
    report = duality_gap(primal, dual, 0)
    assert np.array_equal(report.x, [0.5, 1.0, 1.5, 2.0])
    assert np.allclose(report.gap, 0.25 * report.x, atol=1.0e-14)
    assert np.all(report.argmin_y == 0.25)
    assert np.all(report.boundary_hit)


def test_gap_tie_keeps_smallest_index():
    """A dual row with slope -1 makes every y tie at x = 1."""
    primal = _flat_surface("primal", 2.0, 2, [0.0, 0.0, 0.0])
    ys = np.linspace(0.0, 1.0, 5)
    dual = _flat_surface("dual", 1.0, 4, list(1.0 - ys))
    report = duality_gap(primal, dual, 0)
    at_one = int(np.argwhere(np.isclose(report.x, 1.0))[0][0])
    assert report.argmin_y[at_one] == 0.25
    assert report.gap[at_one] == pytest.approx(1.0, abs=1.0e-14)


def test_gap_readout_in_row_chunks_matches_the_whole_minimand(merton_gap_levels):
    """Chunking the x rows changes nothing: same expression per row, same ties."""
    _, primal, dual, report = merton_gap_levels[-1]
    xs, ys = primal.grid.nodes[1:], dual.grid.nodes[1:]
    assert xs.size * ys.size > 16 * 8192  # many chunks
    minimand = dual.data[0, 1:][None, :] + xs[:, None] * ys[None, :]
    pick = np.argmin(minimand, axis=1)
    gap = minimand[np.arange(xs.size), pick] - primal.data[0, 1:]
    assert np.array_equal(report.gap.view(np.uint64), gap.view(np.uint64))
    assert np.array_equal(report.argmin_y, ys[pick])
    assert np.array_equal(report.boundary_hit, (pick == 0) | (pick == ys.size - 1))


def test_gap_validation():
    primal = _flat_surface("primal", 2.0, 4, [0.0] * 5)
    dual = _flat_surface("dual", 1.0, 4, [0.0] * 5)
    with pytest.raises(ValueError):
        duality_gap(dual, primal, 0)
    other = _flat_surface("dual", 1.0, 4, [0.0] * 5, steps=3)
    with pytest.raises(ValueError):
        duality_gap(primal, other, 0)
    with pytest.raises(ValueError):
        duality_gap(primal, dual, 3)
    with pytest.raises(ValueError):
        duality_gap(primal, dual, -1)


def test_gap_on_solved_surfaces_is_positive(merton_gap_levels):
    _, _, _, report = merton_gap_levels[0]
    assert np.all(report.gap > 0.0)
    assert np.all(report.argmin_y >= 0.0)


def _toy_report():
    return GapReport(
        x=np.array([1.0]),
        gap=np.array([0.5]),
        argmin_y=np.array([1.0]),
        boundary_hit=np.array([False]),
    )


def test_bounds_collapse_without_constants():
    bounds = aposteriori_bounds(
        _toy_report(),
        order=4,
        step=0.015625,
        spacing=0.015625,
        lip_primal=3.0,
        lip_dual=18.0,
        c_primal=0.0,
        c_dual=0.0,
        allowance=np.zeros(1),
    )
    assert bounds.lower[0] == 0.0
    assert bounds.upper[0] == 0.5


def test_bounds_rate_arithmetic():
    """Both sides carry (1 + s^8) times the mixed rate, by hand."""
    step = 1.0 / 64.0
    bounds = aposteriori_bounds(
        _toy_report(),
        order=4,
        step=step,
        spacing=step,
        lip_primal=3.0,
        lip_dual=3.0,
        c_primal=1.0,
        c_dual=1.0,
        allowance=np.zeros(1),
    )
    rate = step**0.375 + 1.0
    assert bounds.lower[0] == pytest.approx(-3.0 * 2.0 * rate, abs=1.0e-12)
    assert bounds.upper[0] == pytest.approx(0.5 + 3.0 * 2.0 * rate, abs=1.0e-12)
    assert bounds.upper[0] > bounds.lower[0]


def test_bounds_allowance_forms():
    base = aposteriori_bounds(
        _toy_report(),
        order=4,
        step=0.25,
        spacing=0.25,
        lip_primal=1.0,
        lip_dual=1.0,
        c_primal=0.0,
        c_dual=0.0,
        allowance=np.zeros(1),
    )
    shifted = aposteriori_bounds(
        _toy_report(),
        order=4,
        step=0.25,
        spacing=0.25,
        lip_primal=1.0,
        lip_dual=1.0,
        c_primal=0.0,
        c_dual=0.0,
        allowance=np.array([0.25]),
    )
    assert shifted.upper[0] == pytest.approx(base.upper[0] + 0.25, abs=1.0e-14)


def test_bounds_validation():
    with pytest.raises(ValueError):
        aposteriori_bounds(
            _toy_report(),
            order=4,
            step=0.0,
            spacing=0.25,
            lip_primal=1.0,
            lip_dual=1.0,
            c_primal=1.0,
            c_dual=1.0,
            allowance=np.zeros(1),
        )
    with pytest.raises(ValueError):
        aposteriori_bounds(
            _toy_report(),
            order=0,
            step=0.25,
            spacing=0.25,
            lip_primal=1.0,
            lip_dual=1.0,
            c_primal=1.0,
            c_dual=1.0,
            allowance=np.zeros(1),
        )
    with pytest.raises(ValueError):
        aposteriori_bounds(
            _toy_report(),
            order=4,
            step=0.25,
            spacing=0.25,
            lip_primal=1.0,
            lip_dual=1.0,
            c_primal=1.0,
            c_dual=1.0,
            allowance=np.array([0.1, 0.2]),
        )


def test_polar_closed_form_merton():
    """Constant-policy product chains decay by 1 - h^2 r mu per step.

    The quadrature matches the first three normal moments exactly, so
    each per-step branch mean of the coupled product is exact, and their
    product must agree with the closed form to roundoff.
    """
    model = merton_model()
    x0, y0 = 1.5, 0.7
    for order in (2, 3):
        rule = gauss_hermite_rule(order)
        for a, steps, step in ((0.8, 3, 0.1), (-0.5, 2, 0.2), (0.0, 1, 0.5)):
            mu = 0.8 + a * 0.4
            expect, defect = polar_defect(
                model,
                rule,
                steps,
                step,
                (x0, y0),
                (a,) * steps,
                (0.0,) * steps,
            )
            want = x0 * y0 * (1.0 - step * step * 0.8 * mu) ** steps
            assert expect == pytest.approx(want, abs=1.0e-12)
            assert defect == pytest.approx(want - x0 * y0, abs=1.0e-12)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    constrained=st.booleans(),
    order=st.integers(2, 5),
    steps=st.integers(0, 7),
    start=st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)),
    data=st.data(),
)
def test_polar_product_form_matches_the_enumerated_branches(constrained, order, steps, start, data):
    """The product of per-step branch means is the enumerator's E[X Y] to roundoff."""
    model = cuoco_liu_model() if constrained else merton_model()
    step = 0.5 / max(steps, 1)
    policy = st.lists(st.floats(*model.a_interval), min_size=steps, max_size=steps)
    dual = st.lists(st.floats(*model.gamma_interval), min_size=steps, max_size=steps)
    primal_policy, dual_policy = tuple(data.draw(policy)), tuple(data.draw(dual))
    rule = gauss_hermite_rule(order)
    expect, defect = polar_defect(model, rule, steps, step, start, primal_policy, dual_policy)
    xs, ys, probs = enumerate_coupled(model, rule, steps, step, start, primal_policy, dual_policy)
    assert expect == pytest.approx(float(np.sum(probs * xs * ys)), abs=1.0e-14)
    assert defect == expect - start[0] * start[1]


def test_polar_product_form_beyond_the_enumerator():
    """4^40 branches, which no enumeration reaches, against x y (1 - h^2 r mu)^N."""
    model = merton_model()
    x0, y0, a, steps = 1.5, 0.7, 0.8, 40
    step = 0.5 / steps
    mu = 0.8 + a * 0.4
    expect, defect = polar_defect(
        model, gauss_hermite_rule(4), steps, step, (x0, y0), (a,) * steps, (0.0,) * steps
    )
    want = x0 * y0 * (1.0 - step * step * 0.8 * mu) ** steps
    assert expect == pytest.approx(want, rel=1.0e-14)
    assert defect == pytest.approx(want - x0 * y0, abs=1.0e-14)


def bits(value):
    """The bytes of a float64, so that -0.0 and 0.0 (and any two NaNs) compare as they are stored."""
    return np.float64(value).tobytes()


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    constrained=st.booleans(),
    order=st.sampled_from([2, 4, 5, 20]),
    steps=st.integers(0, 8),
    draws=st.integers(1, 16),
    extra=st.integers(0, 2),
    start=st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)),
    data=st.data(),
)
def test_a_batch_of_draws_is_each_draw_bit_for_bit(
    constrained, order, steps, draws, extra, start, data
):
    """Policies shaped (draws, L >= steps) give each draw's single-call floats, bit for bit.

    Merton's gamma interval is the point 0, so its dual policies are all 0.
    """
    model = cuoco_liu_model() if constrained else merton_model()
    rule = gauss_hermite_rule(order)
    step = 0.5 / max(steps, 1)

    def policies(lo, hi):
        row = st.lists(st.floats(lo, hi), min_size=steps + extra, max_size=steps + extra)
        return np.array(data.draw(st.lists(row, min_size=draws, max_size=draws))).reshape(draws, -1)

    primal, dual = policies(*model.a_interval), policies(*model.gamma_interval)
    expect, defect = polar_defect(model, rule, steps, step, start, primal, dual)
    assert expect.shape == defect.shape == (draws,)
    for i in range(draws):
        one = polar_defect(model, rule, steps, step, start, tuple(primal[i]), tuple(dual[i]))
        assert all(isinstance(value, float) for value in one)
        assert (bits(expect[i]), bits(defect[i])) == (bits(one[0]), bits(one[1]))
    nested = polar_defect(
        model, rule, steps, step, start, primal[:, None], dual[:, None]
    )
    assert [bits(v) for v in nested[0].ravel()] == [bits(v) for v in expect]
    assert nested[0].shape == (draws, 1)


def test_a_batch_overflow_names_its_first_overflowing_draw():
    """sigma = 1e100: a = 0 keeps the means finite, a != 0 leaves a rounding residual near 1e82.

    The batch raises what a call on its first overflowing draw raises,
    not its largest mean over every draw (6.07084e+82 at a = 1).
    """
    model, rule = merton_model(sigma=1e100), gauss_hermite_rule(4)
    primal = np.array([[0.0] * 4, [0.5] * 4, [1.0] * 4])
    dual = np.zeros((3, 4))
    expect, _ = polar_defect(model, rule, 4, 0.125, (1.0, 1.0), primal[0], dual[0])
    assert math.isfinite(expect)
    message = (
        "polar check: overflow encountered in reduce (N=4); largest |branch mean| = 3.03542e+82"
    )
    for policies in ((primal[1], dual[1]), (primal, dual), (primal[:, None], dual[:, None])):
        with pytest.raises(NumericalFailure, match=f"^{re.escape(message)}$"):
            polar_defect(model, rule, 4, 0.125, (1.0, 1.0), *policies)


def test_mismatched_policy_batches_are_refused_by_shape():
    model, rule = merton_model(), gauss_hermite_rule(2)
    with pytest.raises(ValueError, match=re.escape("primal (3,), dual (2,)")):
        polar_defect(model, rule, 2, 0.1, (1.0, 1.0), np.zeros((3, 2)), np.zeros((2, 2)))
    with pytest.raises(ValueError, match=re.escape("primal (3,), dual ()")):
        polar_defect(model, rule, 2, 0.1, (1.0, 1.0), np.zeros((3, 2)), np.zeros(2))
    with pytest.raises(ValueError, match="both policies must cover 2 steps"):
        polar_defect(model, rule, 2, 0.1, (1.0, 1.0), np.zeros((3, 2)), np.zeros((3, 1)))


def test_polar_validation():
    model, rule = merton_model(), gauss_hermite_rule(2)
    with pytest.raises(ValueError, match="step count must be nonnegative, got -1"):
        polar_defect(model, rule, -1, 0.1, (1.0, 1.0), (0.0,), (0.0,))
    with pytest.raises(ValueError, match="both policies must cover 2 steps"):
        polar_defect(model, rule, 2, 0.1, (1.0, 1.0), (0.0, 0.0), (0.0,))
    with pytest.raises(ValueError, match="both policies must cover 2 steps"):
        polar_defect(model, rule, 2, 0.1, (1.0, 1.0), (0.0,), (0.0, 0.0))


def test_a_library_polar_defect_reports_its_own_overflow():
    """Branch means of about 1e283 overflow the product whatever the caller's errstate."""
    model, rule = merton_model(sigma=1e-300), gauss_hermite_rule(4)
    message = (
        "polar check: overflow encountered in reduce (N=2); "
        "largest |branch mean| = 9.29386e+282"
    )
    with pytest.raises(NumericalFailure, match=f"^{re.escape(message)}$"):
        polar_defect(model, rule, 2, 0.25, (1.0, 1.0), (0.0, 0.0), (0.0, 0.0))


def test_polar_zero_policy_single_step():
    model = merton_model()
    _, defect = polar_defect(
        model, gauss_hermite_rule(2), 1, 0.5, (1.0, 1.0), (0.0,), (0.0,)
    )
    assert defect == pytest.approx(-0.16, abs=1.0e-14)


def test_polar_zero_start():
    model = merton_model()
    expect, defect = polar_defect(
        model, gauss_hermite_rule(3), 2, 0.1, (0.0, 1.0), (0.5, 0.5), (0.0, 0.0)
    )
    assert expect == 0.0
    assert defect == 0.0


def test_polar_merton_is_supermartingale():
    """Zero penalty kills the first-order term, so the product never grows.

    Each step multiplies the expectation by 1 - h^2 r mu with mu >= 0.4
    on the admissible controls, which is strictly below one.
    """
    model = merton_model()
    rng = np.random.default_rng(7)
    for steps in (1, 2, 4):
        step = 0.5 / steps
        for _ in range(6):
            policy = tuple(rng.uniform(-1.0, 1.0, steps))
            _, defect = polar_defect(
                model,
                gauss_hermite_rule(3),
                steps,
                step,
                (1.0, 1.0),
                policy,
                (0.0,) * steps,
            )
            assert defect <= 1.0e-12
            assert abs(defect) <= 1.0


def test_polar_constrained_violation_vanishes_with_step():
    """Constrained conjugacy makes the first-order term nonpositive.

    What survives upward is the second-order drift cross term, of size
    h^2 per step, so over horizon 0.5 any upward defect is O(h).
    """
    model = cuoco_liu_model()
    rng = np.random.default_rng(7)
    for steps in (1, 2, 4):
        step = 0.5 / steps
        for _ in range(6):
            primal_policy = tuple(rng.uniform(-1.0, 1.0, steps))
            dual_policy = tuple(rng.uniform(-1.0, 1.0, steps))
            _, defect = polar_defect(
                model,
                gauss_hermite_rule(3),
                steps,
                step,
                (1.0, 1.0),
                primal_policy,
                dual_policy,
            )
            assert defect <= 1.5 * step + 1.0e-12
            assert abs(defect) <= 1.0


def test_gap_csv_with_bounds(tmp_path):
    report = _toy_report()
    bounds = aposteriori_bounds(
        report,
        order=4,
        step=0.25,
        spacing=0.25,
        lip_primal=1.0,
        lip_dual=1.0,
        c_primal=1.0,
        c_dual=1.0,
        allowance=np.zeros(1),
    )
    path = tmp_path / "gap.csv"
    write_gap_csv(report, path, "toy", bounds)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[:2] == ["# toy", "x,gap,argmin_y,lower,upper"]
    assert lines[2].startswith("1.000000000000000e+00,5.000000000000000e-01,1.000000000000000e+00,")
    cells = lines[2].split(",")
    assert float(cells[3]) == pytest.approx(bounds.lower[0], rel=1.0e-12)
    assert float(cells[4]) == pytest.approx(bounds.upper[0], rel=1.0e-12)


def test_gap_csv_mismatch(tmp_path):
    report = _toy_report()
    bad = BoundReport(
        x=np.array([1.0, 2.0]),
        lower=np.array([-1.0, -1.0]),
        upper=np.array([1.0, 1.0]),
    )
    path = tmp_path / "gap.csv"
    with pytest.raises(ValueError, match="does not match the gap report nodes"):
        write_gap_csv(report, path, "toy", bad)
    assert not path.exists()
