"""Refinement ladders, windowed norms, convergence bookkeeping."""

import math

import numpy as np
import pytest

from dualgap import (
    Discretization,
    convergence_orders,
    dual_cell_count,
    refinement_ladder,
    run_ladder,
    window_norms,
    write_convergence_csv,
)


def test_ladder_frozen_sizes():
    ladder = refinement_ladder(1, 5, 4, 20.0, 4.0)
    assert [level.steps for level in ladder] == [8, 16, 32, 64, 128]
    assert [level.cells for level in ladder] == [18, 46, 118, 305, 790]
    assert [level.dual_cells for level in ladder] == [12, 24, 48, 96, 192]
    assert [level.controls for level in ladder] == [3, 5, 9, 17, 33]
    assert all(level.order == 4 for level in ladder)


def test_ladder_coarsest_level():
    level = refinement_ladder(0, 0, 4, 20.0, 4.0)[0]
    assert level.steps == 4
    assert level.cells == 7
    assert level.controls == 2


def test_ladder_validation():
    with pytest.raises(ValueError):
        refinement_ladder(-1, 3, 4, 20.0, 4.0)
    with pytest.raises(ValueError):
        refinement_ladder(3, 2, 4, 20.0, 4.0)


@pytest.mark.parametrize(
    "steps,cells", [(8, 12), (16, 24), (32, 48), (64, 96), (128, 192), (7, 11)]
)
def test_dual_cell_count(steps, cells):
    assert dual_cell_count(steps) == cells


def test_level_discretization():
    assert refinement_ladder(1, 1, 4, 20.0, 4.0)[0] == Discretization(
        steps=8, cells=18, dual_cells=12, order=4, controls=3, x_max=20.0, y_max=4.0
    )


def test_window_norms_hand_example():
    xs = np.array([0.0, 1.0, 2.0, 3.0])
    values = np.array([0.0, 1.0, -2.0, 3.0])
    norms = window_norms(xs, values, lambda x: np.zeros_like(x), (1.0, 3.0), 1.0)
    assert norms["l1"] == pytest.approx(6.0, abs=1.0e-14)
    assert norms["l2"] == pytest.approx(math.sqrt(14.0), abs=1.0e-14)
    assert norms["linf"] == pytest.approx(3.0, abs=1.0e-14)


def test_window_norms_carries_spacing():
    xs = np.linspace(0.0, 3.0, 4)
    values = np.array([0.0, 1.0, -2.0, 3.0])
    half = window_norms(xs, values, lambda x: np.zeros_like(x), (1.0, 3.0), 0.5)
    assert half["l1"] == pytest.approx(3.0, abs=1.0e-14)
    assert half["l2"] == pytest.approx(math.sqrt(7.0), abs=1.0e-14)
    assert half["linf"] == 3.0


def test_window_norms_validation():
    xs = np.linspace(0.0, 3.0, 4)
    with pytest.raises(ValueError):
        window_norms(xs, np.zeros(3), lambda x: x, (0.0, 3.0), 1.0)
    with pytest.raises(ValueError):
        window_norms(xs, np.zeros(4), lambda x: x, (5.0, 6.0), 1.0)


def test_convergence_orders_halving():
    orders = convergence_orders([8.0, 4.0, 1.0])
    assert math.isnan(orders[0])
    assert orders[1] == pytest.approx(1.0, abs=1.0e-14)
    assert orders[2] == pytest.approx(2.0, abs=1.0e-14)


def test_convergence_orders_bad_ratios():
    orders = convergence_orders([1.0, 0.0, 2.0])
    assert all(math.isnan(v) for v in orders)
    assert len(convergence_orders([5.0])) == 1


def test_run_ladder_validation(merton, reward):
    ladder = refinement_ladder(1, 1, 4, 20.0, 4.0)
    with pytest.raises(ValueError, match="needs a reference value function, a conjugate"):
        run_ladder(merton, reward, ladder)


def test_one_ladder_pass_gives_each_readout_of_a_single_pass(
    merton, reward, conjugate, merton_reference
):
    """Both readouts from one pass equal the one-readout passes, in order error, gap."""
    ladder = refinement_ladder(1, 2, 4, 20.0, 4.0)
    both = run_ladder(merton, reward, ladder, reference=merton_reference, conjugate=conjugate)
    assert list(both) == ["error", "gap"]
    alone = {
        "error": run_ladder(merton, reward, ladder, reference=merton_reference)["error"],
        "gap": run_ladder(merton, reward, ladder, conjugate=conjugate)["gap"],
    }
    for mode, table in both.items():
        assert table.levels == ladder
        assert table.norms == alone[mode].norms
        assert str(table.orders) == str(alone[mode].orders)  # nan == nan as text
        assert table.seconds == both["error"].seconds


def test_error_table_shape(error_table):
    assert len(error_table.levels) == 5
    assert len(error_table.norms) == 5
    assert set(error_table.norms[0]) == {"l1", "l2", "linf"}
    assert all(s >= 0.0 for s in error_table.seconds)
    for key in ("l1", "l2", "linf"):
        assert math.isnan(error_table.orders[key][0])
        assert len(error_table.orders[key]) == 5


def test_error_table_decreases(error_table):
    linf = [n["linf"] for n in error_table.norms]
    assert all(a > b for a, b in zip(linf, linf[1:]))


def test_convergence_csv_format(tmp_path, error_table):
    path = tmp_path / "table.csv"
    write_convergence_csv(error_table, path, header="closed-form error")
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# closed-form error"
    assert lines[1] == "J,N,l1,order_l1,l2,order_l2,linf,order_linf"
    assert len(lines) == 7
    assert lines[2].startswith("18,8,")
    first = lines[2].split(",")
    assert first[3] == "nan" and first[5] == "nan" and first[7] == "nan"
    assert lines[3].startswith("46,16,")
    second = lines[3].split(",")
    assert not math.isnan(float(second[3]))
