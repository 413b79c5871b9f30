"""Shared fixtures: the benchmark problem and its solved ladders.

The expensive ladder runs are session scoped so the convergence tables
are solved once and inspected by several test modules.
"""

import numpy as np
import pytest

from dualgap import (
    conjugate_spec,
    cuoco_liu_model,
    duality_gap,
    gauss_hermite_rule,
    lipschitz_truncate,
    merton_model,
    merton_value,
    power_utility,
    refinement_ladder,
    run_ladder,
    solve,
)

X_MAX = 20.0
Y_MAX = 4.0
RHO = 18.0
C0 = 8.0
P = 0.5


@pytest.fixture(scope="session")
def rule4():
    return gauss_hermite_rule(4)


@pytest.fixture(scope="session")
def reward():
    """Truncated square-root reward on [0, 20], kink at 4/9, cut at 18."""
    return lipschitz_truncate(power_utility(P), RHO, C0)


@pytest.fixture(scope="session")
def conjugate(reward):
    return conjugate_spec(reward)


@pytest.fixture(scope="session")
def merton():
    return merton_model()


@pytest.fixture(scope="session")
def cuoco():
    return cuoco_liu_model()


@pytest.fixture(scope="session")
def merton_reference(merton):
    """Closed-form value at the initial time as a callable of wealth."""

    def value(x):
        return merton_value(merton.horizon, x, P, 0.8, 1.2, 1.0)

    return value


@pytest.fixture(scope="session")
def merton_tables(merton, reward, conjugate, merton_reference):
    """Both merton readouts from one ladder pass."""
    ladder = refinement_ladder(1, 5, 4, X_MAX, Y_MAX)
    return run_ladder(merton, reward, ladder, reference=merton_reference, conjugate=conjugate)


@pytest.fixture(scope="session")
def error_table(merton_tables):
    return merton_tables["error"]


@pytest.fixture(scope="session")
def merton_gap_table(merton_tables):
    return merton_tables["gap"]


@pytest.fixture(scope="session")
def cuoco_gap_table(cuoco, reward, conjugate):
    ladder = refinement_ladder(1, 4, 4, X_MAX, Y_MAX)
    return run_ladder(cuoco, reward, ladder, conjugate=conjugate)["gap"]


def _solved_levels(model, reward, conjugate, k_max):
    """Primal and dual surfaces plus the initial-time gap, per level."""
    out = []
    for disc in refinement_ladder(1, k_max, 4, X_MAX, Y_MAX):
        primal = solve(model, reward, disc, "primal")
        dual = solve(model, conjugate, disc, "dual")
        out.append((disc, primal, dual, duality_gap(primal, dual, 0)))
    return out


@pytest.fixture(scope="session")
def merton_gap_levels(merton, reward, conjugate):
    return _solved_levels(merton, reward, conjugate, 5)


@pytest.fixture(scope="session")
def cuoco_gap_levels(cuoco, reward, conjugate):
    return _solved_levels(cuoco, reward, conjugate, 4)


@pytest.fixture(scope="session")
def merton_errors(error_table):
    return [n["linf"] for n in error_table.norms]


def first_time_slice(surface):
    return np.asarray(surface.data[0], dtype=float)
