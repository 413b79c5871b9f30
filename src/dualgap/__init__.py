"""Primal and dual value function approximation with a computable duality gap.

The package solves utility maximisation problems under convex trading
constraints twice: a maximising semi-Lagrangian sweep for the primal
value and a minimising one for its convex dual.  Conjugating the dual
surface back yields a numerical duality gap that upper-bounds the
scheme error without knowing the true solution, and explicit constant
tracking turns it into computable two-sided bounds.
"""

from .analytics import (
    convergence_orders,
    dual_cell_count,
    refinement_ladder,
    run_ladder,
    window_norms,
    write_convergence_csv,
)
from .apriori import (
    ConstantSet,
    constant_set,
    em_bound,
    envelope_constants,
    gh_bound,
    truncation_allowance,
)
from .duality import (
    BoundReport,
    GapReport,
    aposteriori_bounds,
    duality_gap,
    polar_defect,
    write_gap_csv,
)
from .errors import ConfigError, NumericalFailure
from .lattice import Discretization, SpaceGrid, TimeGrid, control_mesh
from .market import (
    CoefficientBounds,
    MarketModel,
    coefficient_bounds,
    cuoco_liu_model,
    dual_coefficient_bounds,
    merton_model,
    merton_value,
)
from .quadrature import double_factorial, gauss_hermite_rule, moment_defect
from .solver import ValueSurface, solve
from .utility import conjugate_spec, lipschitz_truncate, power_utility

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CoefficientBounds",
    "ConfigError",
    "ConstantSet",
    "Discretization",
    "GapReport",
    "MarketModel",
    "NumericalFailure",
    "SpaceGrid",
    "TimeGrid",
    "ValueSurface",
    "aposteriori_bounds",
    "coefficient_bounds",
    "conjugate_spec",
    "constant_set",
    "control_mesh",
    "convergence_orders",
    "cuoco_liu_model",
    "double_factorial",
    "dual_cell_count",
    "dual_coefficient_bounds",
    "duality_gap",
    "em_bound",
    "envelope_constants",
    "gauss_hermite_rule",
    "gh_bound",
    "lipschitz_truncate",
    "merton_model",
    "merton_value",
    "moment_defect",
    "polar_defect",
    "power_utility",
    "refinement_ladder",
    "run_ladder",
    "solve",
    "truncation_allowance",
    "window_norms",
    "write_convergence_csv",
    "write_gap_csv",
]
