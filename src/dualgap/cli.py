"""Command line front end: flat config files, pipelines, CSV emission.

Config files are plain ``key = value`` lines with ``#`` comments.  Every
emitted CSV starts with a comment echoing the fully resolved config, so
a results directory is self-describing and a rerun with the same config
reproduces every file byte for byte.  Exit codes: 0 on success, 2 on a
config problem, 3 on a numerical failure.
"""

import argparse
import math
import sys
from dataclasses import dataclass, make_dataclass
from functools import partial
from importlib import resources
from pathlib import Path
from typing import Callable, Optional, Tuple

import numpy as np

from . import analytics, apriori, csvout, duality, market, solver, utility
from .errors import ConfigError, NumericalFailure, ResourceLimit
from .quadrature import gauss_hermite_rule

_PROBLEMS = ("merton", "cuoco-liu")
_MODES = ("error", "gap")
_MAX_LEVEL = 8

#: step counts exercised by the polar check
_POLAR_STEPS = (2, 4, 8)
_POLAR_DRAWS = 16


@dataclass(frozen=True)
class _Key:
    """One config key; its messages are templates over ``key``, ``raw`` and ``value``.

    ``default`` is a value, or a mapping from problem to value where the
    problems differ.  ``check`` is a test of the parsed value and the
    message it fails with; ``malformed`` is the message of a parse failure.
    """

    parse: Callable
    default: object
    readers: Tuple[str, ...] = _PROBLEMS
    check: Optional[Tuple[Callable, str]] = None
    malformed: str = "bad value for {key}: {raw!r}"


_MERTON = ("merton",)
_CUOCO_LIU = ("cuoco-liu",)
_POSITIVE = (lambda v: v > 0.0, "{key} must be positive, got {value}")
_NONNEGATIVE = (lambda v: v >= 0, "{key} must be nonnegative, got {value}")
_MARGIN = (lambda v: v > 0.0, "lambda_plus and lambda_minus must be positive")

#: every config key, in the order ``load_config`` parses and checks them.  A
#: file may set a key only for its readers: cuoco-liu's control interval is
#: [-1/lambda_minus, 1/lambda_plus], so only merton reads a_min and a_max.
_SCHEMA = {
    "problem": _Key(str, None),  # required, and read before every other key
    "p": _Key(float, 0.5, check=(lambda v: 0.0 < v < 1.0, "p must lie in (0, 1), got {value}")),
    "r": _Key(float, 0.8),
    "b": _Key(float, 1.2),
    "sigma": _Key(float, 1.0, check=_POSITIVE),
    "T": _Key(float, 0.5, check=_POSITIVE),
    "x_max": _Key(float, 20.0, check=_POSITIVE),
    # "auto" is resolved once every check has passed
    "y_max": _Key(
        lambda raw: raw if raw == "auto" else float(raw),
        "auto",
        check=(lambda v: v == "auto" or v > 0.0, "y_max must be positive, got {value}"),
        malformed="y_max must be a number or 'auto', got {raw!r}",
    ),
    "R": _Key(float, 1.0, readers=_CUOCO_LIU),
    "iota": _Key(float, 0.5, readers=_CUOCO_LIU, check=_NONNEGATIVE),
    "lambda_plus": _Key(float, 1.0, readers=_CUOCO_LIU, check=_MARGIN),
    "lambda_minus": _Key(float, 1.0, readers=_CUOCO_LIU, check=_MARGIN),
    "a_min": _Key(float, -1.0, readers=_MERTON),
    "a_max": _Key(float, 1.0, readers=_MERTON),
    "gamma_min": _Key(float, {"merton": 0.0, "cuoco-liu": -1.0}),
    "gamma_max": _Key(float, {"merton": 0.0, "cuoco-liu": 1.0}),
    "M": _Key(int, 4, check=(lambda v: 2 <= v <= 20, "M must lie in [2, 20], got {value}")),
    "k_min": _Key(int, 1, check=_NONNEGATIVE),
    "k_max": _Key(int, 5, check=(
        lambda v: v <= _MAX_LEVEL, f"k_max = {{value}} exceeds the supported maximum {_MAX_LEVEL}"
    )),
    "rho": _Key(float, 18.0, check=_POSITIVE),
    "c0": _Key(float, 8.0, check=_POSITIVE),
    "mode": _Key(str, {"merton": "error", "cuoco-liu": "gap"}, check=(
        lambda v: v in _MODES, f"mode must be one of {', '.join(_MODES)}, got {{value}}"
    )),
    "out": _Key(str, "results"),
    "seed": _Key(int, 0, check=_NONNEGATIVE),
}

#: the checks that span keys, in order: a test of the values and the message it fails with
_CROSS_CHECKS = (
    (lambda v: v["c0"] / v["rho"] < v["rho"],
     lambda v: f"c0/rho = {v['c0'] / v['rho']} must fall below rho = {v['rho']}"),
    (lambda v: v["rho"] <= v["x_max"],
     lambda v: f"rho = {v['rho']} must not exceed x_max = {v['x_max']}"),
    (lambda v: v["a_min"] <= 0.0 <= v["a_max"],
     lambda v: f"control interval [{v['a_min']}, {v['a_max']}] must contain 0"),
    (lambda v: v["gamma_min"] <= v["gamma_max"],
     lambda v: f"empty dual control interval [{v['gamma_min']}, {v['gamma_max']}]"),
    (lambda v: v["k_min"] <= v["k_max"],
     lambda v: f"k_min = {v['k_min']} exceeds k_max = {v['k_max']}"),
    (lambda v: v["problem"] != "cuoco-liu" or v["R"] >= v["r"],
     lambda v: f"borrowing rate R = {v['R']} must be at least r = {v['r']}"),
)


def _render(value):
    """``:g`` where it reads back as the same float, else the shortest round-trip repr."""
    if not isinstance(value, float):
        return str(value)
    short = f"{value:g}"
    return short if float(short) == value else repr(value)


def _echo(self):
    """Canonical one-line rendering of the resolved config; distinct configs echo distinctly."""
    return "config: " + " ".join(f"{key}={_render(getattr(self, key))}" for key in sorted(_SCHEMA))


#: the fully resolved config, one field per schema key; ``y_max`` holds a number
ExperimentConfig = make_dataclass(
    "ExperimentConfig",
    list(_SCHEMA),
    namespace={"echo": _echo, "__module__": __name__},
    frozen=True,
)


def resolve_config_path(spec):
    """An existing file wins; otherwise fall back to a bundled config."""
    path = Path(spec)
    if path.is_file():
        return path
    name = spec[:-4] if spec.endswith(".cfg") else spec
    bundled = resources.files("dualgap").joinpath("configs", f"{name}.cfg")
    if bundled.is_file():
        return bundled
    raise ConfigError(f"config file not found: {spec}")


def _parse_entries(text, source):
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        if key in entries:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key}")
        entries[key] = value
    return entries


def load_config(spec):
    """Parse and check a config file into a fully resolved ExperimentConfig.

    A key set in the file must parse, be finite, be read by the problem and
    pass its own check; a key left out takes its default.  Then the checks
    that span keys run, in order.
    """
    path = resolve_config_path(spec)
    entries = _parse_entries(path.read_text(encoding="utf-8"), str(spec))
    unknown = sorted(set(entries) - set(_SCHEMA))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    problem = entries.get("problem")
    if problem is None:
        raise ConfigError("missing required key: problem")
    if problem not in _PROBLEMS:
        raise ConfigError(f"problem must be one of {', '.join(_PROBLEMS)}, got {problem}")
    values = {}
    for key, row in _SCHEMA.items():
        if key not in entries:
            default = row.default
            values[key] = default[problem] if isinstance(default, dict) else default
            continue
        raw = entries[key]
        try:
            value = row.parse(raw)
        except ValueError:
            raise ConfigError(row.malformed.format(key=key, raw=raw)) from None
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {raw}")
        if problem not in row.readers:
            raise ConfigError(f"{key} is not read by problem {problem}")
        if row.check is not None and not row.check[0](value):
            raise ConfigError(row.check[1].format(key=key, value=value))
        values[key] = value
    for holds, message in _CROSS_CHECKS:
        if not holds(values):
            raise ConfigError(message(values))
    if values["y_max"] == "auto":
        # cover the conjugate's support edge, the reward's chord slope, with integer headroom
        base = utility.power_utility(values["p"])
        chord_slope = utility.lipschitz_truncate(base, values["rho"], values["c0"]).lipschitz
        values["y_max"] = float(math.ceil(max(chord_slope, 4.0)))
    return ExperimentConfig(**values)


@dataclass(frozen=True)
class Problem:
    """Config materialised into model and reward objects."""

    model: market.MarketModel
    reward: utility.TruncatedUtility
    conjugate: utility.ConjugateSpec


def build_problem(cfg):
    try:
        if cfg.problem == "merton":
            model = market.merton_model(
                r=cfg.r,
                b=cfg.b,
                sigma=cfg.sigma,
                horizon=cfg.T,
                a_interval=(cfg.a_min, cfg.a_max),
                gamma_interval=(cfg.gamma_min, cfg.gamma_max),
            )
        else:
            model = market.cuoco_liu_model(
                r=cfg.r,
                borrowing_rate=cfg.R,
                b=cfg.b,
                sigma=cfg.sigma,
                horizon=cfg.T,
                iota=cfg.iota,
                lambda_plus=cfg.lambda_plus,
                lambda_minus=cfg.lambda_minus,
                gamma_interval=(cfg.gamma_min, cfg.gamma_max),
            )
        reward = utility.lipschitz_truncate(utility.power_utility(cfg.p), cfg.rho, cfg.c0)
        conjugate = utility.conjugate_spec(reward)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return Problem(model=model, reward=reward, conjugate=conjugate)


def _level(cfg, args):
    """The requested ladder level k (``--level``, else k_min) and its Discretization."""
    k = cfg.k_min if getattr(args, "level", None) is None else args.level
    if not 0 <= k <= _MAX_LEVEL:
        raise ConfigError(f"level must lie in [0, {_MAX_LEVEL}], got {k}")
    return k, analytics.refinement_ladder(k, k, cfg.M, cfg.x_max, cfg.y_max)[0]


def _reference(cfg):
    if cfg.problem != "merton":
        raise ConfigError(
            f"no closed-form reference for problem {cfg.problem}; use mode gap"
        )
    return lambda x: market.merton_value(cfg.T, x, cfg.p, cfg.r, cfg.b, cfg.sigma)


def _header(cfg, extra=None):
    return cfg.echo() if extra is None else f"{cfg.echo()} {extra}"


def cmd_solve(direction, cfg, out, args):
    problem = build_problem(cfg)
    k, disc = _level(cfg, args)
    terminal = problem.reward if direction == "primal" else problem.conjugate
    surface = solver.solve(problem.model, terminal, disc, direction)
    path = out / f"{direction}_N{disc.steps}.csv"
    solver.write_surface_csv(surface, path, _header(cfg, f"level={k}"))
    print(f"{direction} level {k}: N={disc.steps} J={disc.cells} -> {path}")


def cmd_gap(cfg, out, args):
    problem = build_problem(cfg)
    k, disc = _level(cfg, args)
    primal_constants = apriori.constant_set(market.coefficient_bounds(problem.model), cfg.T)
    if primal_constants.vol_bound == 0.0:
        raise ConfigError(
            f"control interval {list(problem.model.a_interval)} holds no risky position, "
            "and the gap's truncation allowance needs a positive volatility bound"
        )
    primal = solver.solve(problem.model, problem.reward, disc, "primal")
    dual = solver.solve(problem.model, problem.conjugate, disc, "dual")
    report = duality.duality_gap(primal, dual, 0)
    rule = gauss_hermite_rule(cfg.M)
    dual_constants = apriori.constant_set(market.dual_coefficient_bounds(problem.model), cfg.T)
    c_primal, c_dual = apriori.envelope_constants(primal_constants, dual_constants, rule)
    allowance = apriori.truncation_allowance(
        report.x, problem.reward.base, cfg.rho, cfg.c0, primal_constants
    )
    bounds = duality.aposteriori_bounds(
        report,
        order=cfg.M,
        step=primal.time.step,
        spacing=primal.grid.spacing,
        lip_primal=problem.reward.lipschitz,
        lip_dual=problem.conjugate.lipschitz,
        c_primal=c_primal,
        c_dual=c_dual,
        allowance=allowance,
    )
    path = out / f"gap_N{disc.steps}.csv"
    duality.write_gap_csv(report, path, _header(cfg, f"level={k}"), bounds)
    print(f"gap level {k}: N={disc.steps} max gap {float(np.max(report.gap)):.3e} -> {path}")


def cmd_convergence(cfg, out, args):
    problem = build_problem(cfg)
    mode = cfg.mode if getattr(args, "mode", None) is None else args.mode
    ladder = analytics.refinement_ladder(cfg.k_min, cfg.k_max, cfg.M, cfg.x_max, cfg.y_max)
    if mode == "error":
        kwargs = {"reference": _reference(cfg)}
    else:
        kwargs = {"conjugate": problem.conjugate}
    table = analytics.run_ladder(problem.model, problem.reward, ladder, **kwargs)[mode]
    path = out / f"convergence_{mode}.csv"
    analytics.write_convergence_csv(table, path, _header(cfg))
    for i, disc in enumerate(table.levels):
        norms = table.norms[i]
        print(
            f"k={cfg.k_min + i} N={disc.steps} J={disc.cells} "
            f"l1={norms['l1']:.3e} l2={norms['l2']:.3e} linf={norms['linf']:.3e} "
            f"({table.seconds[i]:.2f} s)"
        )
    print(f"convergence ({mode}) -> {path}")


def cmd_bounds(cfg, out, args):
    problem = build_problem(cfg)
    reference = _reference(cfg)
    ladder = analytics.refinement_ladder(cfg.k_min, cfg.k_max, cfg.M, cfg.x_max, cfg.y_max)
    rule = gauss_hermite_rule(cfg.M)
    constants = apriori.constant_set(market.coefficient_bounds(problem.model), cfg.T)
    lipschitz = problem.reward.lipschitz
    tables = analytics.run_ladder(
        problem.model, problem.reward, ladder, reference=reference, conjugate=problem.conjugate
    )
    rows = []
    for i, disc in enumerate(ladder):
        step = cfg.T / disc.steps
        rows.append(
            (
                step,
                apriori.em_bound(step, 1.0, lipschitz, constants),
                apriori.gh_bound(step, 1.0, rule, lipschitz, constants),
                tables["error"].norms[i]["linf"],
                tables["gap"].norms[i]["linf"],
            )
        )
    path = out / "bounds.csv"
    columns = "h,em_bound,gh_bound,empirical_error,duality_gap"
    csvout.write_csv(path, _header(cfg), columns, csvout.table((float,) * 5, rows))
    for row in rows:
        print(
            f"h={row[0]:.4e} em={row[1]:.3e} gh={row[2]:.3e} "
            f"error={row[3]:.3e} gap={row[4]:.3e}"
        )
    print(f"bounds -> {path}")


def cmd_polar_check(cfg, out, args):
    problem = build_problem(cfg)
    model = problem.model
    rule = gauss_hermite_rule(cfg.M)
    rng = np.random.default_rng(cfg.seed)
    rows = []
    for steps in _POLAR_STEPS:
        step = cfg.T / steps
        ratios = []
        violation = 0.0
        for _ in range(_POLAR_DRAWS):
            primal_policy = rng.uniform(model.a_interval[0], model.a_interval[1], size=steps)
            lo, hi = model.gamma_interval
            dual_policy = rng.uniform(lo, hi, size=steps) if hi > lo else np.full(steps, lo)
            _, defect = duality.polar_defect(
                model, rule, steps, step, (1.0, 1.0),
                tuple(primal_policy), tuple(dual_policy),
            )
            ratios.append(abs(defect) / step)
            violation = max(violation, max(defect, 0.0) / step)
        rows.append((steps, step, float(np.mean(ratios)), float(np.max(ratios)), violation))
    path = out / "polar.csv"
    columns = "N,h,c_abs_mean,c_abs_max,violation_max"
    csvout.write_csv(path, _header(cfg), columns, csvout.table((int,) + (float,) * 4, rows))
    for steps, step, c_mean, c_max, vio in rows:
        print(f"N={steps} h={step:.4e} c_mean={c_mean:.3e} c_max={c_max:.3e} violation={vio:.3e}")
    print(f"polar check -> {path}")


_PIPELINES = {
    "solve-primal": partial(cmd_solve, "primal"),
    "solve-dual": partial(cmd_solve, "dual"),
    "gap": cmd_gap,
    "convergence": cmd_convergence,
    "bounds": cmd_bounds,
    "polar-check": cmd_polar_check,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dualgap",
        description="Primal and dual value function experiments with duality gap diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "solve-primal": "solve the maximising surface at one level",
        "solve-dual": "solve the minimising surface at one level",
        "gap": "duality gap with two-sided bounds at one level",
        "convergence": "norms and orders over the refinement ladder",
        "bounds": "a priori envelopes against observed errors and gaps",
        "polar-check": "product-chain supermartingale diagnostic",
    }
    for name, help_text in specs.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="config file path or bundled name")
        cmd.add_argument("--out", default=None, help="output directory (default from config)")
        if name in ("solve-primal", "solve-dual", "gap"):
            cmd.add_argument("--level", type=int, default=None, help="ladder level k")
        if name == "convergence":
            cmd.add_argument("--mode", choices=_MODES, default=None, help="error or gap ladder")
    return parser


def run(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        out = Path(args.out if args.out is not None else cfg.out)
        out.mkdir(parents=True, exist_ok=True)
        # FloatingPointError is an ArithmeticError: an overflow exits 3, not 0
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            _PIPELINES[args.command](cfg, out, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalFailure, ResourceLimit, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
