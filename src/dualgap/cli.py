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
from dataclasses import dataclass, make_dataclass, replace
from functools import partial
from importlib import resources
from pathlib import Path

import numpy as np

from . import analytics, apriori, csvout, duality, market, solver, utility
from .errors import ConfigError, NumericalFailure, ResourceLimit
from .quadrature import gauss_hermite_rule

_PROBLEMS = ("merton", "cuoco-liu")
_MODES = ("error", "gap")
_MAX_LEVEL = 8

#: step counts exercised by the polar check, kept small enough to enumerate
_POLAR_STEPS = (2, 4, 8)
_POLAR_DRAWS = 16

# key -> (parser, default); None default means resolved later or required
_SCHEMA = {
    "problem": (str, None),
    "p": (float, 0.5),
    "r": (float, 0.8),
    "b": (float, 1.2),
    "sigma": (float, 1.0),
    "T": (float, 0.5),
    "x_max": (float, 20.0),
    "y_max": (str, "auto"),
    "R": (float, 1.0),
    "iota": (float, 0.5),
    "lambda_plus": (float, 1.0),
    "lambda_minus": (float, 1.0),
    "a_min": (float, -1.0),
    "a_max": (float, 1.0),
    "gamma_min": (float, None),
    "gamma_max": (float, None),
    "M": (int, 4),
    "k_min": (int, 1),
    "k_max": (int, 5),
    "rho": (float, 18.0),
    "c0": (float, 8.0),
    "mode": (str, None),
    "out": (str, "results"),
    "seed": (int, 0),
}


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
    [(key, cast) for key, (cast, _) in _SCHEMA.items()],
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
    """Parse and validate a config file into a fully resolved ExperimentConfig."""
    path = resolve_config_path(spec)
    entries = _parse_entries(path.read_text(encoding="utf-8"), str(spec))
    unknown = sorted(set(entries) - set(_SCHEMA))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    values = {}
    for key, (cast, default) in _SCHEMA.items():
        if key in entries:
            try:
                values[key] = cast(entries[key])
            except ValueError:
                raise ConfigError(f"bad value for {key}: {entries[key]!r}") from None
            if cast is float and not math.isfinite(values[key]):
                raise ConfigError(f"{key} must be finite, got {entries[key]}")
        else:
            values[key] = default
    if values["problem"] is None:
        raise ConfigError("missing required key: problem")
    if values["problem"] not in _PROBLEMS:
        raise ConfigError(f"problem must be one of {', '.join(_PROBLEMS)}, got {values['problem']}")
    if values["gamma_min"] is None:
        values["gamma_min"] = 0.0 if values["problem"] == "merton" else -1.0
    if values["gamma_max"] is None:
        values["gamma_max"] = 0.0 if values["problem"] == "merton" else 1.0
    if values["mode"] is None:
        values["mode"] = "error" if values["problem"] == "merton" else "gap"
    _validate(values)
    values["y_max"] = _resolve_y_max(values)
    return ExperimentConfig(**values)


def _validate(values):
    def require(condition, message):
        if not condition:
            raise ConfigError(message)

    require(0.0 < values["p"] < 1.0, f"p must lie in (0, 1), got {values['p']}")
    require(values["sigma"] > 0.0, f"sigma must be positive, got {values['sigma']}")
    require(values["T"] > 0.0, f"T must be positive, got {values['T']}")
    require(values["x_max"] > 0.0, f"x_max must be positive, got {values['x_max']}")
    require(values["rho"] > 0.0, f"rho must be positive, got {values['rho']}")
    require(values["c0"] > 0.0, f"c0 must be positive, got {values['c0']}")
    require(
        values["c0"] / values["rho"] < values["rho"],
        f"c0/rho = {values['c0'] / values['rho']} must fall below rho = {values['rho']}",
    )
    require(
        values["rho"] <= values["x_max"],
        f"rho = {values['rho']} must not exceed x_max = {values['x_max']}",
    )
    require(
        values["a_min"] <= 0.0 <= values["a_max"],
        f"control interval [{values['a_min']}, {values['a_max']}] must contain 0",
    )
    require(
        values["gamma_min"] <= values["gamma_max"],
        f"empty dual control interval [{values['gamma_min']}, {values['gamma_max']}]",
    )
    require(2 <= values["M"] <= 20, f"M must lie in [2, 20], got {values['M']}")
    require(values["k_min"] >= 0, f"k_min must be nonnegative, got {values['k_min']}")
    require(
        values["k_min"] <= values["k_max"],
        f"k_min = {values['k_min']} exceeds k_max = {values['k_max']}",
    )
    require(
        values["k_max"] <= _MAX_LEVEL,
        f"k_max = {values['k_max']} exceeds the supported maximum {_MAX_LEVEL}",
    )
    require(values["mode"] in _MODES, f"mode must be one of {', '.join(_MODES)}, got {values['mode']}")
    require(values["seed"] >= 0, f"seed must be nonnegative, got {values['seed']}")
    if values["problem"] == "cuoco-liu":
        require(
            values["R"] >= values["r"],
            f"borrowing rate R = {values['R']} must be at least r = {values['r']}",
        )
        require(
            values["lambda_plus"] > 0.0 and values["lambda_minus"] > 0.0,
            "lambda_plus and lambda_minus must be positive",
        )
        require(values["iota"] >= 0.0, f"iota must be nonnegative, got {values['iota']}")


def _resolve_y_max(values):
    raw = values["y_max"]
    if raw != "auto":
        try:
            y_max = float(raw)
        except ValueError:
            raise ConfigError(f"y_max must be a number or 'auto', got {raw!r}") from None
        if not math.isfinite(y_max):
            raise ConfigError(f"y_max must be finite, got {raw}")
        if y_max <= 0.0:
            raise ConfigError(f"y_max must be positive, got {y_max}")
        return y_max
    # auto: cover the conjugate's support edge with integer headroom
    x_rho = values["c0"] / values["rho"]
    chord_slope = (x_rho ** values["p"] / values["p"]) / x_rho
    return float(math.ceil(max(chord_slope, 4.0)))


@dataclass(frozen=True)
class Problem:
    """Config materialised into model and reward objects."""

    model: market.MarketModel
    base: utility.UtilitySpec
    reward: utility.UtilitySpec
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
            )
            if (cfg.gamma_min, cfg.gamma_max) != (0.0, 0.0):
                model = replace(model, gamma_interval=(cfg.gamma_min, cfg.gamma_max))
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
        base = utility.power_utility(cfg.p)
        reward = utility.lipschitz_truncate(base, cfg.rho, cfg.c0)
        conjugate = utility.conjugate_spec(reward)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return Problem(model=model, base=base, reward=reward, conjugate=conjugate)


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
        report.x, problem.base, cfg.rho, cfg.c0, primal_constants
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
