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

from . import analytics, apriori, csvout, duality, lattice, market, solver, utility
from .errors import ConfigError, NumericalFailure
from .quadrature import MAX_ORDER, MIN_ORDER, gauss_hermite_rule

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
    "M": _Key(int, 4, check=(
        lambda v: MIN_ORDER <= v <= MAX_ORDER,
        f"M must lie in [{MIN_ORDER}, {MAX_ORDER}], got {{value}}",
    )),
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
    (lambda v: v["a_min"] <= 0.0 <= v["a_max"],
     lambda v: f"control interval [{v['a_min']}, {v['a_max']}] must contain 0"),
    (lambda v: v["gamma_min"] <= v["gamma_max"],
     lambda v: f"empty dual control interval [{v['gamma_min']}, {v['gamma_max']}]"),
    (lambda v: v["k_min"] <= v["k_max"],
     lambda v: f"k_min = {v['k_min']} exceeds k_max = {v['k_max']}"),
    (lambda v: v["problem"] != "cuoco-liu" or v["R"] >= v["r"],
     lambda v: f"borrowing rate R = {v['R']} must be at least r = {v['r']}"),
    # last: it builds the model, the checks above cover all its own but the penalty's finiteness
    (lambda v: _plateau_reach(v) <= v["x_max"],
     lambda v: f"rho exp(max(0, -(r + g(0))) T) = {_plateau_reach(v)} must not exceed "
               f"x_max = {v['x_max']}"),
)


def _market(v):
    """The market model of a config's values, a mapping from key to value."""
    if v["problem"] == "merton":
        return market.merton_model(
            r=v["r"],
            b=v["b"],
            sigma=v["sigma"],
            horizon=v["T"],
            a_interval=(v["a_min"], v["a_max"]),
            gamma_interval=(v["gamma_min"], v["gamma_max"]),
        )
    return market.cuoco_liu_model(
        r=v["r"],
        borrowing_rate=v["R"],
        b=v["b"],
        sigma=v["sigma"],
        horizon=v["T"],
        iota=v["iota"],
        lambda_plus=v["lambda_plus"],
        lambda_minus=v["lambda_minus"],
        gamma_interval=(v["gamma_min"], v["gamma_max"]),
    )


def _plateau_reach(v):
    """The least x_max at which the primal grid's plateau closure is exact.

    The riskless position is admissible and grows wealth at rate
    r + g(0), so from rho e^{max(0, -(r + g(0))) T} on it ends at or
    above rho, where the truncated reward is flat, for sure.
    """
    try:
        model = _market(v)
    except ValueError as exc:  # a penalty the model refuses, such as an infinite vertex
        raise ConfigError(str(exc)) from exc
    exponent = max(0.0, -(v["r"] + float(model.penalty(0.0)))) * v["T"]
    return v["rho"] * math.exp(exponent) if exponent < 700.0 else math.inf


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
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {spec}: {exc}") from exc
    entries = _parse_entries(text, str(spec))
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
        model = _market(vars(cfg))
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


#: the worst-case coefficient sizes of each direction's chain
_COEFFICIENT_BOUNDS = {
    "primal": market.coefficient_bounds,
    "dual": market.dual_coefficient_bounds,
}


def _check_drift(model, steps, level=None, directions=("primal", "dual")):
    """Refuse a coarsest step whose drift alone moves the state by its own size.

    A branch factor is 1 + h drift + sqrt(h) vol xi; once h |drift| >= 1
    the drift alone can carry the state to 0 or far off the grid in one
    step, and the surface reads the plateau there.  ``steps`` is the
    coarsest step count the pipeline solves, ``level`` the ladder level
    that sets it, if one does.
    """
    step = model.horizon / steps
    where = f"N={steps}" if level is None else f"{level} (N={steps})"
    for direction in directions:
        # an overflowing drift reads inf (or nan), and is refused like any other
        with np.errstate(over="ignore", invalid="ignore"):
            drift = _COEFFICIENT_BOUNDS[direction](model).drift
        if not step * drift < 1.0:
            raise ConfigError(
                f"the {direction} drift outruns the state at {where}: "
                f"h*drift = {step:g}*{drift:g} = {step * drift:.3g} must be below 1"
            )


def _reference(cfg, model, coarsest):
    if cfg.problem != "merton":
        raise ConfigError(f"no closed-form reference for problem {cfg.problem}; use mode gap")
    # the spacing x_max / J falls with k, so the coarsest level decides
    nodes = lattice.SpaceGrid(coarsest.x_max, coarsest.cells).nodes
    if not analytics.in_window(nodes, analytics.ERROR_WINDOW).any():
        raise ConfigError(
            f"the error window {list(analytics.ERROR_WINDOW)} holds no primal grid node at "
            f"k_min = {cfg.k_min}: J = {coarsest.cells} cells on [0, x_max = {cfg.x_max:g}] "
            f"are {cfg.x_max / coarsest.cells:.3g} apart"
        )
    return lambda x: market.merton_value(cfg.T, x, cfg.p, model)


def cmd_solve(direction, cfg, problem, out, args):
    k, disc = _level(cfg, args)
    _check_drift(problem.model, disc.steps, f"level {k}", (direction,))
    terminal = problem.reward if direction == "primal" else problem.conjugate
    surface = solver.solve(problem.model, terminal, disc, direction)
    path = out / f"{direction}_N{disc.steps}.csv"
    solver.write_surface_csv(surface, path, f"{cfg.echo()} level={k}")
    print(f"{direction} level {k}: N={disc.steps} J={disc.cells} -> {path}")


def cmd_gap(cfg, problem, out, args):
    k, disc = _level(cfg, args)
    _check_drift(problem.model, disc.steps, f"level {k}")
    primal_constants = apriori.constant_set(market.coefficient_bounds(problem.model), cfg.T)
    if primal_constants.vol_bound == 0.0:
        raise ConfigError(
            f"control interval {list(problem.model.a_interval)} holds no risky position, "
            "and the gap's truncation allowance needs a positive volatility bound"
        )
    _, primal, _, report = next(
        analytics.levels(problem.model, problem.reward, (disc,), problem.conjugate)
    )
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
    duality.write_gap_csv(report, path, f"{cfg.echo()} level={k}", bounds)
    print(f"gap level {k}: N={disc.steps} max gap {float(np.max(report.gap)):.3e} -> {path}")


def cmd_convergence(cfg, problem, out, args):
    mode = cfg.mode if getattr(args, "mode", None) is None else args.mode
    ladder = analytics.refinement_ladder(cfg.k_min, cfg.k_max, cfg.M, cfg.x_max, cfg.y_max)
    reference = _reference(cfg, problem.model, ladder[0]) if mode == "error" else None
    conjugate = problem.conjugate if mode == "gap" else None
    directions = ("primal",) if mode == "error" else ("primal", "dual")
    _check_drift(problem.model, ladder[0].steps, f"k_min = {cfg.k_min}", directions)
    solved = analytics.levels(problem.model, problem.reward, ladder, conjugate)
    table = analytics.run_ladder(solved, reference=reference)[mode]
    path = out / f"convergence_{mode}.csv"
    analytics.write_convergence_csv(table, path, cfg.echo())
    for i, disc in enumerate(table.levels):
        norms = table.norms[i]
        print(
            f"k={cfg.k_min + i} N={disc.steps} J={disc.cells} "
            f"l1={norms['l1']:.3e} l2={norms['l2']:.3e} linf={norms['linf']:.3e} "
            f"({table.seconds[i]:.2f} s)"
        )
    print(f"convergence ({mode}) -> {path}")


def cmd_bounds(cfg, problem, out, args):
    ladder = analytics.refinement_ladder(cfg.k_min, cfg.k_max, cfg.M, cfg.x_max, cfg.y_max)
    reference = _reference(cfg, problem.model, ladder[0])
    _check_drift(problem.model, ladder[0].steps, f"k_min = {cfg.k_min}")
    rule = gauss_hermite_rule(cfg.M)
    constants = apriori.constant_set(market.coefficient_bounds(problem.model), cfg.T)
    lipschitz = problem.reward.lipschitz
    solved = analytics.levels(problem.model, problem.reward, ladder, problem.conjugate)
    tables = analytics.run_ladder(solved, reference=reference)
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
    csvout.write_csv(path, cfg.echo(), columns, csvout.table((float,) * 5, rows))
    for row in rows:
        print(
            f"h={row[0]:.4e} em={row[1]:.3e} gh={row[2]:.3e} "
            f"error={row[3]:.3e} gap={row[4]:.3e}"
        )
    print(f"bounds -> {path}")


def cmd_polar_check(cfg, problem, out, args):
    model = problem.model
    _check_drift(model, min(_POLAR_STEPS))
    rule = gauss_hermite_rule(cfg.M)
    rng = np.random.default_rng(cfg.seed)
    lo, hi = model.gamma_interval
    rows = []
    for steps in _POLAR_STEPS:
        step = cfg.T / steps
        # one stream, draw by draw: a primal policy, then a dual one where gamma may move
        if hi > lo:
            ends = np.array([model.a_interval, model.gamma_interval])
            draws = rng.uniform(ends[:, :1], ends[:, 1:], size=(_POLAR_DRAWS, 2, steps))
            primal_policies, dual_policies = draws[:, 0], draws[:, 1]
        else:
            primal_policies = rng.uniform(*model.a_interval, size=(_POLAR_DRAWS, steps))
            dual_policies = np.full((_POLAR_DRAWS, steps), lo)
        _, defects = duality.polar_defect(
            model, rule, steps, step, (1.0, 1.0), primal_policies, dual_policies
        )
        ratios = np.abs(defects) / step
        violation = max(0.0, float(np.max(defects)) / step)
        rows.append((steps, step, float(np.mean(ratios)), float(np.max(ratios)), violation))
    path = out / "polar.csv"
    columns = "N,h,c_abs_mean,c_abs_max,violation_max"
    csvout.write_csv(path, cfg.echo(), columns, csvout.table((int,) + (float,) * 4, rows))
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


#: per command, its help line and the options it takes beyond --config and --out
_COMMANDS = {
    "solve-primal": ("solve the maximising surface at one level", ("--level",)),
    "solve-dual": ("solve the minimising surface at one level", ("--level",)),
    "gap": ("duality gap with two-sided bounds at one level", ("--level",)),
    "convergence": ("norms and orders over the refinement ladder", ("--mode",)),
    "bounds": ("a priori envelopes against observed errors and gaps", ()),
    "polar-check": ("product-chain supermartingale diagnostic", ()),
}

#: every command's options, each with its ``add_argument`` keywords
_OPTIONS = {
    "--config": {"required": True, "help": "config file path or bundled name"},
    "--out": {"help": "output directory (default from config)"},
    "--level": {"type": int, "help": "ladder level k"},
    "--mode": {"choices": _MODES, "help": "error or gap ladder"},
}


def parse_args(argv=None):
    """The command line's namespace: its ``command`` and that command's options.

    One parser reads the command, the first argument, and a second reads
    the command's options from the rest, so no other command's parser is
    built.  A bad command line exits 2 with argparse's message.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    root = argparse.ArgumentParser(
        prog="dualgap",
        description="Primal and dual value function experiments with duality gap diagnostics.",
        epilog="commands:\n" + "\n".join(f"  {n:<14}{h}" for n, (h, _) in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    root.add_argument("command", choices=_COMMANDS, help="the pipeline to run")
    command = root.parse_args(argv[:1]).command
    summary, extra = _COMMANDS[command]
    parser = argparse.ArgumentParser(prog=f"dualgap {command}", description=summary)
    for option in ("--config", "--out", *extra):
        parser.add_argument(option, **_OPTIONS[option])
    return parser.parse_args(argv[1:], argparse.Namespace(command=command))


def run(argv=None):
    args = parse_args(argv)
    try:
        cfg = load_config(args.config)
        out = Path(args.out if args.out is not None else cfg.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
        # FloatingPointError is an ArithmeticError: an overflow exits 3, not 0
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            try:
                _PIPELINES[args.command](cfg, build_problem(cfg), out, args)
            except OSError as exc:  # a pipeline touches the file system only to write its CSVs
                raise ConfigError(f"cannot write an output file in {out}: {exc}") from exc
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericalFailure, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
