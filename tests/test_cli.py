"""Config handling, subcommand pipelines, exit codes, output files."""

import os
import re
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest

from dualgap import ConfigError, analytics
from dualgap.cli import build_problem, load_config, resolve_config_path, run

REPO = Path(__file__).resolve().parents[1]

MERTON_SMALL = """\
problem = merton
k_min = 1
k_max = 2
"""


def whole(message):
    """A ``match`` pattern that accepts exactly ``message``."""
    return f"^{re.escape(message)}$"


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_bundled_configs_resolve():
    by_name = load_config("merton")
    with_ext = load_config("merton.cfg")
    assert by_name == with_ext
    assert by_name.problem == "merton"
    assert by_name.mode == "error"
    assert by_name.gamma_min == 0.0 and by_name.gamma_max == 0.0
    assert by_name.y_max == 4.0
    assert by_name.k_max == 5

    cuoco = load_config("cuoco_liu")
    assert cuoco.problem == "cuoco-liu"
    assert cuoco.mode == "gap"
    assert cuoco.gamma_min == -1.0 and cuoco.gamma_max == 1.0
    assert cuoco.k_max == 4


def test_explicit_path_beats_bundled(tmp_path):
    path = write_cfg(tmp_path, MERTON_SMALL, name="merton.cfg")
    resolved = resolve_config_path(str(path))
    assert resolved == path
    assert load_config(str(path)).k_max == 2


def test_missing_config_raises():
    with pytest.raises(ConfigError):
        resolve_config_path("no_such_experiment")
    with pytest.raises(ConfigError):
        load_config("/nowhere/at/all.cfg")


def test_comments_and_blank_lines(tmp_path):
    path = write_cfg(
        tmp_path,
        "# leading comment\n\nproblem = merton\nk_max = 3  # trailing\n",
    )
    cfg = load_config(str(path))
    assert cfg.k_max == 3


def test_auto_dual_extent_default(tmp_path):
    path = write_cfg(tmp_path, MERTON_SMALL)
    assert load_config(str(path)).y_max == 4.0


def test_auto_dual_extent_follows_chord_slope(tmp_path):
    """A harsher truncation steepens the chord, widening the dual grid."""
    path = write_cfg(tmp_path, "problem = merton\nrho = 2\nc0 = 0.125\n")
    assert load_config(str(path)).y_max == 8.0


def test_explicit_dual_extent(tmp_path):
    path = write_cfg(tmp_path, "problem = merton\ny_max = 6.5\n")
    assert load_config(str(path)).y_max == 6.5


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("problem = merton\nwidth = 3\n", "unknown config keys"),
        ("problem = merton\np = 0.5\np = 0.6\n", "duplicate key"),
        ("problem = merton\np = abc\n", "bad value for p"),
        ("k_max = 2\n", "missing required key"),
        ("problem = heston\n", "problem must be one of"),
        ("problem = merton\np = 1.5\n", "p must lie in"),
        ("problem = merton\nrho = 30\n", "must not exceed x_max"),
        # the CI convex-kink config: r + g(0) = 0.3 - 0.4, so it needs 18 e^0.05 = 18.92
        ("problem = cuoco-liu\nr = 0.3\nR = 0.7\nx_max = 18.9\n", "18.92.* must not exceed x_max"),
        ("problem = merton\nk_max = 9\n", "supported maximum"),
        ("problem = merton\nM = 25\n", "M must lie in"),
        ("problem = merton\nmode = fast\n", "mode must be one of"),
        ("problem = merton\ny_max = 0\n", "y_max must be positive"),
        ("problem = merton\ny_max = wide\n", "y_max must be a number"),
        ("problem = merton\na_min = 0.5\n", "must contain 0"),
        ("problem = merton\njust a line\n", "expected 'key = value'"),
        ("problem = cuoco-liu\nR = 0.5\n", "must be at least r"),
        ("problem = merton\nx_max = inf\n", "x_max must be finite, got inf"),
        ("problem = merton\ny_max = nan\n", "y_max must be finite, got nan"),
        ("problem = merton\ny_max = -inf\n", "y_max must be finite"),
        ("problem = merton\nr = nan\n", "r must be finite, got nan"),
        ("problem = merton\niota = nan\n", "iota must be finite, got nan"),
        ("problem = cuoco-liu\nlambda_plus = -inf\n", "lambda_plus must be finite"),
        ("problem = merton\nsigma = 0\n", whole("sigma must be positive, got 0.0")),
        ("problem = merton\nT = -0.5\n", whole("T must be positive, got -0.5")),
        ("problem = merton\nx_max = 0\n", whole("x_max must be positive, got 0.0")),
        ("problem = merton\nrho = 0\n", whole("rho must be positive, got 0.0")),
        ("problem = merton\nc0 = -8\n", whole("c0 must be positive, got -8.0")),
        (
            "problem = merton\nc0 = 400\n",
            whole("c0/rho = 22.22222222222222 must fall below rho = 18.0"),
        ),
        ("problem = merton\ngamma_min = 0.5\n", whole("empty dual control interval [0.5, 0.0]")),
        (
            "problem = cuoco-liu\ngamma_max = -2\n",
            whole("empty dual control interval [-1.0, -2.0]"),
        ),
        ("problem = merton\nk_min = -1\n", whole("k_min must be nonnegative, got -1")),
        ("problem = merton\nk_min = 6\n", whole("k_min = 6 exceeds k_max = 5")),
        ("problem = merton\nseed = -1\n", whole("seed must be nonnegative, got -1")),
        (
            "problem = cuoco-liu\nlambda_plus = 0\n",
            whole("lambda_plus and lambda_minus must be positive"),
        ),
        (
            "problem = cuoco-liu\nlambda_minus = -2\n",
            whole("lambda_plus and lambda_minus must be positive"),
        ),
        ("problem = cuoco-liu\niota = -0.1\n", whole("iota must be nonnegative, got -0.1")),
        # a penalty that floats cannot hold passes every key's check; the model refuses it
        (
            "problem = cuoco-liu\nlambda_minus = 1e-320\n",
            r"^penalty vertices \(-inf, 0.0, 1.0\) and values \(nan, .*\) must be finite$",
        ),
        (
            "problem = cuoco-liu\niota = 1e308\nlambda_minus = 10\n",
            whole("penalty vertices (-0.1, 0.0, 1.0) and values (nan, nan, nan) must be finite"),
        ),
        (
            "problem = cuoco-liu\nlambda_plus = 1e-320\n",
            r"^penalty vertices \(-1.0, 0.0, inf\) and values \(.*, inf\) must be finite$",
        ),
        # a key the problem never reads is refused, not echoed as if used
        ("problem = cuoco-liu\na_min = -0.25\n", whole("a_min is not read by problem cuoco-liu")),
        ("problem = cuoco-liu\na_max = 0.5\n", whole("a_max is not read by problem cuoco-liu")),
        ("problem = merton\nR = 7\n", whole("R is not read by problem merton")),
        ("problem = merton\niota = 3\n", whole("iota is not read by problem merton")),
        ("problem = merton\nlambda_plus = 9\n", whole("lambda_plus is not read by problem merton")),
        (
            "problem = merton\nlambda_minus = 1\n",
            whole("lambda_minus is not read by problem merton"),
        ),
    ],
)
def test_config_validation_messages(tmp_path, text, fragment):
    path = write_cfg(tmp_path, text)
    with pytest.raises(ConfigError, match=fragment):
        load_config(str(path))


@pytest.mark.parametrize(
    "problem,gamma_interval,mode",
    [("merton", (0.0, 0.0), "error"), ("cuoco-liu", (-1.0, 1.0), "gap")],
)
def test_problem_alone_loads_its_defaults(tmp_path, problem, gamma_interval, mode):
    cfg = load_config(str(write_cfg(tmp_path, f"problem = {problem}\n")))
    assert (cfg.gamma_min, cfg.gamma_max) == gamma_interval
    assert cfg.mode == mode
    assert (cfg.a_min, cfg.a_max) == (-1.0, 1.0)
    assert build_problem(cfg).model.gamma_interval == gamma_interval


def test_build_problem_merton():
    problem = build_problem(load_config("merton"))
    assert problem.model.vertices == (-1.0, 1.0)
    assert problem.model.a_interval == (-1.0, 1.0)
    assert problem.reward.lipschitz == pytest.approx(3.0, abs=1.0e-12)
    assert problem.conjugate.lipschitz == 18.0


def test_build_problem_cuoco():
    problem = build_problem(load_config("cuoco_liu"))
    assert problem.model.vertices == (-1.0, 0.0, 1.0)
    assert problem.model.gamma_interval == (-1.0, 1.0)


def test_echo_is_sorted_and_stable(tmp_path):
    cfg = load_config(str(write_cfg(tmp_path, MERTON_SMALL)))
    echoed = cfg.echo()
    assert echoed.startswith("config: M=4 R=1 T=0.5 a_max=1 a_min=-1 b=1.2 c0=8")
    assert "problem=merton" in echoed
    assert "y_max=4" in echoed
    assert "k_max=2" in echoed


def test_echo_tells_apart_floats_that_g_would_merge(tmp_path):
    """A results header must name the config that wrote it."""
    plain = load_config(str(write_cfg(tmp_path, MERTON_SMALL + "r = 0.8\n", "plain.cfg")))
    nudged = load_config(str(write_cfg(tmp_path, MERTON_SMALL + "r = 0.8000001\n", "nudged.cfg")))
    assert " r=0.8 " in plain.echo()
    assert " r=0.8000001 " in nudged.echo()
    assert plain.echo() != nudged.echo()


def test_run_config_error_exit_code(capsys, tmp_path):
    code = run(["gap", "--config", str(tmp_path / "missing.cfg")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_run_rejects_a_non_finite_value_with_exit_code_2(capsys, tmp_path):
    path = write_cfg(tmp_path, "problem = merton\nx_max = inf\n")
    code = run(["solve-primal", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err == "config error: x_max must be finite, got inf\n"


@pytest.mark.parametrize("x_max, code", [("18.5", 2), ("19", 0)])
def test_run_needs_x_max_where_riskless_wealth_reaches_rho(capsys, tmp_path, x_max, code):
    """r = -0.1 shrinks riskless wealth, so the plateau closure needs x_max >= 18 e^0.05 = 18.92."""
    path = write_cfg(tmp_path, f"problem = merton\nr = -0.1\nx_max = {x_max}\n")
    assert run(["solve-primal", "--config", str(path), "--out", str(tmp_path / "out"),
                "--level", "1"]) == code
    if code == 2:
        assert capsys.readouterr().err == (
            "config error: rho exp(max(0, -(r + g(0))) T) = 18.922879734768433 "
            "must not exceed x_max = 18.5\n"
        )


def test_run_refuses_an_unread_key_before_it_writes(capsys, tmp_path):
    cfg = write_cfg(tmp_path, "problem = cuoco-liu\na_min = -0.25\na_max = 0.5\n")
    out = tmp_path / "out"
    assert run(["gap", "--config", str(cfg), "--out", str(out), "--level", "1"]) == 2
    assert capsys.readouterr().err == "config error: a_min is not read by problem cuoco-liu\n"
    assert not out.exists()


@pytest.mark.parametrize("level", ["9", "-1"])
def test_run_rejects_a_level_outside_the_ladder(capsys, tmp_path, level):
    cfg = write_cfg(tmp_path, MERTON_SMALL)
    out = tmp_path / "out"
    code = run(["solve-primal", "--config", str(cfg), "--out", str(out), "--level", level])
    assert code == 2
    assert f"level must lie in [0, 8], got {level}" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_a_config_file_that_cannot_be_read_exits_2(capsys, tmp_path, monkeypatch):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"problem = merton\nrho = 1\xff\n")
    with pytest.raises(ConfigError, match="^cannot read config file .*can't decode byte 0xff"):
        load_config(str(path))
    out = tmp_path / "out"
    assert run(["gap", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: cannot read config file {path}: ")
    assert not out.exists()

    def refuse(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    path.write_text(MERTON_SMALL, encoding="utf-8")
    monkeypatch.setattr(Path, "read_text", refuse)
    with pytest.raises(ConfigError, match="^cannot read config file .*Permission denied"):
        load_config(str(path))
    assert run(["gap", "--config", str(path), "--out", str(out)]) == 2
    assert "Permission denied" in capsys.readouterr().err


def test_an_out_directory_that_cannot_be_created_exits_2(capsys, tmp_path):
    cfg = write_cfg(tmp_path, MERTON_SMALL)
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory\n", encoding="utf-8")
    for out in (taken, taken / "below"):
        assert run(["gap", "--config", str(cfg), "--out", str(out), "--level", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot create output directory {out}: ")
    assert taken.read_text(encoding="utf-8") == "a file, not a directory\n"


def test_an_output_file_that_cannot_be_written_exits_2(capsys, tmp_path):
    out = tmp_path / "out"
    blocked = out / "primal_N8.csv"
    blocked.mkdir(parents=True)
    assert run(["solve-primal", "--config", "merton", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write an output file in {out}: ")
    assert "Is a directory" in err and str(blocked) in err
    assert blocked.is_dir() and not any(blocked.iterdir())


def test_gap_sums_tails_of_any_length(tmp_path):
    """The allowance's tail from x = 10000 runs to 2.15e7 terms; none is counted, so gap writes."""
    path = write_cfg(tmp_path, "problem = merton\nx_max = 10000\n")
    out = tmp_path / "out"
    assert run(["gap", "--config", str(path), "--out", str(out)]) == 0
    lines = (out / "gap_N8.csv").read_text(encoding="utf-8").splitlines()
    assert lines[1] == "x,gap,argmin_y,lower,upper"
    upper = np.array([line.split(",")[4] for line in lines[2:]], dtype=float)
    assert upper.size == 18 and np.all(np.isfinite(upper))


def test_polar_check_has_no_branch_cap(tmp_path):
    """A 20-point rule at N = 8 would be 20^8 branches; the product form needs 160 factors."""
    path = write_cfg(tmp_path, "problem = merton\nM = 20\n")
    out = tmp_path / "out"
    assert run(["polar-check", "--config", str(path), "--out", str(out)]) == 0
    lines = (out / "polar.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 5
    cells = np.array([line.split(",") for line in lines[2:]], dtype=float)
    assert cells.shape == (3, 5)
    assert np.all(np.isfinite(cells))


def test_solve_primal_pipeline(capsys, tmp_path):
    cfg = write_cfg(tmp_path, MERTON_SMALL)
    out = tmp_path / "out"
    code = run(["solve-primal", "--config", str(cfg), "--out", str(out), "--level", "1"])
    assert code == 0
    assert "primal level 1" in capsys.readouterr().out
    lines = (out / "primal_N8.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# config:")
    assert lines[1] == "t,x,value"
    assert len(lines) == 2 + 9 * 19


def test_solve_dual_pipeline(tmp_path):
    cfg = write_cfg(tmp_path, MERTON_SMALL)
    out = tmp_path / "out"
    assert run(["solve-dual", "--config", str(cfg), "--out", str(out), "--level", "1"]) == 0
    lines = (out / "dual_N8.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2 + 9 * 13


def test_gap_pipeline(capsys, tmp_path):
    cfg = write_cfg(tmp_path, MERTON_SMALL)
    out = tmp_path / "out"
    assert run(["gap", "--config", str(cfg), "--out", str(out), "--level", "1"]) == 0
    assert "max gap" in capsys.readouterr().out
    lines = (out / "gap_N8.csv").read_text(encoding="utf-8").splitlines()
    assert lines[1] == "x,gap,argmin_y,lower,upper"
    assert len(lines) == 2 + 18
    for line in lines[2:]:
        x, gap, argmin_y, lower, upper = map(float, line.split(","))
        assert gap > 0.0
        assert lower <= 0.0 <= upper
        assert 0.0 < argmin_y <= 4.0
        assert upper >= gap


def test_gap_refuses_a_control_interval_without_a_risky_position(capsys, tmp_path):
    """With a_min = a_max = 0 the truncation allowance has no volatility to bound.

    ``gap`` exits 2 before it writes anything; the other pipelines still run.
    """
    cfg = write_cfg(tmp_path, "problem = merton\na_min = 0\na_max = 0\nk_min = 1\nk_max = 1\n")
    out = tmp_path / "out"
    assert run(["gap", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: control interval [0.0, 0.0] holds no risky position, "
        "and the gap's truncation allowance needs a positive volatility bound\n"
    )
    assert not any(out.iterdir())
    for command in ("solve-primal", "solve-dual", "convergence", "bounds", "polar-check"):
        assert run([command, "--config", str(cfg), "--out", str(out)]) == 0, command


@pytest.mark.parametrize(
    "command, where",
    [
        ("solve-primal", "primal drift outruns the state at level 1 (N=8)"),
        ("solve-dual", "dual drift outruns the state at level 1 (N=8)"),
        ("gap", "primal drift outruns the state at level 1 (N=8)"),
        ("convergence", "primal drift outruns the state at k_min = 1 (N=8)"),
        ("bounds", "primal drift outruns the state at k_min = 1 (N=8)"),
        ("polar-check", "primal drift outruns the state at N=2"),
    ],
)
def test_a_drift_that_outruns_the_state_exits_2(capsys, tmp_path, command, where):
    """With r = 1e300 one step's drift moves the state 1e299 times its size.

    With r = 1e308 the drift bound itself overflows to inf; that is refused
    the same way, not reported as a numerical failure.
    """
    level = ["--level", "1"] if command in ("solve-primal", "solve-dual", "gap") else []
    for r in ("1e300", "1e308"):
        cfg = write_cfg(tmp_path, f"problem = merton\nr = {r}\nk_min = 1\nk_max = 1\n")
        out = tmp_path / f"out_{r}"
        assert run([command, "--config", str(cfg), "--out", str(out), *level]) == 2, r
        assert capsys.readouterr().err.startswith(f"config error: the {where}: h*drift = "), r
        assert not any(out.iterdir()), r


def test_a_drift_only_the_dual_outruns_refuses_only_the_steps_it_outruns(capsys, tmp_path):
    """A wide gamma interval: dual drift 9.8 is below 1/h at N=8 and above it at N=2."""
    text = "problem = cuoco-liu\ngamma_min = -9\ngamma_max = 9\nk_min = 1\nk_max = 1\n"
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert run(["polar-check", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: the dual drift outruns the state at N=2: "
        "h*drift = 0.25*9.8 = 2.45 must be below 1\n"
    )
    for command in ("solve-primal", "solve-dual"):
        assert run([command, "--config", str(cfg), "--out", str(out)]) == 0, command


@pytest.mark.parametrize("command", ["convergence", "bounds"])
@pytest.mark.parametrize(
    "keys, where",
    [
        ("x_max = 40\nk_min = 1\nk_max = 1", "k_min = 1: J = 18 cells on [0, x_max = 40] are 2.22"),
        ("k_min = 0\nk_max = 0", "k_min = 0: J = 7 cells on [0, x_max = 20] are 2.86"),
    ],
    ids=["x_max-40", "k_min-0"],
)
def test_an_error_window_without_a_grid_node_exits_2_before_any_solve(
    capsys, tmp_path, monkeypatch, command, keys, where
):
    """Spacing x_max / J above 2 puts no node in [1, 2]: refused before the ladder runs."""

    def no_solve(*args):
        raise AssertionError("solved before the refusal")

    monkeypatch.setattr(analytics, "solve", no_solve)
    cfg = write_cfg(tmp_path, f"problem = merton\n{keys}\n")
    out = tmp_path / "out"
    assert run([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error: the error window [1.0, 2.0] holds no primal grid node at {where} apart\n"
    )
    assert not any(out.iterdir())


@pytest.mark.parametrize("command", [["bounds"], ["convergence", "--mode", "error"]])
def test_a_closed_form_reference_for_cuoco_liu_exits_2_before_any_solve(
    capsys, tmp_path, monkeypatch, command
):
    """Only merton has a closed-form value to measure errors against."""

    def no_solve(*args):
        raise AssertionError("solved before the refusal")

    monkeypatch.setattr(analytics, "solve", no_solve)
    out = tmp_path / "out"
    assert run([*command, "--config", "cuoco_liu", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: no closed-form reference for problem cuoco-liu; use mode gap\n"
    )
    assert not any(out.iterdir())


def test_convergence_pipeline_reruns_identically(capsys, tmp_path):
    cfg = write_cfg(tmp_path, MERTON_SMALL)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert run(["convergence", "--config", str(cfg), "--out", str(out_a)]) == 0
    stdout = capsys.readouterr().out
    assert "k=1 N=8 J=18" in stdout
    assert "k=2 N=16 J=46" in stdout
    assert run(["convergence", "--config", str(cfg), "--out", str(out_b)]) == 0
    first = (out_a / "convergence_error.csv").read_bytes()
    second = (out_b / "convergence_error.csv").read_bytes()
    assert first == second
    assert len(first.splitlines()) == 4


@pytest.mark.parametrize("keys", ["sigma = 0.5\n", "a_min = -0.5\na_max = 0.5\n"])
def test_error_ladder_reference_solves_the_constrained_problem(tmp_path, keys):
    """a* = 3.2 at sigma = 0.5 and a* = 0.8 against [-0.5, 0.5]: both lie off the interval.

    The reference takes the fraction the sweep can reach, so the error
    decays instead of stalling at the distance to the unconstrained value.
    """
    cfg = write_cfg(tmp_path, "problem = merton\n" + keys)
    out = tmp_path / "out"
    assert run(["convergence", "--config", str(cfg), "--out", str(out)]) == 0
    last = (out / "convergence_error.csv").read_text(encoding="utf-8").splitlines()[-1]
    assert float(last.split(",")[6]) < 1.0e-2


def test_convergence_mode_override(tmp_path):
    cfg = write_cfg(tmp_path, "problem = merton\nk_min = 1\nk_max = 1\n")
    out = tmp_path / "out"
    assert run(["convergence", "--config", str(cfg), "--out", str(out), "--mode", "gap"]) == 0
    assert (out / "convergence_gap.csv").is_file()


def test_bounds_pipeline(tmp_path):
    cfg = write_cfg(tmp_path, MERTON_SMALL)
    out = tmp_path / "out"
    assert run(["bounds", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "bounds.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# config: ")
    assert lines[1] == "h,em_bound,gh_bound,empirical_error,duality_gap"
    assert len(lines) == 4
    assert lines[2].startswith("6.250000000000000e-02,")
    assert lines[3].startswith("3.125000000000000e-02,")
    for line in lines[2:]:
        h, em, gh, err, gap = map(float, line.split(","))
        assert em > err and gh > err


def test_polar_pipeline(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(tmp_path, MERTON_SMALL)
    assert run(["polar-check", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "polar.csv").read_text(encoding="utf-8").splitlines()
    assert lines[1] == "N,h,c_abs_mean,c_abs_max,violation_max"
    assert len(lines) == 5
    assert [line.split(",", 2)[:2] for line in lines[2:]] == [
        ["2", "2.500000000000000e-01"],
        ["4", "1.250000000000000e-01"],
        ["8", "6.250000000000000e-02"],
    ]
    for line in lines[2:]:
        cells = line.split(",")
        assert cells[4] == "0.000000000000000e+00"


def test_overflow_exits_3_before_any_csv_is_written(capsys, tmp_path):
    """A floating-point overflow is a numerical failure, not a result.

    With x_max = 1e308 the gap readout's x y overflows; the primal sweep
    alone stays finite, since the reward's chord is evaluated only up to x_rho.
    """
    cfg = write_cfg(tmp_path, "problem = merton\nx_max = 1e308\n")
    out = tmp_path / "out"
    code = run(["gap", "--config", str(cfg), "--out", str(out), "--level", "1"])
    assert code == 3
    assert capsys.readouterr().err == (
        "numerical failure: duality gap readout: overflow encountered in multiply "
        "at time index 0; largest x = 1e+308, largest y = 4\n"
    )
    assert not any(out.iterdir())
    assert run(["solve-primal", "--config", str(cfg), "--out", str(out), "--level", "1"]) == 0
    assert [path.name for path in out.iterdir()] == ["primal_N8.csv"]


def test_a_subnormal_horizon_names_the_allowance_rate_and_exits_3(capsys, tmp_path):
    """T = 1e-320 passes the config checks, but k = 3 / (8 c_psi^2 T) is inf."""
    cfg = write_cfg(tmp_path, "problem = merton\nT = 1e-320\n")
    out = tmp_path / "out"
    assert run(["gap", "--config", str(cfg), "--out", str(out), "--level", "1"]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: truncation allowance: k = 3 / (8 c_psi^2 T) is inf "
        "at T = 1e-320, c_psi = 1.0\n"
    )
    assert not any(out.iterdir())


@pytest.mark.parametrize("command, name", [("solve-primal", "primal"), ("solve-dual", "dual")])
def test_a_reward_finite_on_every_node_solves_without_overflow(tmp_path, command, name):
    """rho = 1e299 puts the chord slope at 2.2e149; x_max = 1e300 times it is past the float range.

    Each band of the reward and its conjugate is evaluated only on its
    own nodes, so the slope never meets a node beyond x_rho.
    """
    cfg = write_cfg(tmp_path, "problem = merton\nx_max = 1e300\nrho = 1e299\n")
    out = tmp_path / "out"
    assert run([command, "--config", str(cfg), "--out", str(out), "--level", "1"]) == 0
    lines = (out / f"{name}_N8.csv").read_text(encoding="utf-8").splitlines()
    cells = np.array([line.split(",") for line in lines[2:]], dtype=float)
    assert np.all(np.isfinite(cells))


@pytest.mark.parametrize(
    "keys, message",
    [
        (
            "T = 1e-300",
            "a posteriori lower bound: overflow encountered in multiply "
            "(M=4, step=1.25e-301, spacing=1.11111); largest x = 20, Lipschitz constant 3",
        ),
        (
            "p = 1e-300",
            "a posteriori lower bound: overflow encountered in multiply "
            "(M=4, step=0.0625, spacing=1.11111); largest x = 20, Lipschitz constant 2.25e+300",
        ),
        (
            "c0 = 1e-300",
            "a posteriori upper bound: overflow encountered in power "
            "(M=4, step=0.0625, spacing=1.11111); largest argmin_y = 7.07107e+149, "
            "Lipschitz constant 18",
        ),
    ],
    ids=("T", "p", "c0"),
)
def test_an_aposteriori_overflow_names_its_side_and_exits_3(capsys, tmp_path, keys, message):
    """A rate spacing/step near the float range, a chord slope near it, or an argmin_y of 7e149."""
    cfg = write_cfg(tmp_path, f"problem = merton\n{keys}\n")
    out = tmp_path / "out"
    assert run(["gap", "--config", str(cfg), "--out", str(out), "--level", "1"]) == 3
    assert capsys.readouterr().err == f"numerical failure: {message}\n"
    assert not any(out.iterdir())


@pytest.mark.parametrize(
    "keys, command, where, largest",
    [
        ("sigma = 1e-300", "solve-dual", "at time index 6", "2.33441e+299"),
        ("sigma = 1e-300", "gap", "at time index 6", "2.33441e+299"),
        ("b = 1e308", "solve-dual", "locating the displaced states", "5.83604e+307"),
    ],
)
def test_a_volatility_overflow_in_the_sweep_names_it_and_exits_3(
    capsys, tmp_path, keys, command, where, largest
):
    """A dual volatility (r - b) / sigma near the float limit overflows the lattice reads.

    ``sigma = 1e-300`` locates its states and overflows in a step's reads;
    ``b = 1e308`` overflows already while the states are located.  Neither
    is refused as a config error yet (no volatility admissibility check).
    """
    cfg = write_cfg(tmp_path, f"problem = merton\n{keys}\n")
    out = tmp_path / "out"
    assert run([command, "--config", str(cfg), "--out", str(out), "--level", "1"]) == 3
    assert capsys.readouterr().err == (
        f"numerical failure: dual sweep: overflow encountered in multiply {where} "
        f"(N=8, J=12); largest |branch factor| = {largest}\n"
    )
    assert not any(out.iterdir())


@pytest.mark.parametrize("command", ["gap", "bounds"])
def test_an_envelope_overflow_names_it_and_exits_3(capsys, tmp_path, command):
    """sigma = 20: k1 = 1.2^2 T + 20^2 = 400.72, and exp(4 k1 T) = exp(801) overflows."""
    cfg = write_cfg(tmp_path, "problem = merton\nsigma = 20\nk_min = 1\nk_max = 1\n")
    out = tmp_path / "out"
    assert run([command, "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: em_bound envelope: exp(4 k1 T) overflows at k1 = 400.72, T = 0.5\n"
    )
    assert not any(out.iterdir())


def test_an_em_bound_product_overflow_exits_3_without_writing_inf(capsys, tmp_path):
    """sigma = 18.6: exp(4 k1 T) is finite, but 24 k1 T vol^2 (1 + 4 k1 T exp(4 k1 T)) is not."""
    cfg = write_cfg(tmp_path, "problem = merton\nsigma = 18.6\nk_min = 1\nk_max = 1\n")
    out = tmp_path / "out"
    assert run(["bounds", "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: em_bound envelope: its product overflows at k1 = 346.68, T = 0.5\n"
    )
    assert not any(out.iterdir())


def test_a_polar_check_overflow_names_it_and_exits_3(capsys, tmp_path):
    """Branch means of about 1e283 overflow the product over N = 2 steps."""
    cfg = write_cfg(tmp_path, "problem = merton\nsigma = 1e-300\n")
    out = tmp_path / "out"
    assert run(["polar-check", "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: polar check: overflow encountered in reduce (N=2); "
        "largest |branch mean| = 9.29386e+282\n"
    )
    assert not any(out.iterdir())


def install_checkout(tmp_path):
    """Install a copy of the checkout into a prefix under ``tmp_path``.

    The declared build backend is called directly, so neither pip, the
    ``wheel`` package nor the network is needed, and every build artefact
    lands in the copy.  Returns the prefix's ``(purelib, scripts)`` paths.
    """
    pytest.importorskip("setuptools")
    source = tmp_path / "source"
    shutil.copytree(
        REPO / "src",
        source / "src",
        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"),
    )
    for name in ("pyproject.toml", "README.md"):
        shutil.copy2(REPO / name, source / name)
    prefix = tmp_path / "prefix"
    paths = sysconfig.get_paths(vars={"base": str(prefix), "platbase": str(prefix)})
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            "from setuptools import setup; setup()",
            "install",
            "--single-version-externally-managed",
            "--record",
            str(tmp_path / "record.txt"),
            "--prefix",
            str(prefix),
            "--install-lib",
            paths["purelib"],
            "--install-scripts",
            paths["scripts"],
        ],
        cwd=source,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, f"install of the checkout failed:\n{proc.stderr}"
    return paths["purelib"], paths["scripts"]


def test_console_script_smoke(tmp_path, monkeypatch):
    purelib, scripts = install_checkout(tmp_path)
    # the launcher must import the installed copy, not the checkout's src
    monkeypatch.setenv("PYTHONPATH", purelib)
    monkeypatch.setenv("PATH", scripts + os.pathsep + os.environ.get("PATH", ""))
    exe = shutil.which("dualgap")
    assert exe is not None, "console script must be on PATH after install"
    cfg = write_cfg(tmp_path, "problem = merton\nk_min = 1\nk_max = 1\n")
    proc = subprocess.run(
        [exe, "solve-primal", "--config", str(cfg), "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "primal_N8.csv").is_file()
