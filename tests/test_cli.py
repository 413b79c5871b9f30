"""Config handling, subcommand pipelines, exit codes, output files."""

import os
import re
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from dualgap import ConfigError
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
    assert problem.model.name == "merton"
    assert problem.model.a_interval == (-1.0, 1.0)
    assert problem.reward.lipschitz == pytest.approx(3.0, abs=1.0e-12)
    assert problem.conjugate.lipschitz == 18.0


def test_build_problem_cuoco():
    problem = build_problem(load_config("cuoco_liu"))
    assert problem.model.name == "cuoco-liu"
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


def test_run_resource_limit_exit_code(capsys, tmp_path):
    # order 20 branches explode at the third chain length
    path = write_cfg(tmp_path, "problem = merton\nM = 20\n")
    code = run(["polar-check", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


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
    """A floating-point overflow is a numerical failure, not a result."""
    cfg = write_cfg(tmp_path, "problem = merton\nx_max = 1e308\n")
    out = tmp_path / "out"
    code = run(["solve-primal", "--config", str(cfg), "--out", str(out), "--level", "1"])
    assert code == 3
    assert capsys.readouterr().err.startswith("numerical failure: ")
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
