"""Tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import outputs
import run
import spans
import workloads
from spans import Span
from worker import run_pass

ROOT = Path(__file__).resolve().parent.parent


def _span(sid, start, end, parent=0, name="x", pass_id=0):
    return Span(sid, name, start, end, parent, pass_id)


def test_self_time_subtracts_nested_and_back_to_back_children():
    tree = [
        _span(1, 0, 100),
        _span(2, 10, 40, parent=1),
        _span(3, 20, 30, parent=2),  # grandchild: inside its parent, not the root
        _span(4, 40, 70, parent=1),  # starts where span 2 ends
    ]
    own = spans.self_times(tree)
    assert own == {1: 40, 2: 20, 3: 10, 4: 30}


def test_covered_counts_overlap_once_and_clips_to_the_parent():
    assert spans.covered(0, 100, [(10, 40), (30, 50)]) == 40
    assert spans.covered(0, 100, [(30, 50), (10, 40), (40, 45)]) == 40
    assert spans.covered(20, 60, [(10, 30), (50, 80)]) == 20
    assert spans.covered(0, 10, []) == 0


def test_pass_metrics_sum_self_times_and_counts_per_pass():
    tree = [
        _span(1, 0, 3_000_000_000, name="solver.solve.primal.k2"),
        _span(2, 0, 1_000_000_000, parent=1, name="solver.primal_step"),
        _span(3, 1_000_000_000, 2_000_000_000, parent=1, name="solver.primal_step"),
        _span(4, 0, 500_000_000, name="solver.primal_step", pass_id=1),
    ]
    counts = {(0, "lattice.interpolate.points"): 7}
    by_pass = spans.pass_metrics(tree, counts, [])
    assert by_pass[0]["solver.solve.primal.k2.s"] == pytest.approx(1.0)
    assert by_pass[0]["solver.primal_step.s"] == pytest.approx(2.0)
    assert by_pass[0]["solver.primal_step.calls"] == 2
    assert by_pass[0]["lattice.interpolate.points"] == 7
    assert by_pass[1]["solver.primal_step.calls"] == 1
    assert by_pass[1]["lattice.interpolate.points"] == 0


def test_distinct_share_groups_calls_by_enclosing_solve():
    tree = [
        _span(1, 0, 100, name="solver.solve.dual.k1"),
        _span(2, 0, 50, parent=1, name="solver.dual_step"),
        _span(3, 0, 10, parent=2, name="market.penalty_conjugate"),
        _span(4, 10, 20, parent=2, name="market.penalty_conjugate"),
        _span(5, 50, 100, parent=1, name="solver.dual_step"),
        _span(6, 50, 60, parent=5, name="market.penalty_conjugate"),
        _span(7, 200, 210, name="market.penalty_conjugate"),
    ]
    returns = [(3, "0.5"), (4, "0.5"), (6, "0.25"), (7, "0.5")]
    share = spans.pass_metrics(tree, {}, returns)[0]["market.penalty_conjugate.distinct_share"]
    assert share == pytest.approx((2 + 1) / 4)


def test_tail_percentile_needs_more_than_ten_samples_beyond_it():
    assert run.tail_percentile(list(range(10))) is None
    assert run.tail_percentile(list(range(11))) == (pytest.approx(100 / 11), 0)
    assert run.tail_percentile(list(range(20, 0, -1))) == (50.0, 10)
    assert run.tail_percentile(list(range(100))) == (90.0, 89)


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_exit_code_3_counts_as_failed_and_keeps_its_time(tmp_path):
    clock = _Clock()
    codes = iter([0, 3])

    def fake_cli(argv):
        clock.now += 2.5
        return next(codes)

    invocations = workloads.WORKLOADS["ladder-merton"][:2]
    seconds, records = run_pass(invocations, fake_cli, tmp_path, tmp_path / "pass", clock=clock)
    assert seconds == 5.0
    assert [r.rc for r in records] == [0, 3]
    assert [r.seconds for r in records] == [2.5, 2.5]
    assert not records[0].failures and records[1].failures
    result = {"passes": [{"invocations": [vars(r) for r in records]}]}
    attempted, failed = run.invocation_counts(result)
    assert attempted == 2 and [r["key"] for r in failed] == [invocations[1].key]


def test_a_crashing_invocation_is_failed_not_fatal(tmp_path):
    def broken_cli(argv):
        raise ValueError("boom")

    _, records = run_pass(workloads.WORKLOADS["ladder-cuoco"], broken_cli, tmp_path, tmp_path)
    assert records[0].rc is None and "boom" in records[0].failures[0]


def test_compare_line_uses_the_pinned_tolerances():
    assert outputs.compare_line("1,2.000000000000001,nan", "1,2.0,nan") is None
    assert outputs.compare_line("1,2.00000000001", "1,2.0") is not None
    assert outputs.compare_line("1,1e-15", "1,0") is None
    assert outputs.compare_line("1,2", "1,2,3") is not None


def test_seed_echo_is_templated():
    line = "# config: M=4 k_max=5 seed=17 sigma=1"
    assert outputs.template_header(line) == "# config: M=4 k_max=5 seed={seed} sigma=1"


def test_generated_configs_carry_the_seed_only_in_the_seed_key():
    one, two = workloads.config_text("merton", 1), workloads.config_text("merton", 2)
    diff = [(a, b) for a, b in zip(one.splitlines(), two.splitlines()) if a != b]
    assert diff == [("seed = 1", "seed = 2")]
    assert "k_max = 5" in workloads.config_text("cuoco_liu", 0)


def test_benchmark_json_declares_what_the_benchmark_reports():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    per_layer = [m["name"] for m in declared["per_layer"]]
    assert per_layer == [*spans.METRICS, "trace_overhead", "pass_wall_s"]
    assert {m["name"] for m in declared["end_to_end"]} == {"pass_s", "setup_s", "peak_rss_mb"}
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)


def test_install_wraps_every_binding_of_a_traced_function():
    script = (
        "import spans, dualgap.solver as s, dualgap.lattice as l, dualgap.analytics as a;"
        "spans.install(spans.Tracer());"
        "assert s.interpolate is l.interpolate and hasattr(l.interpolate, '__wrapped__');"
        "assert a.solve is s.solve and hasattr(s.solve, '__wrapped__');"
        "import dualgap.market as m, dualgap.optim as o;"
        "assert m.golden_max is o.golden_max and hasattr(o.golden_max, '__wrapped__')"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
