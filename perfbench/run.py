"""dualgap benchmark: one workload run, printed as named metrics and a JSON line.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 28 --trace 0

Run from a checkout that holds ``src/dualgap``.  Every measurement runs in
a fresh single-threaded child process (``worker.py``), one at a time, with
its configs and outputs in a temporary directory under ``.perfbench_runs/``
that is removed afterwards.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: the median
untraced pass time, the median set-up time over several fresh processes,
and the pass process's peak resident memory.  ``--trace 1`` splits the
time between an untraced and a traced process and reports the per-layer
metrics of the traced passes plus the tracing overhead.  Every run checks
every pass's outputs; the last line is
``{"correct", "attempted", "failed", "metrics"}``.

Times are rescaled to a reference machine speed: each invocation's wall
time (and each set-up time) is multiplied by the machine's relative speed
that ``worker.SpeedSampler`` sampled across it.  On the 2-core VM the
benchmark was defined on, the speed of the same code shifts by up to 40%
within seconds, and raw pass times spread 20-45% between passes.  Raw
wall times are printed alongside, and ``pass_wall_s`` reports their
median in traced runs.
"""

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
#: fresh processes that time set-up, after one discarded warm-up that fills bytecode caches
SETUP_PROCESSES = 5
#: the whole run, children included, must end within this many seconds
RUN_LIMIT_S = 170.0
TAIL_BEYOND = 10


def tail_percentile(samples, beyond=TAIL_BEYOND):
    """(percentile, value) of the highest order statistic with ``beyond`` samples above it.

    None when there are not more than ``beyond`` samples.
    """
    n = len(samples)
    if n <= beyond:
        return None
    return 100.0 * (n - beyond) / n, sorted(samples)[n - beyond - 1]


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


class Runner:
    """Starts worker processes one at a time inside the run's time limit."""

    def __init__(self, args, run_dir):
        self.args = args
        self.run_dir = run_dir
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = child_env()
        self.serial = 0

    def worker(self, seconds=0.0, trace=0, setup_only=False):
        self.serial += 1
        result = self.run_dir / f"result-{self.serial}.json"
        cmd = [
            sys.executable,
            str(ROOT / "perfbench" / "worker.py"),
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--seconds", repr(seconds),
            "--trace", str(trace),
            "--run-dir", str(self.run_dir),
            "--result", str(result),
        ]
        if setup_only:
            cmd.append("--setup-only")
        done = subprocess.run(
            cmd,
            cwd=ROOT,
            env=self.env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            timeout=max(1.0, self.deadline - time.monotonic()),
        )
        if done.returncode != 0:
            raise RuntimeError(f"worker failed ({done.returncode}):\n{done.stderr[-2000:]}")
        return json.loads(result.read_text(encoding="utf-8"))


def invocation_counts(*results):
    records = [r for res in results for p in res["passes"] for r in p["invocations"]]
    failed = [r for r in records if r["failures"]]
    return len(records), failed


def wall_seconds(result):
    return [p["seconds"] for p in result["passes"]]


def pass_seconds(result):
    """Rescaled pass times: each invocation's time times the speed sampled across it.

    An invocation too short to catch a sample takes its pass's mean speed.
    """
    times = []
    for p in result["passes"]:
        sampled = [r["speed"] for r in p["invocations"] if r["speed"] is not None]
        fallback = statistics.fmean(sampled) if sampled else 1.0
        speeds = [fallback if r["speed"] is None else r["speed"] for r in p["invocations"]]
        times.append(sum(r["seconds"] * s for r, s in zip(p["invocations"], speeds)))
    return times


def setup_seconds(result):
    return result["setup_s"] * result["speed"]


def end_to_end(runner):
    runner.worker(setup_only=True)
    setup = [setup_seconds(runner.worker(setup_only=True)) for _ in range(SETUP_PROCESSES)]
    result = runner.worker(seconds=runner.args.seconds)
    setup.append(setup_seconds(result))
    times = pass_seconds(result)
    tail = tail_percentile(times)
    tail_text = (
        f"p{tail[0]:.1f} = {tail[1]!r} s" if tail else f"n/a (needs more than {TAIL_BEYOND} passes)"
    )
    metrics = {
        "pass_s": statistics.median(times),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes = [
        f"passes: {len(times)} rescaled {times}",
        f"passes: wall {wall_seconds(result)}, median {statistics.median(wall_seconds(result))!r} s",
        f"setup samples: {len(setup)} rescaled {setup}",
        f"pass_s.tail (informational): {tail_text} over {len(times)} passes",
    ]
    return metrics, [result], notes


def per_layer(runner):
    half = runner.args.seconds / 2.0
    plain = runner.worker(seconds=half)
    traced = runner.worker(seconds=half, trace=1)
    by_pass = spans.pass_metrics(*spans.read(runner.run_dir / "spans.tsv"))
    per_pass = []
    for pass_id, record in enumerate(traced["passes"]):
        m = by_pass.get(pass_id, dict.fromkeys(spans.METRICS, 0))
        m["cli.output_bytes"] = record["output_bytes"]
        per_pass.append(m)
    metrics = spans.median_metrics(per_pass)
    metrics["trace_overhead"] = (
        statistics.median(pass_seconds(traced)) / statistics.median(pass_seconds(plain)) - 1.0
    )
    metrics["pass_wall_s"] = statistics.median(wall_seconds(plain))
    notes = [
        f"untraced passes: rescaled {pass_seconds(plain)}, wall {wall_seconds(plain)}",
        f"traced passes: rescaled {pass_seconds(traced)}, wall {wall_seconds(traced)}",
    ]
    unsteady = [
        name
        for name in spans.METRICS
        if not name.endswith(".s") and len({m.get(name, 0) for m in per_pass}) > 1
    ]
    if unsteady:
        notes.append(f"counts that differ between passes: {unsteady}")
    return metrics, [plain, traced], notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (ROOT / "src" / "dualgap" / "cli.py").is_file():
        print(f"no dualgap sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    scratch = ROOT / ".perfbench_runs"
    scratch.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch))
    try:
        workloads.write_configs(args.workload, args.seed, run_dir)
        runner = Runner(args, run_dir)
        metrics, results, notes = (per_layer if args.trace else end_to_end)(runner)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.rmdir()  # only when no other run is using it

    attempted, failed = invocation_counts(*results)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(
        f"machine: nproc={os.cpu_count()} cpu={cpu_model()!r} "
        f"python={platform.python_version()} numpy={results[0]['numpy']}"
    )
    for note in notes:
        print(note)
    for rec in failed[:5]:
        print(f"FAILED {rec['key']}: {' | '.join(rec['failures'])[:500]}")
    print(f"fail_share = {len(failed) / attempted!r} ({len(failed)}/{attempted} invocations)")
    report = {}
    for spec in wanted:
        value = metrics[spec["name"]]
        report[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{spec['name']} = {value!r} {spec['unit']}")
    print(
        json.dumps(
            {"correct": not failed, "attempted": attempted, "failed": len(failed), "metrics": report}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
