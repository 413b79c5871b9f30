"""One benchmark process: set-up, then timed passes over a workload's CLI invocations.

``run.py`` starts this script once per measurement with ``PYTHONPATH``
pointing at the package sources and single-threaded numeric libraries.
With ``--setup-only`` it only times set-up and exits.  Otherwise it runs passes
until the next one would overrun ``--seconds``, checks every pass's output
against the reference and against the first pass byte for byte, and writes
a JSON result (and, with ``--trace 1``, a span dump) into ``--run-dir``.

The speed of the machine this was written on drifts by up to 40% within
seconds, so a ``SpeedSampler`` samples the machine's speed throughout each
timed invocation and ``run.py`` rescales every time by it.
"""

import argparse
import contextlib
import io
import json
import math
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import List, Optional

import outputs
import spans
import workloads

#: wall-clock period of the speed probe during passes
PROBE_INTERVAL_S = 0.02
#: probe duration that defines the reference speed; rescaled times are
#: wall times at the speed where the probe takes this long
PROBE_REFERENCE_S = 0.0003
#: probe runs after set-up, the first one discarded
SETUP_SPEED_PROBES = 41


@dataclass
class InvocationRecord:
    key: str
    rc: Optional[int]
    seconds: float
    failures: List[str] = field(default_factory=list)
    #: relative machine speed sampled while it ran (see SpeedSampler)
    speed: Optional[float] = None


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f, lo, hi, steps):
    c, d = hi - _INVPHI * (hi - lo), lo + _INVPHI * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(steps):
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - _INVPHI * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INVPHI * (hi - lo)
            fd = f(d)
    return max(fc, fd)


class SpeedSampler:
    """Measures how fast the machine runs right now, to rescale times by.

    ``probe`` times a fixed kernel made of the two operations the package
    spends most calls on: numpy calls on scalars (a golden-section search
    over a piecewise-linear penalty) and on short rows (a guarded linear
    interpolation).  It is a frozen copy, so it does not speed up with the
    package.  Of the kernels tried, this one tracked the workloads' own
    slowdowns most closely.  Inside a ``with`` block the probe runs every
    ``interval`` seconds of wall time from a SIGALRM timer, between the
    program's bytecodes, and its durations collect in ``durations``.
    """

    def __init__(self, interval=PROBE_INTERVAL_S):
        import numpy as np

        self._np = np
        self._xs = np.linspace(0.0, 1.0, 65)
        self._ys = self._xs * self._xs
        self._query = self._xs * 1.01 - 0.005
        self.interval = interval
        self.durations = []
        self._previous = None

    def _penalty(self, a):
        np = self._np
        arr = np.asarray(a, dtype=float)
        short = np.maximum(0.0, -arr)
        return -0.9 * short - 0.2 * (1.0 - np.maximum(0.0, arr) - 0.5 * short)

    def probe(self):
        np = self._np
        start = time.perf_counter()
        _golden_max(lambda a: float(self._penalty(a)) - a * 0.3, -1.0, 1.0, 40)
        for factor in (1.01, 0.99, 1.02):
            row = np.asarray(self._ys, dtype=float)
            np.all(np.isfinite(row))
            query = self._query * factor
            out = np.interp(query, self._xs, row)
            left = query < 0.0
            if np.any(left):
                out = np.where(left, row[0] + query, out)
            np.where(query > 1.0, row[-1], out)
        return time.perf_counter() - start

    def _tick(self, signum, frame):
        self.durations.append(self.probe())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def relative_speed(durations):
    """Mean of the probe's reference time over its measured times; None without samples.

    Work done is the integral of speed over time, so a time multiplied
    by the mean relative speed sampled across it is the time the same
    work takes at the reference speed.
    """
    if not durations:
        return None
    return statistics.fmean(PROBE_REFERENCE_S / d for d in durations)


def timed_setup(config_paths):
    """Seconds from before ``import dualgap`` until every config is loaded and built."""
    start = time.perf_counter()
    from dualgap import cli

    for path in config_paths:
        cli.build_problem(cli.load_config(str(path)))
    return cli, time.perf_counter() - start


def run_pass(invocations, cli_run, config_dir, pass_dir, clock=time.perf_counter, sampler=None):
    """Run each invocation once; return (pass seconds, records).

    The pass time is the sum of the invocation times.  An invocation that
    exits nonzero or raises is recorded as failed with its time kept.
    With a running ``sampler``, the probe time that fell inside an
    invocation is taken off its time and the speed sampled there recorded.
    """
    records = []
    for inv in invocations:
        argv = inv.argv(config_dir, Path(pass_dir) / inv.key)
        sink = io.StringIO()
        seen = len(sampler.durations) if sampler else 0
        start = clock()
        rc, failures = None, []
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = cli_run(argv)
        except Exception:  # a crash is a failed invocation, not a failed benchmark
            failures.append(traceback.format_exc(limit=3))
        seconds = clock() - start
        probes = sampler.durations[seen:] if sampler else []
        if rc not in (0, None):
            failures.append(f"exit code {rc}: {sink.getvalue().strip()[-200:]}")
        record = InvocationRecord(inv.key, rc, seconds - sum(probes), failures)
        if sampler:
            record.speed = relative_speed(probes)
        records.append(record)
    return sum(r.seconds for r in records), records


def check_pass(records, pass_dir, reference, seed, first_digests):
    """Add output problems to ``records``; return (digests, output bytes).

    ``first_digests`` holds the first pass's digests (empty on the first
    pass); any later file that differs from it byte for byte fails.
    """
    digests = {}
    total = 0
    for rec in records:
        out_dir = Path(pass_dir) / rec.key
        if rec.rc == 0:
            rec.failures.extend(outputs.check_invocation(out_dir, rec.key, reference, seed))
        for path in sorted(out_dir.glob("*")) if out_dir.is_dir() else ():
            name = f"{rec.key}/{path.name}"
            digests[name] = outputs.digest(path)
            total += path.stat().st_size
            if first_digests and first_digests.get(name) != digests[name]:
                rec.failures.append(f"{path.name} differs from the first pass")
    return digests, total


def measure(args, cli, invocations, reference, tracer, sampler):
    passes = []
    first_digests = {}
    start = time.perf_counter()
    while True:
        cycle = time.perf_counter()
        pass_dir = args.run_dir / f"pass-{len(passes)}"
        if tracer is not None:
            tracer.pass_id = len(passes)
        with sampler:
            seconds, records = run_pass(
                invocations, cli.run, args.run_dir, pass_dir, sampler=sampler
            )
        digests, total = check_pass(records, pass_dir, reference, args.seed, first_digests)
        shutil.rmtree(pass_dir, ignore_errors=True)
        first_digests = first_digests or digests
        passes.append(
            {"seconds": seconds, "output_bytes": total, "invocations": [asdict(r) for r in records]}
        )
        now = time.perf_counter()
        if now - start + (now - cycle) > args.seconds:
            return passes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="time set-up and exit")
    parser.add_argument("--run-dir", type=Path, required=True, help="holds the configs")
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args(argv)

    invocations = workloads.WORKLOADS[args.workload]
    configs = [args.run_dir / f"{name}.cfg" for name in sorted({i.config for i in invocations})]
    cli, setup_s = timed_setup(configs)
    sampler = SpeedSampler()
    durations = [sampler.probe() for _ in range(SETUP_SPEED_PROBES)][1:]
    result = {"setup_s": setup_s, "speed": relative_speed(durations)}
    if not args.setup_only:
        tracer = None
        if args.trace:
            tracer = spans.Tracer()
            spans.install(tracer)
        reference = outputs.load_reference()
        result["passes"] = measure(args, cli, invocations, reference, tracer, sampler)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["numpy"] = sys.modules["numpy"].__version__
        if tracer is not None:
            tracer.write(args.run_dir / "spans.tsv")
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
