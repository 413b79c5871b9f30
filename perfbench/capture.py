"""Write ``reference.json``: the outputs every benchmark pass is checked against.

    PYTHONPATH=src python3 perfbench/capture.py

Runs each workload's invocations once and stores, per output file, the
header echo with its seed templated, the column line, the line count and
the data lines (all of them for small files, an evenly spaced sample of
the surface dumps).  ``polar.csv`` is the only output whose values depend
on the seed; its data lines are stored for seeds 0 to ``POLAR_SEEDS - 1``.
Capture only at a commit whose outputs are known to be right.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import outputs
import workloads
from worker import run_pass

#: files with more lines than this keep only a sample of them
FULL_LINES = 2000
SAMPLE_LINES = 257
POLAR_SEEDS = 256


def file_entry(path, seeded):
    lines = path.read_text(encoding="utf-8").splitlines()
    data = range(2, len(lines))
    if len(lines) > FULL_LINES:
        step = (len(lines) - 3) / (SAMPLE_LINES - 1)
        data = sorted({2 + round(i * step) for i in range(SAMPLE_LINES)})
    rows = {str(i): lines[i] for i in data}
    entry = {
        "header": outputs.template_header(lines[0]),
        "columns": lines[1],
        "lines": len(lines),
        "rows": {} if seeded else rows,
    }
    return entry, rows


def run_once(cli, workload, seed, scratch):
    """{invocation key: {file name: (entry, rows)}} for one pass at ``seed``."""
    config_dir = Path(tempfile.mkdtemp(dir=scratch))
    workloads.write_configs(workload, seed, config_dir)
    invocations = workloads.WORKLOADS[workload]
    if seed != 0:
        invocations = [inv for inv in invocations if inv.key in workloads.SEEDED]
    _, records = run_pass(invocations, cli.run, config_dir, config_dir / "out")
    captured = {}
    for rec in records:
        if rec.failures:
            raise SystemExit(f"{workload} {rec.key} failed: {rec.failures}")
        out = config_dir / "out" / rec.key
        captured[rec.key] = {
            p.name: file_entry(p, rec.key in workloads.SEEDED) for p in sorted(out.iterdir())
        }
    shutil.rmtree(config_dir)
    return captured


def main():
    from dualgap import cli

    scratch = Path(__file__).resolve().parent.parent / ".perfbench_runs"
    scratch.mkdir(exist_ok=True)
    reference = {"invocations": {}, "polar": {}}
    for workload in workloads.WORKLOADS:
        for key, files in run_once(cli, workload, 0, scratch).items():
            reference["invocations"][key] = {name: entry for name, (entry, _) in files.items()}
    for seed in range(POLAR_SEEDS):
        for key, files in run_once(cli, "certify", seed, scratch).items():
            (_, rows), = files.values()
            reference["polar"].setdefault(str(seed), {})[key] = rows
    text = json.dumps(reference, indent=0, sort_keys=True) + "\n"
    outputs.REFERENCE.write_text(text, encoding="utf-8")
    print(f"wrote {outputs.REFERENCE}", file=sys.stderr)


if __name__ == "__main__":
    main()
