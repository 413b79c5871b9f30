"""Correctness checks on the CSV files one invocation wrote.

The reference (``reference.json``, written by ``capture.py``) holds, per
invocation and file, the header echo with the seed left as ``{seed}``, the
column line, the line count and reference data lines: every line of the
small files and an evenly spaced sample of the surface dumps.  Numbers
must agree to ``math.isclose(rel_tol=1e-12, abs_tol=1e-14)``, the tightest
relative and absolute tolerances the package's tests pin.  ``polar.csv``
depends on the seed value, so its data lines are stored per seed; for a
seed without an entry only its structure is checked here and the
cross-pass byte identity the worker enforces carries the check.
"""

import hashlib
import json
import math
import re
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"
REL_TOL = 1.0e-12
ABS_TOL = 1.0e-14

_SEED = re.compile(r"\bseed=\d+\b")


def template_header(line):
    """Header line with the seed value replaced by ``{seed}``."""
    return _SEED.sub("seed={seed}", line)


def load_reference():
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def digest(path):
    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            sha.update(block)
    return sha.hexdigest()


def _same_number(a, b):
    try:
        x, y = float(a), float(b)
    except ValueError:
        return a == b
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return math.isclose(x, y, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def compare_line(got, want):
    """None if the comma-separated fields agree, else a description."""
    got_cells, want_cells = got.split(","), want.split(",")
    if len(got_cells) != len(want_cells):
        return f"{len(got_cells)} fields, want {len(want_cells)}"
    for i, (a, b) in enumerate(zip(got_cells, want_cells)):
        if not _same_number(a, b):
            return f"field {i}: {a} != {b}"
    return None


def check_file(path, entry, seed, rows):
    """Problems found in one CSV against its reference ``entry`` and data ``rows``."""
    problems = []
    header = entry["header"].replace("{seed}", str(seed))
    count = 0
    with open(path, encoding="utf-8") as fh:
        for count, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            index = count - 1
            if index == 0:
                if line != header:
                    problems.append(f"{path.name}: header differs from the reference")
            elif index == 1:
                if line != entry["columns"]:
                    problems.append(f"{path.name}: columns {line!r}, want {entry['columns']!r}")
            elif index in rows:
                why = compare_line(line, rows[index])
                if why is not None:
                    problems.append(f"{path.name}:{count}: {why}")
    if count != entry["lines"]:
        problems.append(f"{path.name}: {count} lines, want {entry['lines']}")
    return problems


def check_invocation(out_dir, key, reference, seed):
    """Problems in the files under ``out_dir`` that invocation ``key`` wrote."""
    expected = reference["invocations"][key]
    found = sorted(p.name for p in Path(out_dir).iterdir()) if Path(out_dir).is_dir() else []
    if found != sorted(expected):
        return [f"files {found}, want {sorted(expected)}"]
    seeded = reference["polar"].get(str(seed), {}).get(key)
    problems = []
    for name, entry in expected.items():
        lines = seeded if seeded is not None else entry["rows"]
        rows = {int(i): text for i, text in lines.items()}
        problems.extend(check_file(Path(out_dir) / name, entry, seed, rows))
    return problems
