"""README's "Library use" block runs as printed."""

import contextlib
import io
import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_block_prints_a_finite_float():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(block, f"{README.name} (Library use)", "exec"), {})
    assert math.isfinite(float(printed.getvalue()))
