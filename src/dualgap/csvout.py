"""The one CSV format: a ``# header`` line, the column line, one line per row.

Rows are written as they arrive, so no file is ever held in memory.
"""

from numbers import Integral


def cell(value):
    """One CSV cell: strings as they are, integers via ``str``, floats as ``.15e``."""
    if isinstance(value, str):
        return value
    if isinstance(value, Integral):
        return str(value)
    return f"{value:.15e}"


def write_csv(path, header, columns, rows):
    """Write ``# header``, the column line ``columns``, then each row's cells."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {header}\n{columns}\n")
        for row in rows:
            fh.write(",".join(map(cell, row)) + "\n")
