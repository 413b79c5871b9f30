"""The one CSV format: a ``# header`` line, the column line, one line per row.

Every file fixes one format per column: ``%d`` for integer columns and
``%.15e`` for float columns (the same bytes as ``format(v, ".15e")``, so
``nan``, ``inf`` and ``-0.0`` as Python spells them).
Rows arrive in blocks of ``(template, values)``; a block is one ``%``
format and one write, so at most one block of text is ever in memory.
"""

from numbers import Integral

_FLOAT = "%.15e"
_FORMATS = {int: "%d", float: _FLOAT}
# what a cell of each column kind may be: np.float64 is a float, np.int64 an Integral
_ACCEPTS = {int: Integral, float: float}


def write_csv(path, header, columns, blocks):
    """Write ``# header``, the column line ``columns``, then each block's text."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {header}\n{columns}\n")
        for template, values in blocks:
            fh.write(template % values)


def table(kinds, rows):
    """A small table as one block; ``kinds`` gives each column's type.

    A cell of another type (a bool, an integer in a float column, a float
    in an integer column) raises ``TypeError`` instead of being written in
    some other format.
    """
    rows = [tuple(row) for row in rows]
    for row in rows:
        for kind, value in zip(kinds, row, strict=True):
            if isinstance(value, bool) or not isinstance(value, _ACCEPTS[kind]):
                raise TypeError(f"{type(value).__name__} {value!r} in a {kind.__name__} column")
    line = ",".join(_FORMATS[kind] for kind in kinds) + "\n"
    return [(line * len(rows), tuple(value for row in rows for value in row))]


def grid(outer, inner, data):
    """One block per ``outer`` key: the lines ``outer,inner,value`` of a float array.

    ``data[i, j]`` is the value at ``outer[i]`` and ``inner[j]``.  Every key
    cell is formatted once per file, each block's template is one join,
    and its values are filled in by one ``%`` call.
    """
    if data.dtype.kind != "f":
        raise TypeError(f"{data.dtype} values in a float column")
    # ``sep.join`` puts the outer key before every piece after the empty first one
    pieces = [""] + [f"{_FLOAT % x},{_FLOAT}\n" for x in inner.tolist()]
    for key, row in zip(outer.tolist(), data):
        yield f"{_FLOAT % key},".join(pieces), tuple(row.tolist())
