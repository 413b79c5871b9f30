"""The one CSV format: a ``# header`` line, the column line, one line per row.

Every file fixes one format per column: ``%d`` for integer columns and
``%.15e`` for float columns (the same bytes as ``format(v, ".15e")``, so
``nan``, ``inf`` and ``-0.0`` as Python spells them).
Rows arrive in blocks of bytes, one write each, so at most one block of
text is ever in memory.  A ``table`` is one block made by one ``%`` format.

A ``grid`` block is one row of a surface, built as a fixed-width byte
matrix: the ``%.15e`` text of a nonnegative finite value with a two-digit
exponent is always 21 bytes wide.  Its digits come from one long-double
multiply per value, rounded where the product's error cannot change the
rounding; ``%`` formats each value that this does not decide, and a row
with a value of another width (a negative, nan, inf, an exponent of three
digits) is one ``%`` format as a whole.
"""

import functools
from numbers import Integral

import numpy as np

_FLOAT = "%.15e"
_FORMATS = {int: "%d", float: _FLOAT}
# what a cell of each column kind may be: np.float64 is a float, np.int64 an Integral
_ACCEPTS = {int: Integral, float: float}

#: the width of ``"%.15e" % v`` for 0.0 and a positive v with a two-digit exponent
_WIDTH = 21
#: one grid line "outer,inner,value\n" of three such cells
_LINE = 3 * (_WIDTH + 1)
#: the value cell's columns in a grid line
_VALUE = slice(2 * (_WIDTH + 1), _LINE - 1)
#: how far from 1/2 a scaled value's fractional part must be to be rounded here
_TIE = 2.0**55 * np.finfo(np.longdouble).eps


def _words(rows):
    """Each row of four bytes as one uint32 word with those bytes in memory."""
    return np.ascontiguousarray(rows, np.uint8).view(np.uint32).ravel()


@functools.cache
def _tables():
    """The powers 10**s for s = 0..27 as long doubles, and three word tables.

    The words are "dddd", the four ASCII digits of d < 10**4; ".ddd", the
    point after the leading digit and the next three digits; and "e+dd" or
    "e-dd", the exponent 15 - s.  Built at the first grid, not at import.
    """
    powers = np.concatenate(([1], np.cumprod(np.full(27, 10, np.longdouble))))
    # row d of the indices of a (10, 10, 10, 10) array holds the digits of d
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + ord("0")
    pointed = np.where(np.arange(4) == 0, np.uint8(ord(".")), digits[:1000])
    exponents = [list(b"e%+03d" % (15 - s)) for s in range(len(powers))]
    return powers, _words(digits), _words(pointed), _words(exponents)


def write_csv(path, header, columns, blocks):
    """Write ``# header``, the column line ``columns``, then each block's bytes."""
    with open(path, "wb") as fh:
        fh.write(f"# {header}\n{columns}\n".encode())
        for block in blocks:
            fh.write(block)


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
    return [(line * len(rows) % tuple(value for row in rows for value in row)).encode()]


def _fill(values, cells):
    """Write the ``%.15e`` text of ``values`` into the (len, 21) byte matrix ``cells``.

    False, with ``cells`` half written, when some value's text is not 21
    bytes wide.
    """
    # A value in [1e-12, 1e15) is scaled by 10**s, s = 15 - floor(log10(v)),
    # into y in [1e15, 1e16) < 2**54, whose integer part holds the 16 digits.
    # Each 10**s up to s = 27 is exact in a 64-bit mantissa (5**27 < 2**64),
    # so the product's error is at most 2**53 eps: a fractional part farther
    # than _TIE from 1/2 rounds as the exact product's does.  Where long
    # double is a plain double, _TIE >= 1/2 and every value goes to ``%``.
    powers, quads, pointed, exponents = _tables()
    usual = (values >= 1e-12) & (values < 1e15)
    v = np.where(usual, values, 1.0)
    s = np.clip(15 - np.floor(np.log10(v)), 0, len(powers) - 1).astype(np.intp)
    y = v.astype(np.longdouble) * powers[s]
    n = y.astype(np.int64)
    offset = y - n - 0.5
    # the range is checked on the truncated n: log10 may round a value just
    # below a power of ten up to it, and its rounded n would then read 10**15
    sure = usual & (np.abs(offset) > _TIE) & (n >= 10**15)
    n += offset > 0
    sure &= n < 10**16
    lead, n = np.divmod(n, 10**15)
    three, n = np.divmod(n, 10**12)
    high, n = np.divmod(n, 10**8)
    middle, low = np.divmod(n, 10**4)
    # a cell is bytes 3 to 23 of six words: "000d" ".ddd" "dddd" "dddd" "dddd" "e+dd"
    words = (quads[lead], pointed[three], quads[high], quads[middle], quads[low], exponents[s])
    cells[...] = np.stack(words, axis=1).view(np.uint8)[:, 3:]
    unsure = np.flatnonzero(~sure)
    texts = [b"%.15e" % value for value in values[unsure].tolist()]
    if any(len(text) != _WIDTH for text in texts):
        return False
    if texts:
        cells[unsure] = np.frombuffer(b"".join(texts), np.uint8).reshape(-1, _WIDTH)
    return True


def grid(outer, inner, data):
    """One block per ``outer`` key: the lines ``outer,inner,value`` of a float array.

    ``data[i, j]`` is the value at ``outer[i]`` and ``inner[j]``.  Every key
    cell is formatted once per file.  A block is one byte matrix whose
    inner cells and commas are laid out once and whose outer and value
    cells are written per row; a row that does not fit that layout is
    one ``%`` call over a template of the key cells.
    """
    if data.dtype.kind != "f":
        raise TypeError(f"{data.dtype} values in a float column")
    inner_cells = [_FLOAT % x for x in inner.tolist()]
    # ``sep.join`` puts the outer key before every piece after the empty first one
    pieces = [""] + [f"{cell},{_FLOAT}\n" for cell in inner_cells]
    lines = None
    if all(len(cell) == _WIDTH for cell in inner_cells):
        lines = np.full((len(inner_cells), _LINE), ord(","), np.uint8)
        lines[:, _WIDTH + 1 : 2 * _WIDTH + 1] = np.frombuffer(
            "".join(inner_cells).encode(), np.uint8
        ).reshape(-1, _WIDTH)
        lines[:, -1] = ord("\n")
    for key, row in zip(outer.tolist(), data):
        key_cell = _FLOAT % key
        if lines is not None and len(key_cell) == _WIDTH and _fill(row, lines[:, _VALUE]):
            lines[:, :_WIDTH] = np.frombuffer(key_cell.encode(), np.uint8)
            yield lines.tobytes()
        else:
            yield (f"{key_cell},".join(pieces) % tuple(row.tolist())).encode()
