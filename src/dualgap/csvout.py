"""The one CSV format: a ``# header`` line, the column line, one line per row.

Every file fixes one format per column: ``%d`` for integer columns and
``%.15e`` for float columns (the same bytes as ``format(v, ".15e")``, so
``nan``, ``inf`` and ``-0.0`` as Python spells them).
Rows arrive in blocks of bytes, one write each, so at most one block of
text is ever in memory.  A ``table`` is one block made by one ``%`` format.

A ``grid`` block is a slab of whole rows of a surface, at most ``_SLAB``
cells (some 540 KB of text) unless one row holds more, built as a
fixed-width byte matrix: the ``%.15e`` text of 0.0 and of a positive
finite value with a two-digit exponent is always 21 bytes wide.  One
line template per file holds the inner key cells, the commas and the
newlines; a slab writes its outer key cells and value cells into it and
yields a copy.  The value digits are exact integers, as in Adams, "Ryu
revisited: printf floating point conversion" (OOPSLA 2019): a value
v = m 2**e scaled by 10**s is m 5**s / 2**k, a 128-bit product divided
by a power of two, rounded half to even on its remainder in uint64
arithmetic, with s read from tables indexed by the binary exponent.
That decides 0.0 and every value in [2**-38, 2**52), about
[3.64e-12, 4.5e15); ``%`` formats the others, and a slab with a value of
another width (a negative, ``-0.0``, nan, inf, an exponent of three
digits) is written row by row, a row that does not fit being one ``%``
format as a whole.
"""

import functools
import math
from numbers import Integral

import numpy as np

_FLOAT = "%.15e"
_FORMATS = {int: "%d", float: _FLOAT}
# what a cell of each column kind may be: np.float64 is a float, np.int64 an Integral
_ACCEPTS = {int: Integral, float: float}

#: the width of ``"%.15e" % v`` for 0.0 and a positive v with a two-digit exponent
_WIDTH = 21
#: a cell of that width as one numpy item
_CELL = np.dtype(f"V{_WIDTH}")
#: one grid line "outer,inner,value\n" of three such cells; the gaps hold the commas
_LINE = np.dtype(
    {
        "names": ["outer", "inner", "value"],
        "formats": [_CELL] * 3,
        "offsets": [0, _WIDTH + 1, 2 * (_WIDTH + 1)],
        "itemsize": 3 * (_WIDTH + 1),
    }
)
#: six digit words whose last 21 bytes are a cell
_WORDS = np.dtype({"names": ["cell"], "formats": [_CELL], "offsets": [3], "itemsize": 24})
#: the most cells of a grid slab of whole rows, unless one row holds more
_SLAB = 8192
#: the biased exponents E of the binades [2**(E - 1023), 2**(E - 1022)) whose digits
#: are computed: the shift k = 1075 - E - s is 63 at 2**-38 and 1 just below 2**52
_BINADES = range(985, 1075)


def _words(rows):
    """Each row of four bytes as one uint32 word with those bytes in memory."""
    return np.ascontiguousarray(rows, np.uint8).view(np.uint32).ravel()


@functools.cache
def _tables():
    """The scale tables, the powers 5**s in 32-bit halves, and three digit tables.

    Indexed by the top 12 bits of a float64 (sign and biased exponent E),
    the scale tables give the s and the k of the binade's values from its
    ``threshold`` on, the least double whose 16 digits round up to
    10**(d + 1), d = floor(log10 2**(E - 1023)), and ``hidden``, the
    mantissa's leading bit; a value below the threshold takes s + 1 and
    k - 1.  Outside the computed binades s is 15 (0.0's exponent e+00), k
    is 63 and the hidden bit 0, so no value there reaches 16 digits.  The
    digit tables are "000d.ddd", the first four digits with the point
    after the leading one; "dddd", the four digits of d < 10**4; and
    "e+dd" or "e-dd", the exponent 15 - s.  Built at the first grid.
    """
    scale = np.full(4096, 15, np.intp)
    shift = np.full(4096, 63, np.uint64)
    threshold = np.full(4096, -np.inf)
    hidden = np.zeros(4096, np.uint64)
    for e in _BINADES:
        # (e - 1023) log10 2 is 0 or 0.0103 or more from an integer, so the float floor is exact
        d = math.floor((e - 1023) * math.log10(2))
        scale[e] = 14 - d
        shift[e] = 1075 - e - scale[e]
        # 10**(d + 1) less half a unit of its 16th digit, (10**17 - 5) / 10**(16 - d),
        # rounds up to it, a tie to even; int division rounds it to the nearest double
        num, den = 10**17 - 5, 10 ** (16 - d)
        nearest = num / den
        p, q = nearest.as_integer_ratio()
        threshold[e] = nearest if p * den >= num * q else math.nextafter(nearest, math.inf)
        hidden[e] = 2**52
    powers = np.array([5**s for s in range(28)], np.uint64)
    # row d of the indices of a (10, 10, 10, 10) array holds the digits of d
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + ord("0")
    heads = np.zeros((len(digits), 8), np.uint8)
    heads[:, 3:] = np.insert(digits, 1, ord("."), axis=1)
    exponents = [list(b"e%+03d" % (15 - s)) for s in range(len(powers))]
    return (
        (scale, shift, threshold, hidden),
        (powers >> 32, powers & 0xFFFFFFFF),
        heads.view(np.uint64).ravel(),
        _words(digits),
        _words(exponents),
    )


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


def _digits(values, cells):
    """Write the ``%.15e`` text of the float64 ``values`` into the 21-byte ``cells``.

    Returns the indices of the values whose text it did not decide; their
    cells hold other bytes.
    """
    # v = m 2**(E - 1075) with m < 2**53, so 10**s v = m 5**s / 2**k, k = 1075 - E - s,
    # where s puts the rounded integer part n, the 16 digits, in [1e15, 1e16).
    # Each ``del`` frees a temporary at once: a slab's peak stays near 0.45 MiB.
    (scale, shift, threshold, hidden), (power_high, power_low), heads, quads, exponents = _tables()
    bits = values.view(np.uint64)
    top = (bits >> 52).view(np.intp)
    below = values < threshold[top]
    s = scale[top] + below
    k = shift[top] - below
    m = (bits & (2**52 - 1)) | hidden[top]
    del top, below
    # the product m 5**s = high 2**64 + low from 32-bit halves: m < 2**53, 5**s < 2**63
    high = m >> 32
    m &= 0xFFFFFFFF
    p_high = power_high[s]
    p_low = power_low[s]
    middle = m * p_high
    low = m * p_low
    p_low *= high
    middle += p_low
    high *= p_high
    del m, p_high, p_low
    high += middle >> 32
    middle <<= 32
    low += middle
    high += low < middle
    del middle
    rest = 64 - k
    n = np.left_shift(high, rest, out=high)
    n |= low >> k
    del high, k
    # the remainder below bit k at the top of a word, where one half is 2**63;
    # adding n's last bit rounds a tie to even, and cannot carry out of the word
    low <<= rest
    low += n & 1
    del rest
    n += low > 2**63
    del low
    sure = (n >= 10**15) | (bits == 0)
    lead = n // 10**12
    n -= lead * 10**12
    words = np.empty(len(values), _WORDS)
    quad = words.view(np.uint32).reshape(-1, 6)
    # a cell is bytes 3 to 23 of six words: "000d" ".ddd" "dddd" "dddd" "dddd" "e+dd"
    words.view(np.uint64).reshape(-1, 3)[:, 0] = heads[lead.view(np.intp)]
    np.floor_divide(n, 10**8, out=lead)
    quad[:, 2] = quads[lead.view(np.intp)]
    n -= lead * 10**8
    np.floor_divide(n, 10**4, out=lead)
    quad[:, 3] = quads[lead.view(np.intp)]
    n -= lead * 10**4
    quad[:, 4] = quads[n.view(np.intp)]
    quad[:, 5] = exponents[s]
    cells[...] = words["cell"]
    return np.flatnonzero(~sure)


def _fill(values, cells):
    """Write the ``%.15e`` text of ``values`` into the 21-byte ``cells``.

    False, with ``cells`` half written, when some value's text is not 21
    bytes wide.
    """
    unsure = _digits(values, cells)
    texts = [b"%.15e" % value for value in values[unsure].tolist()]
    if any(len(text) != _WIDTH for text in texts):
        return False
    if texts:
        cells[unsure] = np.frombuffer(b"".join(texts), _CELL)
    return True


def grid(outer, inner, data):
    """Blocks of whole rows of ``outer,inner,value`` lines of a float array.

    ``data[i, j]`` is the value at ``outer[i]`` and ``inner[j]``, cast
    exactly to float64 if it is of a narrower float type.  Every key cell
    is formatted once per file.  A block is a slab of at most ``_SLAB``
    cells (or one row) of one array of lines whose inner cells and commas are laid out
    once per file and whose outer and value cells are written per slab.
    A slab that does not fit that layout is written row by row, and a row
    that does not fit it is one ``%`` call over a template of the key cells.
    """
    if data.dtype.kind != "f":
        raise TypeError(f"{data.dtype} values in a float column")
    inner_cells = [_FLOAT % x for x in inner.tolist()]
    outer_cells = [_FLOAT % t for t in outer.tolist()]
    # ``sep.join`` puts the outer key before every piece after the empty first one
    pieces = [""] + [f"{cell},{_FLOAT}\n" for cell in inner_cells]

    def formatted(key, row):
        return (f"{key},".join(pieces) % tuple(row.tolist())).encode()

    if any(len(cell) != _WIDTH for cell in inner_cells):
        for key, row in zip(outer_cells, data):
            yield formatted(key, row)
        return
    rows = max(1, _SLAB // max(1, len(inner_cells)))
    lines = np.empty((rows, len(inner_cells)), _LINE)
    # through bytes: assigning a line copies its fields, not the commas between them
    blank = " " * _WIDTH
    lines.view(np.uint8)[...] = np.frombuffer(
        "".join(f"{blank},{cell},{blank}\n" for cell in inner_cells).encode(), np.uint8
    )
    flat = lines.reshape(-1)
    for start in range(0, len(outer_cells), rows):
        keys = outer_cells[start : start + rows]
        values = np.asarray(data[start : start + len(keys)], np.float64)
        slab = lines[: len(keys)]
        if all(len(key) == _WIDTH for key in keys) and _fill(
            values.ravel(), flat[: slab.size]["value"]
        ):
            slab["outer"] = np.frombuffer("".join(keys).encode(), _CELL)[:, None]
            yield slab.tobytes()
            continue
        for key, row, line in zip(keys, values, slab):
            if len(key) == _WIDTH and _fill(row, line["value"]):
                line["outer"] = np.frombuffer(key.encode(), _CELL)
                yield line.tobytes()
            else:
                yield formatted(key, row)
