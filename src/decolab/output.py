"""Deterministic text serialization for curves, fields, and reports.

Identical inputs must produce byte-identical files: floats are always
written with 17 significant digits, metadata carries a hash of the run
configuration instead of timestamps, and ordering is fixed everywhere.

Table numbers are written by a numpy kernel whose bytes are those of
"%.16e", CPython's correctly rounded conversion (format_float's too), for
every float64.  For finite x with 1e-290 <= |x| < 1e290 it finds the
decimal exponent k and the 17-digit integer n = round(|x| 10^(16-k)):

* k starts at floor(log10 |x|) and moves by one where the scaled value
  lies outside [10^16 - 0.04, 10^17 + 0.4).  In the window's margins k and
  its neighbour give the same text: both round to 1.0000000000000000e..;
* 10^m is held as hi + lo: hi is 10^m correctly rounded and lo the
  remainder 10^m - hi correctly rounded, both from exact integers.  The
  product |x| hi is split exactly into p + e by Dekker's algorithm (Dekker
  1971), and r = e + |x| lo.  As p >= 10^16 > 2^53, p is an integer, so
  n = p + floor(r), plus one where the fraction r - floor(r) exceeds 1/2;
  n = 10^17 becomes 10^16 at k + 1.

Error bound: p + r differs from |x| 10^(16-k) < 10^17 by at most 6e-15,
below 1e-13 of a last-digit unit: 1.2e-15 from lo's rounding (2^-106
relative), 1.2e-15 from rounding |x| lo, 3.6e-15 from the sum e + |x| lo
(|r| < 32).  floor(r) and r - floor(r) are exact.

Fallback domain, formatted by "%.16e" itself: NaN and +-inf; |x| < 1e-290
or |x| >= 1e290 (10^(16-k) or its Dekker halves would leave the normal
range), zeros excepted; and every value whose fraction lies within 1e-6
of 1/2.  That last margin holds the 6e-15 error many times over and so
catches exact decimal ties such as 1234567890123456.25, which CPython
rounds half to even: the double-double cannot tell an exact tie from a
value 1e-14 away from one.  A value whose corrected k still leaves the
window would fall back too; none is known.  Zeros are written directly,
with their sign.

The text of a block is laid out in a uint8 matrix, one fixed 25-byte slot
per number (sign, digits, exponent of up to 3 digits, separator) after the
structured-text "r<i> = " prefix.  A byte left 0 is not written: the sign
of a positive number, a third exponent digit that reads 0, the leading
zeros of i and the tail of a fallback slot.  A block's text is the
matrix's nonzero bytes, taken in one compress.
"""

import functools
import hashlib
from pathlib import Path

import numpy as np

DELIMITED = "delimited-text"
STRUCTURED = "structured-text"
FORMATS = (DELIMITED, STRUCTURED)

# rows per block of the runner's table fill and of write_table's one-pass
# kernel, whose temporaries scale with BLOCK_ROWS x columns values (14,336
# for the spin table's 7 columns), about 150 bytes per value
BLOCK_ROWS = 2048

# |x| outside [_SMALLEST, _LARGEST) is formatted by "%.16e" (module docstring)
_SMALLEST = 1e-290
_LARGEST = 1e290
_TIE_MARGIN = 1e-6
# 10^m is tabulated for m = 16 - k in [_M_LOW, _M_HIGH]: k estimates for the
# domain above lie in [-291, 290], corrected ones in [-292, 291]
_M_LOW = -276
_M_HIGH = 308
# Veltkamp's constant 2^27 + 1: splits a double into two 26-bit halves
_SPLIT = 134217729.0
# a number's slot: sign, 17 digits and the point, "e", the exponent's sign
# and 3 digits, then the separator ("," or a newline)
_SLOT = 25
_SEPARATOR = 24
_ASCII_DIGITS = np.frombuffer(b"0123456789", dtype=np.uint8)


def format_float(x: float) -> str:
    """17 significant digits, enough to round-trip any double exactly."""
    return f"{float(x):.16e}"


def config_hash(text: str) -> str:
    """Stable identity of a run configuration: sha256 of its text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def data_extension(fmt: str) -> str:
    if fmt == DELIMITED:
        return ".csv"
    if fmt == STRUCTURED:
        return ".txt"
    raise ValueError(f"unknown format {fmt!r}")


@functools.cache
def _power_table() -> np.ndarray:
    """Rows hi, lo, hi's Dekker halves for 10^m, m = _M_LOW .. _M_HIGH,
    from exact integers; built on first use (about 0.5 ms)."""
    his, los = [], []
    q = 10 ** -_M_LOW
    for _ in range(_M_LOW, 0):  # 10^m = 1 / q
        hi = 1 / q  # int / int rounds correctly
        num, den = hi.as_integer_ratio()
        his.append(hi)
        los.append((den - num * q) / (den * q))  # 10^m - hi, rounded once
        q //= 10
    power = 1
    for _ in range(0, _M_HIGH + 1):
        hi = float(power)  # int -> float rounds correctly
        his.append(hi)
        los.append(float(power - int(hi)))
        power *= 10
    hi = np.array(his)
    # Veltkamp's split into 26-bit halves, scaled by 2^-100 first where
    # _SPLIT * hi would overflow (the scaling is exact)
    scale = np.where(hi > 1e290, 2.0 ** 100, 1.0)
    scaled = hi / scale
    c = _SPLIT * scaled
    high = c - (c - scaled)
    table = np.stack([hi, np.array(los), high * scale, (scaled - high) * scale])
    table.flags.writeable = False
    return table


@functools.cache
def _quad_table() -> np.ndarray:
    """"0000" .. "9999", each 4-byte string as one uint32, so that a gather
    moves four digits at once; built on first use."""
    i = np.arange(10_000, dtype=np.uint16)
    digits = np.empty((10_000, 4), dtype=np.uint8)
    for place, decade in enumerate((1000, 100, 10, 1)):
        digits[:, place] = i // decade % 10 + ord("0")
    table = digits.view(np.uint32)[:, 0]
    table.flags.writeable = False
    return table


def _scaled_floor(a: np.ndarray, k: np.ndarray):
    """floor(a 10^(16-k)) as int64 and the fraction beyond it, from the
    double-double p + r, which is within 6e-15 of a 10^(16-k) (module
    docstring).  p is an integer wherever k is right."""
    index = np.clip(16 - k - _M_LOW, 0, _M_HIGH - _M_LOW)
    hi, lo, hi_high, hi_low = (row.take(index) for row in _power_table())
    c = _SPLIT * a
    a_high = c - (c - a)
    a_low = a - a_high
    p = a * hi
    r = (((a_high * hi_high - p) + a_high * hi_low + a_low * hi_high) + a_low * hi_low) + a * lo
    floor = np.floor(r)
    return p.astype(np.int64) + floor.astype(np.int64), r - floor


def _off_by_one(n: np.ndarray, fraction: np.ndarray) -> np.ndarray:
    """Where the scaled value n + fraction lies outside the window
    [10^16 - 0.04, 10^17 + 0.4), so that k must move.  Inside the window's
    margins both k and the next decade round to the same text ("1.0...e")."""
    return (
        (n < 10 ** 16 - 1) | ((n == 10 ** 16 - 1) & (fraction < 0.96))
        | (n > 10 ** 17) | ((n == 10 ** 17) & (fraction >= 0.4))
    )


def _decimal(values: np.ndarray):
    """n, k and the fallback mask for an array of values: outside the
    fallback, the value is +-n 10^(k-16), n rounded to nearest, with
    10^16 <= n < 10^17, or n = k = 0 for a zero."""
    a = np.abs(values)
    regular = (a >= _SMALLEST) & (a < _LARGEST)  # False for NaN, inf and 0
    a = np.where(regular, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)
    n, fraction = _scaled_floor(a, k)
    wrong = _off_by_one(n, fraction)
    if wrong.any():
        k[wrong] += np.where(n[wrong] >= 10 ** 17, 1, -1)
        n[wrong], fraction[wrong] = _scaled_floor(a[wrong], k[wrong])
        wrong = _off_by_one(n, fraction)
    n += fraction > 0.5
    carried = n == 10 ** 17  # rounded up to the next decade
    n[carried] = 10 ** 16
    k[carried] += 1
    fallback = ~regular | wrong | (np.abs(fraction - 0.5) < _TIE_MARGIN)
    zero = values == 0.0
    # a zero is written from n = k = 0; a fallback's slot is overwritten,
    # and n = k = 0 keeps its digit lookups in range
    n[fallback] = 0
    k[fallback] = 0
    return n, k, fallback & ~zero


def _layout(rows: int, columns: int, prefix: int) -> np.ndarray:
    """The constant bytes of a block: a prefix of `prefix` bytes, then one
    _SLOT per number.  A byte left 0 is not written."""
    out = np.zeros((rows, prefix + columns * _SLOT), dtype=np.uint8)
    cells = out[:, prefix:].reshape(rows, columns, _SLOT)
    cells[..., 2] = ord(".")
    cells[..., 19] = ord("e")
    cells[..., _SEPARATOR] = ord(",")
    cells[:, -1, _SEPARATOR] = ord("\n")
    if prefix:
        out[:, 0] = ord("r")
        out[:, prefix - 3:prefix] = np.frombuffer(b" = ", dtype=np.uint8)
    return out


def _format_block(block: np.ndarray, out: np.ndarray, prefix: int, first_row: int) -> np.ndarray:
    """The text of `block`'s rows as bytes: written into out, which _layout
    made for at least as many rows, and read back as its nonzero bytes."""
    rows, columns = block.shape
    out = out[:rows]
    if prefix:  # "r<index> = ", the index in prefix - 4 digit places
        rest = np.arange(first_row, first_row + rows)
        for column in range(prefix - 4, 0, -1):
            upper = rest // 10
            digit = _ASCII_DIGITS[rest - upper * 10]
            # a leading zero is dropped; the last place always stays
            out[:, column] = digit if column == prefix - 4 else np.where(rest > 0, digit, 0)
            rest = upper
    cells = out[:, prefix:].reshape(rows, columns, _SLOT)
    n, k, fallback = _decimal(block)
    cells[..., 0] = np.where(np.signbit(block), ord("-"), 0)
    # n = leading 10^16 + (q0 10^12 + q1 10^8 + q2 10^4 + q3): the digits
    # after the point come four at a time from _quad_table()
    upper = n // 10 ** 8
    leading = upper // 10 ** 8
    halves = np.stack([upper - leading * 10 ** 8, n - upper * 10 ** 8], axis=-1)
    high = halves // 10 ** 4
    quads = np.stack([high, halves - high * 10 ** 4], axis=-1)
    cells[..., 1] = _ASCII_DIGITS[leading]
    quad_table = _quad_table()
    cells[..., 3:19] = quad_table[quads.reshape(rows, columns, 4)].view(np.uint8)
    cells[..., 20] = np.where(k < 0, ord("-"), ord("+"))
    exponent = quad_table[np.abs(k)].view(np.uint8).reshape(rows, columns, 4)
    # a third exponent digit only from 100 on
    cells[..., 21] = np.where(exponent[..., 1] == ord("0"), 0, exponent[..., 1])
    cells[..., 22:24] = exponent[..., 2:]
    for i, j in zip(*np.nonzero(fallback)):
        text = b"%.16e" % block[i, j]
        cells[i, j, :_SEPARATOR] = 0
        cells[i, j, :len(text)] = np.frombuffer(text, dtype=np.uint8)
    text = out[out != 0]
    # the next block rewrites every other byte of a slot
    cells[fallback, 2], cells[fallback, 19] = ord("."), ord("e")
    return text


def write_table(path: Path, meta: dict, columns: list[str], rows, fmt: str) -> None:
    """Write one table of float columns in the requested format.

    delimited-text: '#' key = value header lines, then bare comma-separated
    rows (numpy.loadtxt-friendly).  structured-text: [meta] and [data]
    sections with one indexed key per row.  Data with no values, such as an
    empty list, is a table of no rows.  Lines end in a newline byte on
    every platform.

    Rows are formatted BLOCK_ROWS at a time by the kernel the module
    docstring describes; every number is written as "%.16e" writes it.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if not rows.size:
        rows = rows.reshape(0, len(columns))
    if rows.shape[1] != len(columns):
        raise ValueError(f"{rows.shape[1]} columns of data for {len(columns)} names")
    if fmt == DELIMITED:
        header = [f"# {key} = {value}" for key, value in meta.items()]
        header.append(f"# columns = {','.join(columns)}")
        prefix = 0
    elif fmt == STRUCTURED:
        header = ["[meta]", *(f"{key} = {value}" for key, value in meta.items())]
        header += [f"columns = {','.join(columns)}", f"rows = {rows.shape[0]}", "[data]"]
        prefix = len(str(max(rows.shape[0] - 1, 0))) + 4
    else:
        raise ValueError(f"unknown format {fmt!r}")
    with open(path, "wb") as handle:
        handle.write(("\n".join(header) + "\n").encode("utf-8"))
        if rows.shape[0]:
            out = _layout(min(rows.shape[0], BLOCK_ROWS), rows.shape[1], prefix)
            for start in range(0, rows.shape[0], BLOCK_ROWS):
                # the kernel's byte views need C-ordered intermediates
                block = np.ascontiguousarray(rows[start:start + BLOCK_ROWS])
                handle.write(_format_block(block, out, prefix, start))


def write_sections(path: Path, sections: dict) -> None:
    """Write a key-value document with [section] headers (reports, summaries)."""
    lines = []
    for section, entries in sections.items():
        lines.append(f"[{section}]")
        for key, value in entries.items():
            lines.append(f"{key} = {value}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
