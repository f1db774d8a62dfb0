"""CSV rows of float64 values, each written as ``'%.9g' % value`` would write it.

A finite value v != 0 has a nine-digit significand s and a decimal exponent
e, |v| ~ s * 10**(e - 8) with 10**8 <= s < 10**9.  ``'%.9g'`` writes it in
fixed form for -4 <= e < 9, else as d.dddddddde+XX, and drops trailing zeros
and a bare point.  Here each value gets a 16-byte record, two little-endian
uint64 words computed with numpy, whose unused bytes are NUL:

    byte 0        '-' for a set sign bit
    bytes 1..10   the digits with the point after digit Q: fixed form with
                  e >= 0 (Q = e + 1), and exponential form (Q = 1)
    bytes 1..5    "0." to "0.000" in fixed form with e < 0, whose nine
                  digits then fill bytes 6..14
    bytes 11..14  "e+XX" in exponential form
    byte 15       ',' or '\\n'

A zero is "0" in byte 1, after its sign.
One ``bytearray.translate`` per block deletes the NULs.  Python writes
every value the tables cannot settle: non-finite values, exponents of three
digits, and near-ties, whose rounding the float arithmetic cannot decide.
Their records are marked with a 0x01 byte and filled by one Python ``%``
pass per block.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cache

import numpy as np

# values per block: every temporary array of a block stays at 32 KiB
BLOCK_VALUES = 4096
_E0 = 330                # the table row of decimal exponent e is e + _E0
_ROWS = _E0 + 310        # log10 of inf is clamped to the last row
_E_MAX = 99              # a larger |e| takes three exponent digits: Python writes it
# y = |v| * 10**(8 - e) carries at most two roundings, 2**-52 * 10**9 < 2.3e-7;
# farther than this from a half-integer, rint(y) is the correctly rounded s
_TIE_MARGIN = 1e-6
_MARK = 1                # the first word of a record that Python writes
_ZERO = np.uint64(ord("0") << 8)
_DIV_1000 = 1099511628   # (x * _DIV_1000) >> 40 == x // 1000 for 0 <= x < 10**9
_U8, _U56, _U63 = np.uint64(8), np.uint64(56), np.uint64(63)


def _bytes_at(codes, at) -> np.ndarray:
    """uint64 words holding the byte codes ``codes[..., i]`` at byte ``at + i``."""
    codes = np.asarray(codes, dtype=np.uint64)
    shifts = _U8 * (at + np.arange(codes.shape[-1])).astype(np.uint64)
    return np.bitwise_or.reduce(codes << shifts, axis=-1)


@cache
def _tables() -> dict:
    """Lookup tables, indexed by a 3-digit group, a table row or a body length."""
    g = np.arange(1000)
    t = {"DIGITS": _bytes_at(np.stack([g // 100, g // 10 % 10, g % 10], -1) + ord("0"), 0)}
    # significant digits of the group as digits 0-2, 3-5 or 6-8 of s, trailing zeros dropped
    t["N_SIG"] = np.where(g > 0, 3 - (g % 10 == 0) - (g % 100 == 0) + np.c_[[0, 3, 6]], 0)

    e = np.arange(_ROWS) - _E0
    fixed = (e >= -4) & (e < 9)
    t["POW10"] = np.full(_ROWS, np.inf)
    t["POW10"][_E0 - _E_MAX:_E0 + _E_MAX + 1] = [float(f"1e{8 - k}")
                                                 for k in range(-_E_MAX, _E_MAX + 1)]
    q = np.where(fixed, np.where(e >= 0, e + 1, 9), 1)   # Q = 9: no point is ever kept
    t["Q"] = q
    t["KEEP"] = np.where(fixed & (e >= 0), e + 1, 0)      # the integer digits, zeros too
    # digits 0 .. 7 are bytes 0 .. 7 of one word: those after the point move up a byte
    shift_q = np.minimum(q, 7).astype(np.uint64) * _U8
    t["AFTER"] = np.where(q < 8, ~((np.uint64(1) << shift_q) - np.uint64(1)), np.uint64(0))
    t["DOT_LO"] = np.where(q < 8, np.uint64(ord(".")) << shift_q, np.uint64(0))
    t["DOT_HI"] = np.where(q == 8, np.uint64(ord(".")), np.uint64(0))
    t["LAST_SHIFT"] = np.where(q < 9, _U8, np.uint64(0))
    # the body starts at record byte 1, or at byte 6 after "0.000"
    t["START"] = np.where(fixed & (e < 0), np.uint64(48), _U8)
    head = np.zeros((_ROWS, 5), np.uint64)
    for k in range(-4, 0):
        head[k + _E0, :1 - k] = np.frombuffer(b"0.000"[:1 - k], np.uint8)
    t["HEAD"] = _bytes_at(head, 1)
    mag = np.abs(e) % 100             # two digits; Python writes the rows past 99
    tail = np.stack([np.full(_ROWS, ord("e")), np.where(e < 0, ord("-"), ord("+")),
                     mag // 10 + ord("0"), mag % 10 + ord("0")], -1)
    t["TAIL"] = np.where(fixed, np.uint64(0), _bytes_at(tail, 3))
    # the first n of the 10 body bytes: masks of the low word and the high bytes
    t["KEEP_LO"] = np.array([(1 << 8 * min(n, 8)) - 1 for n in range(11)], np.uint64)
    t["KEEP_HI"] = np.array([(1 << 8 * max(n - 8, 0)) - 1 for n in range(11)], np.uint64)
    return t


def _format_block(v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the records of the float64 values ``v`` into the rows of ``out``, uint64 (n, 2).

    ``out`` holds the separators on entry.  Returns the indices of the values
    left to Python, whose records are marked.  Each stage is its own
    function, so that its temporaries are freed before the next begins.
    """
    nonzero = np.flatnonzero(v)
    if len(nonzero) < len(v):
        # a zero is "0" after its sign: the digit work is for the others only
        # (most values of an analytic waveform are zeros)
        out[:, 0] = (v.view(np.uint64) >> _U63) * np.uint64(ord("-")) | _ZERO
        if not len(nonzero):
            return nonzero
        records = out[nonzero]
        left = _format_block(v[nonzero], records)
        out[nonzero] = records
        return nonzero[left]
    row, s, left = _significands(v)
    _write_records(v, row, *_digits(s), out)
    out[left, 0] = _MARK
    out[left, 1] &= np.uint64(0xFF) << _U56
    return left


def _significands(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Table rows (decimal exponents), nine-digit significands, values left to Python."""
    a = np.abs(v)
    e = np.log10(a)
    e += _E0
    np.fmax(e, 0, out=e)              # nan: row 0
    np.fmin(e, _ROWS - 1, out=e)      # inf
    row = e.astype(np.intp)           # e >= 0, so truncation is floor
    y = np.multiply(a, _tables()["POW10"][row], out=a)
    r = np.rint(y)
    d = np.subtract(y, r, out=y)
    np.abs(d, out=d)
    # a near-tie, or nan: from nan and inf (row 0 and the last), and from a
    # power of ten not held; Python writes them, over a valid placeholder
    left = np.flatnonzero(~(d < 0.5 - _TIE_MARGIN))
    r[left] = 1e8
    if r.max() >= 1e9:                # rounded up to 10**9: the next decade
        carry = r >= 1e9
        r[carry] = 1e8
        row += carry
        left = np.union1d(left, np.flatnonzero(row > _E0 + _E_MAX))
    return row, r.astype(np.intp), left


def _digits(s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Digits 0 .. 7 of ``s`` as bytes 0 .. 7 of a word, digit 8, and the significant digits."""
    t = _tables()
    thousands = (s * _DIV_1000) >> 40
    g2 = s - thousands * 1000
    g0 = (thousands * _DIV_1000) >> 40
    g1 = thousands - g0 * 1000
    digits = t["DIGITS"][g1] << np.uint64(24)
    digits |= t["DIGITS"][g0]
    last = t["DIGITS"][g2]
    digits |= last << np.uint64(48)
    last >>= np.uint64(16)
    n_sig = np.maximum(t["N_SIG"][0][g0], t["N_SIG"][1][g1])
    np.maximum(n_sig, t["N_SIG"][2][g2], out=n_sig)
    return digits, last, n_sig


def _write_records(v: np.ndarray, row: np.ndarray, digits: np.ndarray, last: np.ndarray,
                   n_sig: np.ndarray, out: np.ndarray) -> None:
    """Lay out each value's sign, prefix, digits, point and exponent in its record."""
    t = _tables()
    # body bytes written: the significant digits, at least the integer part,
    # and the point when a digit follows it
    kept = np.maximum(n_sig, t["KEEP"][row])
    kept += n_sig > t["Q"][row]

    after = digits & t["AFTER"][row]
    lo = digits ^ after
    lo |= after << _U8
    lo |= t["DOT_LO"][row]
    lo &= t["KEEP_LO"][kept]
    hi = after >> _U56
    hi |= last << t["LAST_SHIFT"][row]
    hi |= t["DOT_HI"][row]
    hi &= t["KEEP_HI"][kept]

    start = t["START"][row]
    word = lo << start
    word |= t["HEAD"][row]
    word |= (v.view(np.uint64) >> _U63) * np.uint64(ord("-"))
    out[..., 0] = word
    lo >>= np.uint64(64) - start
    hi <<= start
    lo |= hi
    lo |= t["TAIL"][row]
    out[..., 1] |= lo


def format_rows(columns: list[np.ndarray]) -> Iterator[bytes | bytearray]:
    """The rows of the equal-length float64 ``columns`` as ASCII text, one block at a time.

    Values are written ``%.9g``, joined by ',' and each row ended by '\\n'.
    Each block of rows is copied from the columns as it is formatted, so
    neither the whole table nor the whole text is ever held.
    """
    m, n = len(columns), len(columns[0])
    rows = max(1, BLOCK_VALUES // m)
    seps = np.zeros((rows, m, 2), np.uint64)
    seps[..., 1] = np.uint64(ord(",")) << _U56
    seps[:, -1, 1] = np.uint64(ord("\n")) << _U56
    seps = seps.tobytes()
    table = np.empty((rows, m))
    for start in range(0, n, rows):
        block = table[:min(rows, n - start)]
        for j, column in enumerate(columns):
            block[:, j] = column[start:start + rows]
        values = block.ravel()
        buf = bytearray(seps[:values.size * 16])
        # inside each block, not around the yield, which would hand the
        # setting to the caller
        with np.errstate(divide="ignore", invalid="ignore"):
            left = _format_block(values, np.frombuffer(buf, np.uint64).reshape(-1, 2))
        text = buf.translate(None, b"\0")
        if len(left):
            python = ("%.9g," * len(left) % tuple(values[left].tolist())).encode("ascii")
            text = b"".join([x for pair in zip(text.split(b"\x01"), python.split(b","))
                             for x in pair])
        yield text
