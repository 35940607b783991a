"""CSV artifacts: one header line, then rows of numbers at 9 significant digits.

The bytes are those of ``"%.9g"`` formatting (``np.savetxt(fmt="%.9g",
delimiter=",")``), produced in numpy a chunk of rows at a time.

Rounding. For a finite nonzero value ``a`` with ``y = |a|`` in [1e-99, 1e100),
let ``e`` be its decimal exponent. Then ``m = y * 10^(8-e)`` lies in
[1e8, 1e9), and as the product of two correctly rounded float64 factors it
is off the exact scaled value by at most two half-ulps, less than
``1e9 * 2^-52 < 2.3e-7``. Unless ``m`` lies within ``_BAND`` = 1e-6 of a
half-integer, the exact value and ``m`` lie on the same side of it, and
``rint(m)`` is the correctly rounded 9-digit mantissa. ``e`` is
``floor(log10(y))``, which can be one off next to a power of ten. There
``m`` lies within rounding of 1e8 or 1e9, and the digits come out the same:
a mantissa that rounds up to 1e9 carries into the exponent, as ``%g``'s
does. A mantissa farther outside [1e8, 1e9), which only a log10 error beyond
rounding could give, is left uncovered.

Layout. Each value is assembled in a fixed slot of ``_SLOT`` bytes: sign,
integer part right-aligned in 9 digit places, point, 8 fraction digits, the
exponent and the separator. Digits come four at a time from tables of
little-endian uint32 words, one per 4-digit group, with the leading or
trailing zeros that ``%g`` drops stored as NUL; ``bytes.translate`` then
deletes every NUL. A value in [1e-4, 1) puts ``0.`` and its zeros in the
integer places and its first digit in the units place.

A row that holds a value the argument does not cover, a value in the band,
a non-finite value, or one whose exponent needs three digits (so every
subnormal), is formatted with ``%`` instead.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["write_csv"]

_CHUNK_ROWS = 4096
_SLOT = 24
_BAND = 1e-6

# 10^k correctly rounded for |k| <= _K, by Python's float parser
_K = 110
_SCALE = np.array([float(f"1e{k}") for k in range(-_K, _K + 1)])
_POW = 10.0 ** np.arange(9)  # exact

# where the LEAD, LEADZ, TRAIL and DOTZ words start (FULL starts at 0)
_LEAD, _LEADZ, _TRAIL, _DOTZ = 10000, 20000, 30000, 40000


def _word_tables() -> np.ndarray:
    """uint32 words of the 4-digit groups 0000..9999, in five tables.

    FULL keeps every digit; LEAD drops leading zeros but keeps the units
    digit; LEADZ drops every leading zero (0 is all NUL); TRAIL drops
    trailing zeros. DOTZ is ``.`` plus 0..3 zeros, the integer places of a
    value below 1. Character k of a word is its byte k.
    """
    v = np.arange(10000, dtype=np.uint32)
    place = [1000, 100, 10, 1]

    def words(keep):
        return sum(
            np.where(keep(k, p), v // p % 10 + 48, 0).astype(np.uint32) << (8 * k)
            for k, p in enumerate(place)
        )

    dotz = [ord(".") + sum(ord("0") << (8 * k) for k in range(1, z + 1)) for z in range(4)]
    return np.concatenate([
        words(lambda k, p: True),
        words(lambda k, p: (v >= p) | (p == 1)),
        words(lambda k, p: v >= p),
        words(lambda k, p: v % (10 * p) != 0),
        np.array(dotz, np.uint32),
    ])


def _exponent_words() -> np.ndarray:
    """uint32 words ``e+XX`` / ``e-XX`` at index e + 100 for |e| <= 99; index 0 is empty."""
    e = np.arange(-99, 100)
    chars = np.zeros((200, 4), np.uint8)
    chars[1:, 0] = ord("e")
    chars[1:, 1] = np.where(e < 0, ord("-"), ord("+"))
    chars[1:, 2] = np.abs(e) // 10 + 48
    chars[1:, 3] = np.abs(e) % 10 + 48
    return chars.view("<u4").ravel()


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray]:
    """The digit and exponent words, built on the first write rather than at import."""
    return _word_tables(), _exponent_words()


def write_csv(path, header: str, columns) -> None:
    """Write ``header`` and the rows of the equal-length ``columns``.

    The bytes equal ``np.savetxt(fh, np.column_stack(columns), fmt="%.9g",
    delimiter=",")`` after the header. Rows are stacked and formatted
    ``_CHUNK_ROWS`` at a time, so a long trace is never copied whole.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    fallback = ",".join(["%.9g"] * len(columns)) + "\n"
    slots = np.zeros((min(_CHUNK_ROWS, columns[0].size), len(columns), _SLOT), np.uint8)
    slots[:, :, -1] = ord(",")
    slots[:, -1, -1] = ord("\n")
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for start in range(0, columns[0].size, _CHUNK_ROWS):
            block = np.column_stack([c[start:start + _CHUNK_ROWS] for c in columns])
            fh.write(_format_rows(block, slots, fallback))


def _format_rows(block: np.ndarray, slots: np.ndarray, fallback: str) -> bytes:
    """The text of the rows of ``block``: runs of covered rows in numpy, the rest by ``%``."""
    r, e, uncovered = _decimal(block)
    neg = np.signbit(block)
    bad = uncovered.any(axis=1)
    if not bad.any():
        return _render(slots[:len(block)], r, e, neg)
    edges = [0, *(np.flatnonzero(np.diff(bad)) + 1).tolist(), len(block)]
    pieces = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if bad[lo]:
            text = (fallback * (hi - lo)) % tuple(block[lo:hi].ravel().tolist())
            pieces.append(text.encode())
        else:
            pieces.append(_render(slots[:hi - lo], r[lo:hi], e[lo:hi], neg[lo:hi]))
    return b"".join(pieces)


def _decimal(a: np.ndarray):
    """``|a| = r 10^(e-8)`` rounded to 9 digits, with r in [1e8, 1e9) or r = e = 0
    for a zero, and the mask of values this does not cover."""
    y = np.abs(a)
    ok = (y >= 1e-99) & (y < 1e100)
    ys = np.where(ok, y, 1.0)
    e = np.floor(np.log10(ys)).astype(np.intp)
    m = ys * _SCALE[_K + 8 - e]
    r = np.rint(m)
    uncovered = (np.abs(m - r) > 0.5 - _BAND) | (m < 99999999.9) | (m > 1000000000.4)
    up = r == 1e9
    r -= up * 9e8
    e += up
    r *= ok
    e *= ok
    uncovered |= ~(ok | (y == 0.0)) | (np.abs(e) > 99)
    return r, e, uncovered


def _render(slots: np.ndarray, r: np.ndarray, e: np.ndarray, neg: np.ndarray) -> bytes:
    """Assemble each ``%.9g`` in its slot and drop the NUL padding."""
    words, exponents = _tables()
    sci = (e < -4) | (e > 8)
    small = (e < 0) & ~sci  # 0.000ddddddddd
    q = e * ((e >= 0) & (e <= 8))  # digits after the first one of the integer part
    D = _POW[8 - q]
    whole = np.floor(r / D)  # each floor(x / 10^k) here is exact: x is an integer below 1e9
    frac = (r - whole * D) * _POW[q]  # the fraction digits, as 8 places
    top = np.floor(whole / 1e8)
    hi = np.floor(whole / 1e4)
    mid = (hi - top * 1e4).astype(np.intp)
    low = (whole - hi * 1e4).astype(np.intp)
    g1 = np.floor(frac / 1e4)
    g2 = (frac - g1 * 1e4).astype(np.intp)
    g1 = g1.astype(np.intp)

    top_char = (top + 48) * (whole >= 1e8) + 48 * small
    slots[..., 0:2].view("<u2")[..., 0] = neg * 45 + 256 * top_char.astype(np.intp)
    mid_idx = mid + _LEADZ * (whole < 1e8) + small * (_DOTZ - _LEADZ - 1 - e)
    slots[..., 2:6].view("<u4")[..., 0] = words[mid_idx]
    slots[..., 6:10].view("<u4")[..., 0] = words[low + _LEAD * (whole < 1e4)]
    slots[..., 10] = 46 * ((frac > 0) & ~small)
    slots[..., 11:15].view("<u4")[..., 0] = words[g1 + _TRAIL * (g2 == 0)]
    slots[..., 15:19].view("<u4")[..., 0] = words[g2 + _TRAIL]
    slots[..., 19:23].view("<u4")[..., 0] = exponents[(e + 100) * sci]
    return slots.tobytes().translate(None, b"\0")
