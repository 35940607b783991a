"""Deterministic random generator for optional noise injection.

All randomness in experiment runs flows from a single integer seed through
this generator, so identical configurations produce byte-identical outputs
on any platform. The algorithm is xorshift64*, defined by the update

    x <- x XOR (x >> 12)
    x <- x XOR ((x << 25) mod 2^64)
    x <- x XOR (x >> 27)
    output <- (x * 2685821657736338717) mod 2^64

with uniform doubles taken from the top 53 output bits and normal deviates
by the Box-Muller transform on uniform pairs.

``normal_array`` is byte-identical to calling ``normal`` in a loop, and
leaves the same state and cached spare. It splits each block of draws into
contiguous runs of a power-of-two length S, one per numpy ``uint64`` lane.
The xorshift update is linear over GF(2), so k steps are one 64x64 bit
matrix M^k: lane j starts from M^(j S) x, and all lanes then step together.
Box-Muller stays on ``math``'s log, sin and cos, so no vectorized libm can
move a last digit. A zero uniform in a u1 slot, which ``normal`` would draw
again, sends its block through ``normal``.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = ["Xorshift64Star"]

_MASK = (1 << 64) - 1
_MULT = 2685821657736338717
_LANES = 256
_BLOCK_PAIRS = 1 << 15  # Box-Muller pairs per block: bounds the temporary lists


def _step(x: int) -> int:
    x ^= x >> 12
    x ^= (x << 25) & _MASK
    x ^= x >> 27
    return x


def _tables(cols: tuple) -> tuple:
    """Byte tables of a 64x64 bit matrix given by its columns: entry b of
    table k is the XOR of the columns 8k .. 8k+7 that the bits of b pick."""
    tables = []
    for k in range(0, 64, 8):
        table = [0] * 256
        for b in range(1, 256):
            low = b & -b
            table[b] = table[b ^ low] ^ cols[k + low.bit_length() - 1]
        tables.append(tuple(table))
    return tuple(tables)


def _apply(tables: tuple, x: int) -> int:
    """GF(2) product of the matrix of ``tables`` with the bit vector x."""
    y = 0
    for table in tables:
        y ^= table[x & 255]
        x >>= 8
    return y


@functools.lru_cache(maxsize=16)
def _jump(k: int) -> tuple:
    """Byte tables of M^k, for k a power of two, by repeated squaring."""
    if k == 1:
        return _tables(tuple(_step(1 << j) for j in range(64)))
    half = _jump(k // 2)
    return _tables(tuple(_apply(half, _apply(half, 1 << j)) for j in range(64)))


def _states(x: int, count: int) -> np.ndarray:
    """The states after 1 .. count steps from x, as uint64."""
    run = 1 << (-(-count // _LANES) - 1).bit_length()  # a power of two >= count / _LANES
    lanes = -(-count // run)
    jump = _jump(run)
    starts = [x]
    for _ in range(lanes - 1):
        starts.append(_apply(jump, starts[-1]))
    s = np.array(starts, dtype=np.uint64)
    out = np.empty((lanes, run), dtype=np.uint64)
    for i in range(run):
        s ^= s >> 12
        s ^= s << 25
        s ^= s >> 27
        out[:, i] = s
    return out.ravel()[:count]


class Xorshift64Star:
    """xorshift64* stream; seed must be a nonzero 64-bit integer."""

    def __init__(self, seed: int):
        seed = int(seed) & _MASK
        if seed == 0:
            seed = 0x9E3779B97F4A7C15  # golden-ratio fallback, nonzero
        self._state = seed
        self._spare: float | None = None

    def next_u64(self) -> int:
        x = _step(self._state)
        self._state = x
        return (x * _MULT) & _MASK

    def uniform(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def normal(self) -> float:
        """Standard normal deviate via Box-Muller; caches the spare."""
        if self._spare is not None:
            z = self._spare
            self._spare = None
            return z
        while True:
            u1 = self.uniform()
            if u1 > 0.0:
                break
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        self._spare = r * math.sin(2.0 * math.pi * u2)
        return r * math.cos(2.0 * math.pi * u2)

    def normal_array(self, n: int) -> np.ndarray:
        """n normal deviates, the same bytes as ``[self.normal() for _ in range(n)]``."""
        out = np.empty(n)
        i = 0
        if n and self._spare is not None:
            out[0] = self.normal()
            i = 1
        while i < n:
            pairs = min(_BLOCK_PAIRS, (n - i + 1) // 2)
            states = _states(self._state, 2 * pairs)
            u = ((states * np.uint64(_MULT)) >> np.uint64(11)).astype(float) * (1.0 / (1 << 53))
            u1, u2 = u[0::2], u[1::2]
            if not u1.all():
                # normal() draws u1 again on a zero: run this block on it
                for j in range(i, min(n, i + 2 * pairs)):
                    out[j] = self.normal()
                i += 2 * pairs
                continue
            self._state = int(states[-1])
            # sqrt and products are correctly rounded in numpy as in math
            r = np.sqrt(-2.0 * np.array(list(map(math.log, u1.tolist()))))
            t = (2.0 * math.pi * u2).tolist()
            z = np.empty(2 * pairs)
            z[0::2] = r * np.array(list(map(math.cos, t)))
            z[1::2] = r * np.array(list(map(math.sin, t)))
            take = min(2 * pairs, n - i)
            out[i:i + take] = z[:take]
            if take < 2 * pairs:
                self._spare = float(z[-1])
            i += take
        return out
