import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fluidsea.rng import _MASK as MASK
from fluidsea.rng import _MULT as MULT
from fluidsea.rng import Xorshift64Star


def test_deterministic_stream():
    a = Xorshift64Star(42)
    b = Xorshift64Star(42)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


def test_seed_changes_stream():
    a = Xorshift64Star(1)
    b = Xorshift64Star(2)
    assert a.next_u64() != b.next_u64()


def test_zero_seed_fallback():
    g = Xorshift64Star(0)
    assert g.next_u64() != 0


def test_uniform_range_and_moments():
    g = Xorshift64Star(7)
    u = np.array([g.uniform() for _ in range(20000)])
    assert np.all((0.0 <= u) & (u < 1.0))
    assert abs(u.mean() - 0.5) < 0.01
    assert abs(u.var() - 1.0 / 12.0) < 0.005


def test_normal_moments():
    g = Xorshift64Star(11)
    z = g.normal_array(20000)
    assert abs(z.mean()) < 0.03
    assert abs(z.std() - 1.0) < 0.03


def _scalar_normals(g, n):
    return np.array([g.normal() for _ in range(n)], dtype=float)


_SEEDS = st.one_of(
    st.sampled_from([0, 1, 2**63, 2**64 - 1, 2**64]), st.integers(0, 2**64 - 1)
)
# 0, 1, odd, one lane per draw, a short last lane, and more than one block
_COUNTS = st.sampled_from([0, 1, 2, 3, 255, 257, 4097, 70001])


@settings(max_examples=40, deadline=None)
@given(seed=_SEEDS, counts=st.lists(_COUNTS, min_size=1, max_size=3), spare=st.booleans())
def test_normal_array_equals_scalar_path(seed, counts, spare):
    a, b = Xorshift64Star(seed), Xorshift64Star(seed)
    if spare:
        assert a.normal() == b.normal()  # leaves the spare pending
    for n in counts:
        assert a.normal_array(n).tobytes() == _scalar_normals(b, n).tobytes()
        assert (a._state, a._spare) == (b._state, b._spare)


def _unshift(y, shift):
    """Inverse of x -> x ^ (x >> shift), or of x ^ (x << -shift) mod 2^64."""
    x = y
    for _ in range(64):
        x = y ^ (x >> shift if shift > 0 else (x << -shift) & MASK)
    return x


def test_zero_uniform_mid_block_takes_scalar_path():
    # the state whose output is 1 gives u1 = (1 >> 11) / 2^53 = 0.0; step
    # back from it so that it is the u1 of pair 1000 of the block
    x = pow(MULT, -1, 1 << 64)
    for _ in range(2001):
        x = _unshift(_unshift(_unshift(x, 27), -25), 12)
    a, b, probe = Xorshift64Star(1), Xorshift64Star(1), Xorshift64Star(1)
    a._state = b._state = probe._state = x
    [probe.uniform() for _ in range(2000)]
    assert probe.uniform() == 0.0
    assert a.normal_array(5001).tobytes() == _scalar_normals(b, 5001).tobytes()
    assert (a._state, a._spare) == (b._state, b._spare)
