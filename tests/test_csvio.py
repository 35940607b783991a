import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluidsea.csvio import _CHUNK_ROWS, write_csv


def _savetxt(data):
    fh = io.BytesIO()
    np.savetxt(fh, data, fmt="%.9g", delimiter=",")
    return fh.getvalue()


def _assert_like_savetxt(tmp_path, data, header="h"):
    data = np.asarray(data, dtype=float)
    path = tmp_path / "got.csv"
    write_csv(path, header, data.T)
    got = path.read_bytes()
    assert got.startswith(header.encode() + b"\n")
    got_rows = got[len(header) + 1:].split(b"\n")
    want_rows = _savetxt(data).split(b"\n")
    assert len(got_rows) == len(want_rows)
    for i, (a, b) in enumerate(zip(got_rows, want_rows)):
        assert a == b, (i, data[i].tolist())


@pytest.mark.parametrize("rows", [0, 1, 4095, 4096, 4097, 9000])
def test_bytes_equal_savetxt(tmp_path, rows):
    rng = np.random.default_rng(rows)
    data = rng.standard_normal((rows, 4)) * 10.0 ** rng.integers(-15, 15, (rows, 4))
    special = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1e-300, 123456789.5]
    data.ravel()[: len(special)] = special[: data.size]
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_csv(got, "a,b,c,d", data.T)
    with open(want, "w", newline="") as fh:
        fh.write("a,b,c,d\n")
        np.savetxt(fh, data, fmt="%.9g", delimiter=",")
    assert got.read_bytes() == want.read_bytes()


def _rows(values, cols):
    values = np.asarray(values, dtype=float)
    pad = -values.size % cols
    return np.concatenate([values, np.zeros(pad)]).reshape(-1, cols)


def test_ninth_digit_ties(tmp_path):
    # exact binary ties at the 10th significant digit round half to even;
    # decimal "ties" that binary cannot hold round by their true value
    exact = [123456788.5, 123456789.5, 999999998.5, 12345678.25, 12345678.75,
             1234567.125, 1000000000.5, 100000000.5, 0.5, 2.5]
    near = [1.234567885, 1.234567895, 0.1234567885, 9.999999995, 9.9999999949,
            1.0000000005, 4.0000000005e-7, 2.0000000015e12]
    values = []
    for v in exact + near:
        values += [v, -v, np.nextafter(v, 0.0), np.nextafter(v, np.inf)]
    _assert_like_savetxt(tmp_path, _rows(values, 1))
    _assert_like_savetxt(tmp_path, _rows(values, 7))


def test_powers_of_ten_and_their_neighbours(tmp_path):
    values = []
    for k in range(-323, 309):
        p = float(f"1e{k}")
        values += [p, np.nextafter(p, 0.0), np.nextafter(p, np.inf), -p]
    _assert_like_savetxt(tmp_path, _rows(values, 1))
    _assert_like_savetxt(tmp_path, _rows(values, 11))


def test_switch_points_of_g(tmp_path):
    # %g turns to exponent form below 1e-4 and from 1e9 after rounding to 9 digits
    values = []
    for v in (1e-5, 1e-4, 1e9, 9.9999999995e-5, 9.999999995e-5, 999999999.5, 999999999.4):
        values += [v, np.nextafter(v, 0.0), np.nextafter(v, np.inf)]
    values += [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324,
               np.nextafter(2.2250738585072014e-308, 0.0), 2.2250738585072014e-308,
               1e-300, -1e-300, 1e-99, 9.99999999e99, 1e100, np.finfo(float).max]
    _assert_like_savetxt(tmp_path, _rows(values, 1))
    _assert_like_savetxt(tmp_path, _rows(values, 3))


@pytest.mark.parametrize("cols", [1, 11])
def test_rows_across_a_chunk_boundary(tmp_path, cols):
    rng = np.random.default_rng(cols)
    rows = 2 * _CHUNK_ROWS + 5
    data = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-6, 6, (rows, cols))
    # rows that take the % path on both sides of each boundary, and a run of them across it
    for r in (_CHUNK_ROWS - 2, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS):
        data[r, rng.integers(cols)] = [np.nan, 123456789.5, 5e-324, -np.inf, 1e-300][r % 5]
    data[0, 0] = np.inf
    data[-1, -1] = -0.0
    _assert_like_savetxt(tmp_path, data)


@pytest.mark.parametrize("error", [-1.0, 1.0])
def test_exponent_off_by_one_falls_back(tmp_path, monkeypatch, error):
    # a log10 one off anywhere leaves the value to %, which still formats it
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda y: log10(y) + error)
    data = np.array([[0.0, 1.0, 3.14159265358979, -2.5e-7], [1e9, 123.456, 1e-5, 7.0]])
    _assert_like_savetxt(tmp_path, data)


_bits = st.integers(0, 2**64 - 1).map(lambda b: np.array([b], np.uint64).view(float)[0])


@settings(max_examples=150, deadline=None)
@given(
    cols=st.integers(1, 11),
    values=st.lists(st.one_of(_bits, st.floats(width=64), st.floats(-1e6, 1e6)), max_size=200),
)
def test_equals_savetxt_property(tmp_path_factory, cols, values):
    _assert_like_savetxt(tmp_path_factory.mktemp("csv"), _rows(values, cols))
