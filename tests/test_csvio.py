import numpy as np
import pytest

from fluidsea.csvio import write_csv


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
