"""CSV artifacts: one header line, then rows of numbers at 9 significant digits."""

from __future__ import annotations

import numpy as np

__all__ = ["write_csv"]

_CHUNK_ROWS = 4096


def write_csv(path, header: str, columns) -> None:
    """Write ``header`` and the rows of the equal-length ``columns``.

    The bytes equal ``np.savetxt(fh, np.column_stack(columns), fmt="%.9g",
    delimiter=",")`` after the header. Rows are stacked and formatted
    ``_CHUNK_ROWS`` at a time, with one ``%`` per chunk, so a long trace is
    never copied whole.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    row = ",".join(["%.9g"] * len(columns))
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for start in range(0, columns[0].size, _CHUNK_ROWS):
            block = np.column_stack([c[start:start + _CHUNK_ROWS] for c in columns])
            fmt = "\n".join([row] * len(block)) + "\n"
            fh.write(fmt % tuple(block.ravel().tolist()))
