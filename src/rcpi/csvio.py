"""The CSV format of the sweep and trajectory files.

A header row, then one row per sample with every value written as ``%.17g``
(enough digits for each float to read back exactly) and ``\\r\\n`` line ends,
the format `csv.writer` emits.  Both functions take a path or an open text
buffer; a path is opened and closed here, a buffer is left open.
"""

from __future__ import annotations

import contextlib
import csv
import os

import numpy as np


def _open(path_or_buf, mode: str):
    if isinstance(path_or_buf, (str, bytes, os.PathLike)):
        return open(path_or_buf, mode, newline="")
    return contextlib.nullcontext(path_or_buf)


# Rows converted and formatted at a time, so a file's text is never held whole.
_BLOCK_ROWS = 1 << 14


def write_columns(path_or_buf, header: tuple[str, ...], columns) -> None:
    """Write equal-length columns under the header, one row per index."""
    row = ",".join(["%.17g"] * len(header)) + "\r\n"
    arrays = [np.asarray(c, dtype=float) for c in columns]
    with _open(path_or_buf, "w") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(arrays[0]), _BLOCK_ROWS):
            block = [a[start : start + _BLOCK_ROWS].tolist() for a in arrays]
            fh.write("".join(row % r for r in zip(*block)))


def read_columns(path_or_buf, names: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Read the named columns as floats; other columns are ignored.

    Returns the file row of each sample (the header is row 1) and a
    (len(names), n) array of values.  Blank lines are skipped.  A missing
    column, a row shorter than the header or a field that is not a number
    raises ValueError naming the row.
    """
    with _open(path_or_buf, "r") as fh:
        rows = csv.reader(fh)
        header = next(rows, [])
        if not set(names) <= set(header):
            raise ValueError(f"CSV must have columns {','.join(names)}, got {header}")
        index = [header.index(n) for n in names]
        lines, values = [], []
        for row in rows:
            if not row:
                continue
            if len(row) < len(header):
                raise ValueError(f"bad row {rows.line_num}: {len(row)} fields, the header has {len(header)}")
            try:
                values.append([float(row[i]) for i in index])
            except ValueError as exc:
                raise ValueError(f"bad row {rows.line_num}: {exc}") from None
            lines.append(rows.line_num)
    return np.array(lines, dtype=int), np.array(values, dtype=float).reshape(-1, len(names)).T
