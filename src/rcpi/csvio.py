"""The CSV format of the sweep and trajectory files.

A header row, then one row per sample with ``\\r\\n`` line ends, the format
`csv.writer` emits; a float is written as ``%.17g``, enough digits to read it
back exactly.  Each function takes a path or an open text buffer; a path is
opened and closed here, a buffer is left open.  The writer knows nothing of
columns: `write_rows` writes the text each file's writer formats for a block
of rows.  Reading parses with `np.loadtxt` and reads the file row by row only
to name a bad row.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import os
import warnings
from collections.abc import Callable

import numpy as np


def _is_path(path_or_buf) -> bool:
    return isinstance(path_or_buf, (str, bytes, os.PathLike))


def _open(path_or_buf, mode: str):
    if _is_path(path_or_buf):
        return open(path_or_buf, mode, newline="")
    return contextlib.nullcontext(path_or_buf)


# Rows formatted at a time, so a file's text is never held whole.
_BLOCK_ROWS = 1 << 14


def write_rows(path_or_buf, header: tuple[str, ...], n_rows: int, rows: Callable[[int, int], str]) -> None:
    """Write the header, then ``rows(start, stop)``, the text of rows start to stop, block by block."""
    with _open(path_or_buf, "w") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, n_rows, _BLOCK_ROWS):
            fh.write(rows(start, min(start + _BLOCK_ROWS, n_rows)))


def _scan(path_or_buf, start: int, index: list[int], width: int):
    """Read the rows after the header one at a time: yield the file row and the values of each non-blank one."""
    with _open(path_or_buf, "r") as fh:
        fh.seek(start)
        rows = csv.reader(fh)
        next(rows, None)
        for row in rows:
            if not row:
                continue
            if len(row) < width:
                raise ValueError(f"bad row {rows.line_num}: {len(row)} fields, the header has {width}")
            try:
                values = [float(row[i]) for i in index]
            except ValueError as exc:
                raise ValueError(f"bad row {rows.line_num}: {exc}") from None
            yield rows.line_num, values


def read_columns(path_or_buf, names: tuple[str, ...]) -> tuple[Callable[[int], int], np.ndarray]:
    """Read the named columns as floats; other columns are ignored.

    Returns a function that gives the file row of sample i (the header is
    row 1) and a (len(names), n) array of values.  Blank lines are skipped.
    A missing column, a row shorter than the header or a field that is not a
    number raises ValueError naming the row.

    `np.loadtxt` parses the body.  Only where it fails is the file read again
    row by row with `csv` and `float`, and that reading decides: it names the
    bad row, or returns the values of fields that `float` takes and loadtxt
    does not, such as ``1_5``.  File rows are counted only on request.
    """
    with _open(path_or_buf, "r") as fh:
        if not fh.seekable():  # a pipe, opened here or passed in, is read into memory once
            path_or_buf = fh = io.StringIO(fh.read())
        start = fh.tell()
        header = next(csv.reader(fh), [])
        if not set(names) <= set(header):
            raise ValueError(f"CSV must have columns {','.join(names)}, got {header}")
        index = [header.index(n) for n in names]
        # The header's last column, read and dropped, makes loadtxt reject a row shorter than the header.
        usecols = index + [len(header) - 1]
        try:
            with warnings.catch_warnings():  # a header-only file holds no samples, which is no fault here
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                values = np.loadtxt(fh, delimiter=",", usecols=usecols, comments=None, quotechar='"', ndmin=2)
            values = values[:, :-1]
        except ValueError:
            values = np.array([v for _, v in _scan(path_or_buf, start, index, len(header))], dtype=float)
            values = values.reshape(-1, len(names))

    def file_row(i: int) -> int:
        return next(itertools.islice(_scan(path_or_buf, start, index, len(header)), i, None))[0]

    return file_row, values.T
