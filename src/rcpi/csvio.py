"""The CSV format of the sweep and trajectory files.

A header row, then one row per sample with every value written as ``%.17g``
(enough digits for each float to read back exactly) and ``\\r\\n`` line ends,
the format `csv.writer` emits.  Both functions take a path or an open text
buffer; a path is opened and closed here, a buffer is left open.  Writing
formats each value once; reading parses with `np.loadtxt` and reads the file
row by row only to name a bad row.
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


# Rows converted and formatted at a time, so a file's text is never held whole.
_BLOCK_ROWS = 1 << 14


class Negation:
    """A column that is minus column ``of``, written from that column's text.

    The ``%.17g`` text of -x is the text of x with its leading ``-`` toggled
    (``nan`` stays ``nan``), so the values are formatted once.
    """

    def __init__(self, of: int):
        self.of = of


def _negated(texts: list[str]) -> list[str]:
    return [t[1:] if t[0] == "-" else t if t == "nan" else "-" + t for t in texts]


def write_columns(path_or_buf, header: tuple[str, ...], columns) -> None:
    """Write equal-length columns under the header, one row per index.

    A column of numbers is written as ``%.17g``, a bool column as 0 or 1 and a
    ``Negation(j)`` as minus column j, an earlier column of numbers.
    """
    negated = {c.of for c in columns if isinstance(c, Negation)}
    cols, fields = [], []
    for j, c in enumerate(columns):
        if not isinstance(c, Negation):
            c = np.asarray(c)
            c = c if c.dtype == bool else c.astype(float, copy=False)
        cols.append(c)
        # A negation and the column it negates are formatted per block, before the rows.
        fields.append("%s" if j in negated or isinstance(c, Negation) else "%d" if c.dtype == bool else "%.17g")
    row = ",".join(fields) + "\r\n"
    with _open(path_or_buf, "w") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(cols[0]), _BLOCK_ROWS):
            block = []
            for j, c in enumerate(cols):
                if isinstance(c, Negation):
                    block.append(_negated(block[c.of]))
                else:
                    values = c[start : start + _BLOCK_ROWS].tolist()
                    block.append(list(map("%.17g".__mod__, values)) if j in negated else values)
            fh.write("".join(map(row.__mod__, zip(*block))))


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
    if not _is_path(path_or_buf) and not path_or_buf.seekable():
        path_or_buf = io.StringIO(path_or_buf.read())
    with _open(path_or_buf, "r") as fh:
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
