"""The on-disk format and write policy of every file blockspectra reads or writes.

Conventions:

- Every write is atomic.  Content goes to ``path + ".tmp"``, which then
  replaces ``path`` through ``os.replace``.  A write that fails partway
  leaves the previous file untouched and removes its temporary file, so a
  reader never sees a half-written output.
- Text files (summaries, the manifest, SVG) are written exactly as given;
  callers end each line with ``"\\n"``.
- CSV files use the default dialect of the ``csv`` module: comma separated,
  minimal quoting, every row ended by ``"\\r\\n"``.  The first row is a
  header.  Floats, Python or numpy, are written with ``repr`` so every double
  round-trips; all other cells are written as the ``csv`` module writes them.
- Readers stream rows one at a time and skip blank rows.  A file whose
  header is required but missing (it has no rows at all) is rejected with
  ``ValueError``.  Files whose header is optional (matrices, spectra and
  datasets) tell it from data with ``is_numeric``.
"""

from __future__ import annotations

import csv
import os
from contextlib import contextmanager, suppress

import numpy as np


@contextmanager
def _atomic(path):
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_text(path, text: str) -> None:
    """Atomically replace ``path`` with ``text``."""
    with _atomic(path) as fh:
        fh.write(text)


def _fmt(value):
    """A CSV cell: floats as ``repr`` of the Python float, anything else unchanged."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return value


def write_csv(path, header, rows) -> None:
    """Atomically replace ``path`` with a header row and ``rows``, floats written with ``repr``."""
    with _atomic(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def read_csv(path):
    """Yield the non-blank rows of a CSV file, header included, as lists of strings."""
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if row:
                yield row


def read_csv_with_header(path):
    """The header of a CSV file and an iterator over its remaining rows.

    Raises ValueError naming ``path`` when the file has no rows at all.
    """
    rows = read_csv(path)
    header = next(rows, None)
    if header is None:
        raise ValueError(f"{path} is empty, expected a header row")
    return header, rows


def read_data_rows(path):
    """Yield the rows of a CSV file whose header is optional, without the header."""
    for i, row in enumerate(read_csv(path)):
        if i > 0 or is_numeric(row):
            yield row


def is_numeric(row) -> bool:
    """True when every cell of ``row`` parses as a float."""
    try:
        for cell in row:
            float(cell)
    except ValueError:
        return False
    return True
