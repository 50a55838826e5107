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
- Every numeric CSV is read by ``read_table`` in one ``np.loadtxt`` pass.
  Files are decoded as UTF-8, and a leading byte-order mark is dropped.
  Blank rows, and rows of only whitespace, are skipped.  A header is taken
  when required, or else only when the first row does not parse as numbers.
  A file with no data row, a row or header of another width, or a cell
  numpy does not parse as a float is rejected with a ``ValueError`` that
  names the file; a row of another width is named by its 1-based line in
  the file, and a cell that is not a number by its line and column.
"""

from __future__ import annotations

import csv
import os
from contextlib import contextmanager, suppress
from itertools import chain

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
    """Atomically replace ``path`` with a header row and ``rows``, floats written with ``repr``.

    Each row is a sequence.  A row of only Python ints and floats, which the
    ``csv`` module would write unquoted as their ``repr``, is joined directly.
    """
    with _atomic(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            if all(type(v) is float or type(v) is int for v in row):
                fh.write(",".join(map(repr, row)) + "\r\n")
            else:
                writer.writerow([_fmt(v) for v in row])


# The CSV dialect every reader parses: comma separated, ``"``-quoted cells.
_NUMERIC_CSV = dict(delimiter=",", quotechar='"', comments=None, dtype=float, ndmin=2)


def _rows(fh):
    """The 1-based line number and text of each line of ``fh`` that holds more than whitespace."""
    return ((number, line) for number, line in enumerate(fh, 1) if not line.isspace())


def _parses_as_numbers(line: str) -> bool:
    try:
        np.loadtxt([line], **_NUMERIC_CSV)
    except ValueError:
        return False
    return True


def read_table(path, header_required=False, skip_columns=0):
    """The header of a numeric CSV file, or None, and its data rows as a 2-D float array.

    The first ``skip_columns`` cells of each data row (row labels, say) are
    dropped unparsed.  Raises ValueError naming ``path`` when the file has no
    data rows, a row or header with another number of cells, or a cell that
    is not a number.
    """
    with open(path, encoding="utf-8-sig") as fh:
        try:
            lines = (text for _, text in _rows(fh))
            first = next(lines, None)
            header = None
            if first and (header_required or not _parses_as_numbers(first)):
                header = next(csv.reader([first]))
                first = next(lines, None)
            if first is None:
                raise ValueError("no data rows")
            skipped = dict.fromkeys(range(skip_columns), lambda cell: 0.0)
            try:
                table = np.loadtxt(chain([first], lines), converters=skipped, **_NUMERIC_CSV)
            except ValueError:
                # Name the first row of another width, or cell that is not a
                # number, by its file line, as numpy does not.
                fh.seek(0)
                rows = [(line, next(csv.reader([text]))) for line, text in _rows(fh)][header is not None :]
                width = len(rows[0][1])
                for line, cells in rows:
                    if len(cells) != width:
                        raise ValueError(f"the row on line {line} has width {len(cells)}, the first data row width {width}") from None
                    for column, cell in enumerate(cells[skip_columns:], skip_columns + 1):
                        # Quoted again, so that numpy reads the cell as one field.
                        if not _parses_as_numbers('"' + cell.replace('"', '""') + '"'):
                            raise ValueError(
                                f"the cell on line {line}, column {column} is {cell!r}: could not convert it to a number"
                            ) from None
                raise
            if header is not None and len(header) != table.shape[1]:
                raise ValueError(f"the header has {len(header)} cells, the data rows {table.shape[1]}")
        except ValueError as exc:  # UnicodeDecodeError included
            raise ValueError(f"{path}: {exc}") from None
    return header, table[:, skip_columns:]
