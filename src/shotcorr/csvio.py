"""The CSV artifact format: one atomic writer and one header-checked reader.

Every CSV the package writes or reads goes through this module.  A file
is one header row and then data rows, comma-separated with ``\\n`` line
endings; floats carry 12 significant digits (``.12g``), integers are
written plainly, and text cells are quoted only when they hold a comma,
a quote or a line break.  Writes land in a temporary file next to the
target that is then renamed over it, so a reader never sees a partial
artifact.  The reader parses int or float columns with one ``np.loadtxt``
call, and any other file, or one numpy refuses, cell by cell.
"""

from __future__ import annotations

import contextlib
import csv
import os
import secrets
import warnings

import numpy as np

__all__ = ["HeaderError", "atomic_write", "format_cell", "write_lines", "write_csv", "read_columns"]

_DTYPES = {int: np.int64, float: np.float64}


class HeaderError(ValueError):
    """A CSV file's header row is not the one its reader expects."""


def atomic_write(path, text: str) -> None:
    """Write ``text`` to ``path`` through a renamed temporary file.

    The temporary file is created with mode 0o666 less the umask, which
    is the mode a plain ``open(path, "w")`` gives a new file.
    """
    path = os.fspath(path)
    tmp = os.path.join(
        os.path.dirname(os.path.abspath(path)), f".tmp-{secrets.token_hex(8)}.part"
    )
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as e:
        # report the artifact's path, not the temporary file's
        raise OSError(e.errno, e.strerror, path) from None
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def format_cell(x) -> str:
    """One CSV cell: floats .12g, ints plainly, text as is (quoted if needed)."""
    if isinstance(x, float):
        return format(x, ".12g")
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        if "," in x or '"' in x or "\n" in x or "\r" in x:
            return '"' + x.replace('"', '""') + '"'
        return x
    return format(float(x), ".12g")


def write_lines(path, header, lines) -> None:
    """Atomically write a header line and data lines already joined by commas."""
    atomic_write(path, "\n".join([",".join(header), *lines]) + "\n")


def write_csv(path, header, rows) -> None:
    """Atomically write a header line and one line per row."""
    write_lines(path, header, [",".join(map(format_cell, row)) for row in rows])


def read_columns(path, columns: dict, prefix: bool = False) -> list:
    """Read a CSV artifact into one array or list per column.

    ``columns`` maps each expected header name, in order, to the callable
    that converts its cells, or to None for a column that is not read
    (its list stays empty).  With ``prefix`` the header may carry extra
    trailing columns, which are ignored; any other header raises
    ``HeaderError``.  Columns read by ``int`` or ``float`` come back as
    arrays, views of one row-major block when every read column converts
    by ``int``, or every one by ``float``, and one ``np.loadtxt`` call
    parses the rows.  Other columns come back as lists.  A file numpy
    refuses, or one with another converter, is read cell by cell, skipping
    blank lines; a row with too few cells or a cell its converter rejects
    raises ``ValueError`` naming the file and the row's line number.
    """
    names = list(columns)
    kinds = list(columns.values())
    read = [j for j, kind in enumerate(kinds) if kind is not None]
    numeric = {kinds[j] for j in read} in ({int}, {float})
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        got = [h.strip() for h in header]
        if (got[: len(names)] if prefix else got) != names:
            raise HeaderError(
                f"{path}: expected header {','.join(names)!r}, got {','.join(header)!r}"
            )
        if numeric:
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", UserWarning)  # numpy's on a file without rows
                    kw = dict(delimiter=",", usecols=read, comments=None, quotechar='"', ndmin=2)
                    data = np.loadtxt(fh, _DTYPES[kinds[read[0]]], **kw)
            except ValueError:  # read again from the top, past the header
                fh.seek(0)
                next(reader := csv.reader(fh))
            else:
                cols = iter(data.reshape(-1, len(read)).T)
                return [[] if kind is None else next(cols) for kind in kinds]
        out = [[] for _ in names]
        plan = [(j, kinds[j], out[j].append) for j in read]
        for i, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            try:
                if len(row) < len(names):
                    raise ValueError(f"{len(row)} of {len(names)} columns")
                for j, kind, append in plan:
                    append(kind(row[j]))
            except ValueError as e:
                raise ValueError(f"{path}: malformed row {i}: {row!r} ({e})") from None
    return [np.asarray(col) if kind in _DTYPES else col for kind, col in zip(kinds, out)]
