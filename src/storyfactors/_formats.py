"""The file formats every layer shares: CSV artifacts and ``#``-comment line files."""

from __future__ import annotations

import csv
import io
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Iterator, Sequence


def read_text(path: str | Path) -> str:
    """A UTF-8 file's text without a BOM, its line ends as written; a bad byte names the file."""
    try:
        return Path(path).read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: not UTF-8: {err.reason} at byte {err.start}") from None


def lines(path: str | Path):
    """Yield ``(line number, text)`` for each line left after ``#`` comments, blanks and a BOM."""
    for lineno, line in enumerate(read_text(path).splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _csv_rows(header: Sequence, rows: Iterable[Sequence]) -> list[str]:
    out: list[str] = []
    writer = csv.writer(SimpleNamespace(write=out.append), lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out  # one string per row, header first


def format_float(value: float) -> str:
    """A float as a CSV cell: 12 significant digits, as ``format(value, ".12g")``."""
    return format(value, ".12g")


def write_csv(header: Sequence, rows: Iterable[Sequence]) -> str:
    """The header and rows with csv quoting and ``\\n`` line ends."""
    return "".join(_csv_rows(header, rows))


def read_csv(text: str):
    """Header row (or ``None``) and ``(line number, row)`` for each non-blank row.

    Lines split as in a file opened with ``newline=""``, so quoted line
    breaks survive; a row's number is that of its last line.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    return next(reader, None), ((reader.line_num, row) for row in reader if row)


def labelled_csv(header: Sequence[str], labels: Sequence[str],
                 bodies: Iterable[str]) -> Iterator[str]:
    """CSV rows, one string each, of a label quoted by csv, then cells formatted by the caller.

    ``bodies`` holds one ``",v1,v2,...\\n"`` line per label, not quoted; the
    rows joined are the bytes of :func:`write_csv` over the header and
    ``[label, *cells]`` whenever no cell needs quoting.  Bodies are read
    one row at a time, so a caller can write the rows as they come.
    """
    if len(header) == 1:  # csv quotes a lone empty field, so keep its own rows
        yield from _csv_rows(header, ((label,) for label in labels))
        return
    header_row, *rows = _csv_rows(header, ((label, "") for label in labels))  # label + ",\n"
    yield header_row
    for row, body in zip(rows, bodies, strict=True):
        yield row[:-2] + body
