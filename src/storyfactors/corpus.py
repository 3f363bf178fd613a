"""Document-term contingency tables and vocabulary filtering.

Tables are integer count tables with ordered labels: rows follow the
chronology of the text units, columns are the vocabulary in order of
first appearance.  Every table this module computes is a
:class:`CellCounts`, its non-zero cells only: :func:`count_cells` counts
tokens into cells, :func:`apply_filter` returns the kept cells,
:func:`aggregate` sums cells into one row per segment given one segment
id per row (a segment is a run of rows), and :func:`table_csv_rows`
formats them one row block at a time.  Each also takes a dense
:class:`ContingencyTable`, reduced to its cells on entry, and
:meth:`CellCounts.dense` is the one full allocation.  Filtering is a pipeline of passes (stopwords, word
length, lexicon, frequency thresholds, empty-row removal) run by one
kernel over the cells, and is idempotent: applying the same filter twice
changes nothing.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from itertools import compress
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from ._formats import labelled_csv, lines, read_csv
from .textprep import TokenList

logger = logging.getLogger(__name__)

_CSV_BLOCK_BYTES = 1 << 20  # output bytes table_to_csv formats per row block


def _frozen(array: np.ndarray) -> np.ndarray:
    """Mark an array this module just built read-only, so tables take it uncopied."""
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class ContingencyTable:
    """Counts of column items per row document, with stable label order."""

    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    counts: np.ndarray  # shape (rows, cols), non-negative integers

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts is self.counts and counts.flags.writeable:
            counts = counts.copy()  # freezing the caller's own array would lock it
        if counts.shape != (len(self.row_labels), len(self.col_labels)):
            raise ValueError(
                f"counts shape {counts.shape} does not match "
                f"{len(self.row_labels)} rows x {len(self.col_labels)} cols"
            )
        if counts.min(initial=0) < 0:
            raise ValueError("counts must be non-negative")
        if len(set(self.row_labels)) != len(self.row_labels):
            raise ValueError("duplicate row labels")
        if len(set(self.col_labels)) != len(self.col_labels):
            raise ValueError("duplicate column labels")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def shape(self) -> tuple[int, int]:
        return self.counts.shape

    def row_totals(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    def column_totals(self) -> np.ndarray:
        return self.counts.sum(axis=0)

    def transpose(self) -> "ContingencyTable":
        return ContingencyTable(self.col_labels, self.row_labels, _frozen(self.counts.T.copy()))


@dataclass(frozen=True)
class CellCounts:
    """A count table stored as its non-zero cells.

    ``cells`` holds the sorted, unique flat indices ``row * len(col_labels)
    + col`` of the non-zero cells and ``counts`` their positive counts, so
    the storage grows with the distinct words of each row, not with rows
    times vocabulary.
    """

    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    cells: np.ndarray  # sorted unique int64 flat indices
    counts: np.ndarray  # int64, > 0, one per cell

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.row_labels), len(self.col_labels)

    @classmethod
    def of(cls, table: ContingencyTable) -> "CellCounts":
        flat = table.counts.reshape(-1)
        cells = np.flatnonzero(flat)
        return cls(table.row_labels, table.col_labels, _frozen(cells), _frozen(flat[cells]))

    def dense(self) -> ContingencyTable:
        counts = np.zeros(self.shape, dtype=np.int64)
        counts.reshape(-1)[self.cells] = self.counts
        return ContingencyTable(self.row_labels, self.col_labels, _frozen(counts))


@dataclass(frozen=True)
class CorpusFilter:
    """Vocabulary filter; defaults keep everything."""

    min_total_count: int = 1
    min_doc_count: int = 1
    min_word_length: int = 1
    stopwords: frozenset[str] = field(default_factory=frozenset)
    lexicon: frozenset[str] | None = None


def count_cells(token_lists: Iterable[TokenList],
                row_ids: Sequence[int] | None = None) -> CellCounts:
    """Cross-tabulate tokens into the non-zero cells of a documents-by-words table.

    ``row_ids[i]`` is the row that token list ``i`` counts into: lists
    with equal ids share one row, and rows come in order of first
    appearance, labelled ``str(id)``.  The default is each list's sentence
    id, so every sentence is a row (empty ones included).  Columns are the
    distinct tokens in order of first appearance.  Memory grows with the
    number of tokens, never with rows times vocabulary.
    """
    token_lists = list(token_lists)
    if row_ids is None:
        row_ids = [tl.sentence_id for tl in token_lists]
    if len(row_ids) != len(token_lists):
        raise ValueError(f"{len(row_ids)} row ids for {len(token_lists)} token lists")

    col_index: dict[str, int] = {}
    cols = [col_index.setdefault(token, len(col_index))
            for tl in token_lists for token in tl.tokens]
    if not col_index:
        raise ValueError("empty corpus: no tokens in any document")
    row_of: dict[int, int] = {}  # row id -> row, in first-appearance order
    doc_rows = [row_of.setdefault(row_id, len(row_of)) for row_id in row_ids]

    V = len(col_index)
    rows = np.repeat(np.array(doc_rows, dtype=np.int64), [len(tl.tokens) for tl in token_lists])
    cells, counts = np.unique(rows * V + np.array(cols, dtype=np.int64), return_counts=True)
    return CellCounts(tuple(str(row_id) for row_id in row_of), tuple(col_index),
                      _frozen(cells), _frozen(counts.astype(np.int64, copy=False)))


def apply_filter(table: ContingencyTable | CellCounts, filt: CorpusFilter) -> CellCounts:
    """Run the filter passes in their fixed order and drop emptied rows.

    Pass order: stopword removal, minimum word length, lexicon allow-list,
    then the frequency thresholds evaluated against the table as it stands
    at that point (document frequencies are not recomputed after columns
    drop), and finally removal of all-zero rows.  A dense table is first
    reduced to its :class:`CellCounts`, so both inputs take one path.
    Returns the kept cells, renumbered to the kept rows and columns;
    :meth:`CellCounts.dense` makes them a table.
    """
    if isinstance(table, ContingencyTable):
        table = CellCounts.of(table)
    n, V = table.shape
    rows, cols = np.divmod(table.cells, V)
    totals = np.zeros(V, dtype=np.int64)
    np.add.at(totals, cols, table.counts)
    # Totals and document frequencies (a column's non-zero cells) are per
    # column, so evaluating the thresholds on the whole table and ANDing
    # them with the word passes keeps exactly the columns the passes would
    # keep one after another.
    keep = (totals >= filt.min_total_count) & (
        np.bincount(cols, minlength=V) >= filt.min_doc_count)
    keep &= np.fromiter(
        ((filt.min_word_length <= 1 or len(w) >= filt.min_word_length)
         and w not in filt.stopwords
         and (filt.lexicon is None or w in filt.lexicon) for w in table.col_labels),
        dtype=bool, count=V)
    if not keep.any():
        raise ValueError("empty vocabulary: filter removed every column")

    kept = keep[cols]
    rows, cols = rows[kept], cols[kept]
    row_ok = np.zeros(n, dtype=bool)
    row_ok[rows] = True
    dropped = list(compress(table.row_labels, ~row_ok))
    if dropped:
        logger.info("filter emptied %d rows: %s", len(dropped), ", ".join(dropped))
    # Both renumberings keep order, so the kept cells stay sorted and unique.
    new_row, new_col = np.cumsum(row_ok) - 1, np.cumsum(keep) - 1  # old -> kept index
    m = int(new_col[-1]) + 1
    return CellCounts(tuple(compress(table.row_labels, row_ok)),
                      tuple(compress(table.col_labels, keep)),
                      _frozen(new_row[rows] * m + new_col[cols]), _frozen(table.counts[kept]))


def aggregate(table: ContingencyTable | CellCounts,
              segment_ids: Sequence[int] | np.ndarray) -> CellCounts:
    """Sum consecutive row blocks into one row per segment.

    ``segment_ids`` holds one 1-based segment id per row, in row order;
    the ids start at 1 and rise by at most one from row to row, so the
    segments are the runs of equal ids and are labelled ``"1".."k"``.
    Column labels and column totals are unchanged.  The cells are summed
    into a segments x words buffer, whose non-zero cells are returned.
    """
    if isinstance(table, ContingencyTable):
        table = CellCounts.of(table)
    ids = np.asarray(segment_ids, dtype=np.int64)
    if ids.shape != (table.shape[0],):
        raise ValueError(f"{ids.size} segment ids for {table.shape[0]} rows")
    steps = np.diff(ids)
    if (steps < 0).any():
        raise ValueError("segment ids are not contiguous in row order")
    if (ids.size and ids[0] != 1) or (steps > 1).any():
        raise ValueError("segment ids must be 1..k")
    k = int(ids[-1]) if ids.size else 0
    m = len(table.col_labels)
    rows, cols = np.divmod(table.cells, m)
    counts = np.zeros(k * m, dtype=np.int64)
    np.add.at(counts, (ids[rows] - 1) * m + cols, table.counts)
    cells = np.flatnonzero(counts)
    return CellCounts(tuple(str(sid) for sid in range(1, k + 1)), table.col_labels,
                      _frozen(cells), _frozen(counts[cells]))


def load_word_list(path: str | Path) -> frozenset[str]:
    """Read a one-entry-per-line file; ``#`` starts a comment.

    Entries are kept exactly as written (case included), which serves
    stopword lists, lexicons and abbreviation lists alike.
    """
    return frozenset(line for _, line in lines(path))


def table_to_csv(table: ContingencyTable | CellCounts) -> str:
    """Serialize a table: header of word labels, one row per document."""
    return "".join(table_csv_rows(table))


def table_csv_rows(table: ContingencyTable | CellCounts) -> Iterator[str]:
    """The lines of :func:`table_to_csv`, header first, one string each.

    The bytes are those of ``csv.writer`` (``lineterminator="\\n"``) over
    ``[label, *counts]`` with each count written as ``str(int)``: labels
    are quoted by csv itself, and the counts, which csv never quotes, are
    formatted by numpy in row blocks of about ``_CSV_BLOCK_BYTES``.  Only
    one row block is dense at a time, taken from the table's cells, so
    writing the lines as they come never holds the whole table or its text.
    """
    if isinstance(table, ContingencyTable):
        table = CellCounts.of(table)
    n, m = table.shape
    top = int(table.counts.max(initial=0))
    width = len(str(top))
    dtype = np.min_scalar_type(top)  # the digit loop's arrays take 1-8 bytes per cell
    rows_per_block = max(1, _CSV_BLOCK_BYTES // (m * (width + 1) + 1))

    def block(start: int, stop: int) -> np.ndarray:
        lo, hi = np.searchsorted(table.cells, (start * m, stop * m))
        counts = np.zeros((stop - start, m), dtype=dtype)
        counts.reshape(-1)[table.cells[lo:hi] - start * m] = table.counts[lo:hi]
        return counts

    bodies = (body for start in range(0, n, rows_per_block) for body in
              _count_rows(block(start, min(start + rows_per_block, n)), width).splitlines(True))
    return labelled_csv(["doc_id", *table.col_labels], table.row_labels, bodies)


def _count_rows(block: np.ndarray, width: int) -> str:
    """Rows of counts below ``10**width`` as ``",c1,c2,...\\n"`` lines, in decimal."""
    r, m = block.shape
    # One byte per digit after a leading comma, plus the row's newline;
    # leading zeros become NUL bytes and are dropped with one mask.
    out = np.zeros((r, m * (width + 1) + 1), dtype=np.uint8)
    out[:, -1] = ord("\n")
    cells = out[:, :-1].reshape(r, m, width + 1)
    cells[:, :, 0] = ord(",")
    rest = block
    for k in range(width, 0, -1):
        rest, digit = np.divmod(rest, 10)
        cells[:, :, k] = digit + ord("0")
    for k in range(1, width):  # position k holds the 10**(width - k) digit
        cells[:, :, k][block < 10 ** (width - k)] = 0
    flat = out.ravel()
    return flat[flat != 0].tobytes().decode("ascii")


def table_from_csv(data: str) -> ContingencyTable:
    """Parse :func:`table_to_csv` output; exact round-trip."""
    header, rows = read_csv(data)
    if not header or header[0] != "doc_id":
        raise ValueError("table CSV must start with a doc_id header column")
    col_labels = tuple(header[1:])
    body = [row for _, row in rows]
    counts = np.array([[int(cell) for cell in row[1:]] for row in body], dtype=np.int64)
    return ContingencyTable(tuple(row[0] for row in body), col_labels,
                            _frozen(counts.reshape(len(body), len(col_labels))))
