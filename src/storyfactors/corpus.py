"""Document-term contingency tables and vocabulary filtering.

Tables are integer count tables with ordered labels: rows follow the
chronology of the text units, columns are the vocabulary in order of
first appearance.  The one table type is :class:`CellCounts`, a
table's non-zero cells: :func:`count_cells` counts tokens into cells,
:func:`apply_filter` returns the kept cells, :func:`aggregate` sums cells
into one row per segment given one segment id per row (a segment is a
run of rows), and :func:`table_csv_rows` writes them as CSV lines.
:meth:`CellCounts.of` takes the cells of a dense array, and
:meth:`CellCounts.dense` makes the full array for code that needs it.
Filtering is a pipeline of passes (stopwords, word length, lexicon,
frequency thresholds, empty-row removal) run by one kernel over the
cells, and is idempotent: applying the same filter twice changes nothing.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import chain, compress
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from ._formats import labelled_csv, lines, read_csv
from .textprep import TokenList

logger = logging.getLogger(__name__)


def _frozen(array: np.ndarray) -> np.ndarray:
    """Mark an array just built, and any array it views, read-only, so a record takes it uncopied."""
    base = array
    while isinstance(base, np.ndarray):  # np.flatnonzero returns a view of an array of its own
        base.setflags(write=False)
        base = base.base
    return array


def _held(value, dtype) -> np.ndarray:
    """``value`` as a read-only ``dtype`` array, the one rule for an array a record keeps:
    taken uncopied only when it and every array in its ``.base`` chain are read-only (as
    :func:`_frozen` leaves them), copied otherwise.  What it cannot stop is what numpy
    allows: the owner of a read-only array may set it writeable again."""
    array = base = np.asarray(value, dtype)
    while isinstance(base, np.ndarray) and not base.flags.writeable:
        base = base.base
    return array if base is None else _frozen(array.copy())


def _whole(name: str, value) -> np.ndarray:
    """``value`` as int64, refusing values that are not whole numbers int64 holds."""
    array = np.asarray(value)
    if array.dtype.kind in "fuO":  # floats, uint64 and Python ints
        with np.errstate(invalid="ignore"):  # nan and inf // 1 are nan, equal to nothing
            whole = (array // 1 == array) & (np.abs(array) < 2**63)
        if not whole.all():
            raise ValueError(f"{name} must be whole numbers")
    return np.asarray(array, dtype=np.int64)


@dataclass(frozen=True, eq=False)  # arrays have no truth value: equal means identical
class CellCounts:
    """A count table stored as its non-zero cells, with stable label order.

    ``cells`` holds the sorted, unique flat indices ``row * len(col_labels)
    + col`` of the non-zero cells and ``counts`` their positive counts, so
    the storage grows with the distinct words of each row, not with rows
    times vocabulary.  The labels are kept as tuples and both arrays as
    read-only int64 arrays, through :func:`_held`.
    """

    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    cells: np.ndarray  # sorted unique int64 flat indices
    counts: np.ndarray  # int64, > 0, one per cell

    def __post_init__(self) -> None:
        for name in ("row_labels", "col_labels"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        for name in ("cells", "counts"):
            object.__setattr__(self, name, _held(_whole(name, getattr(self, name)), np.int64))
        cells, counts, size = self.cells, self.counts, self.shape[0] * self.shape[1]
        if cells.ndim != 1 or cells.shape != counts.shape:
            raise ValueError(f"cells {cells.shape} and counts {counts.shape} "
                             "must be 1-D arrays of one length")
        if cells.size and (cells[0] < 0 or int(cells[-1]) >= size
                           or not (cells[1:] > cells[:-1]).all()):
            raise ValueError(f"cells must rise strictly within [0, {size})")
        if counts.min(initial=1) < 1:
            raise ValueError("counts must be positive")
        for side, labels in (("row", self.row_labels), ("column", self.col_labels)):
            if len(set(labels)) != len(labels):
                raise ValueError(f"duplicate {side} labels")

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.row_labels), len(self.col_labels)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def column_totals(self) -> np.ndarray:
        totals = np.zeros(self.shape[1], dtype=np.int64)
        np.add.at(totals, self.cells % self.shape[1], self.counts)
        return totals

    @classmethod
    def of(cls, row_labels: tuple[str, ...], col_labels: tuple[str, ...],
           counts: np.ndarray) -> "CellCounts":
        """The cells of a dense rows x columns array of non-negative counts."""
        counts = _whole("counts", counts)
        if counts.shape != (len(row_labels), len(col_labels)):
            raise ValueError(f"counts shape {counts.shape} does not match "
                             f"{len(row_labels)} rows x {len(col_labels)} cols")
        if counts.min(initial=0) < 0:
            raise ValueError("counts must be non-negative")
        flat = counts.reshape(-1)
        cells = np.flatnonzero(flat)
        return cls(row_labels, col_labels, _frozen(cells), _frozen(flat[cells]))

    def dense(self) -> np.ndarray:
        """The full rows x columns table, as a new read-only int64 array."""
        counts = np.zeros(self.shape, dtype=np.int64)
        counts.reshape(-1)[self.cells] = self.counts
        return _frozen(counts)


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

    col_index = {token: j for j, token in enumerate(
        dict.fromkeys(chain.from_iterable(tl.tokens for tl in token_lists)))}
    if not col_index:
        raise ValueError("empty corpus: no tokens in any document")
    row_of: dict[int, int] = {}  # row id -> row, in first-appearance order
    doc_rows = [row_of.setdefault(row_id, len(row_of)) for row_id in row_ids]

    # One int64 array per token at a time: flat = row * V + column, sorted
    # in place; each run of equal values is one cell, its length the count.
    # `flat`, the run-start mask and the starts are each dropped once read.
    flat = np.repeat(np.array(doc_rows, dtype=np.int64), [len(tl.tokens) for tl in token_lists])
    flat *= len(col_index)
    flat += np.fromiter(map(col_index.__getitem__,
                            chain.from_iterable(tl.tokens for tl in token_lists)),
                        np.int64, count=len(flat))
    flat.sort()
    total = len(flat)
    first = np.ones(total, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=first[1:])
    cells = flat[first]
    del flat
    starts = np.flatnonzero(first)
    del first
    counts = np.empty(len(starts), dtype=np.int64)
    np.subtract(starts[1:], starts[:-1], out=counts[:-1])
    counts[-1] = total - starts[-1]
    del starts
    return CellCounts(tuple(str(row_id) for row_id in row_of), tuple(col_index),
                      _frozen(cells), _frozen(counts))


def apply_filter(table: CellCounts, *, min_total_count: int = 1, min_doc_count: int = 1,
                 min_word_length: int = 1, stopwords: frozenset[str] = frozenset(),
                 lexicon: frozenset[str] | None = None) -> CellCounts:
    """Run the filter passes in their fixed order and drop emptied rows.

    Pass order: stopword removal, minimum word length, lexicon allow-list,
    then the frequency thresholds evaluated against the table as it stands
    at that point (document frequencies are not recomputed after columns
    drop), and finally removal of all-zero rows.  The defaults keep every
    word.  Returns the kept cells, renumbered to the kept rows and columns.
    """
    n, V = table.shape
    cols = table.cells % V
    totals = table.column_totals()
    # Totals and document frequencies (a column's non-zero cells) are per
    # column, so evaluating the thresholds on the whole table and ANDing
    # them with the word passes keeps exactly the columns the passes would
    # keep one after another.
    keep = (totals >= min_total_count) & (np.bincount(cols, minlength=V) >= min_doc_count)
    keep &= np.fromiter(
        ((min_word_length <= 1 or len(w) >= min_word_length) and w not in stopwords
         and (lexicon is None or w in lexicon) for w in table.col_labels),
        dtype=bool, count=V)
    if not keep.any():
        raise ValueError("empty vocabulary: filter removed every column")

    kept = keep[cols]
    cols = cols[kept]
    rows = table.cells[kept] // V  # only the kept cells' rows are ever made
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


def aggregate(table: CellCounts, segment_ids: Sequence[int] | np.ndarray) -> CellCounts:
    """Sum consecutive row blocks into one row per segment.

    ``segment_ids`` holds one 1-based segment id per row, in row order;
    the ids start at 1 and rise by at most one from row to row, so the
    segments are the runs of equal ids and are labelled ``"1".."k"``.
    Column labels and column totals are unchanged.  The cells are summed
    into a segments x words buffer, whose non-zero cells are returned.
    """
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
    flat = ids[table.cells // m] - 1  # each cell's segment, then its flat index in place
    flat *= m
    flat += table.cells % m
    counts = np.zeros(k * m, dtype=np.int64)
    np.add.at(counts, flat, table.counts)
    del flat
    cells = np.flatnonzero(counts)
    return CellCounts(tuple(str(sid) for sid in range(1, k + 1)), table.col_labels,
                      _frozen(cells), _frozen(counts[cells]))


def load_word_list(path: str | Path) -> frozenset[str]:
    """Read a one-entry-per-line file; ``#`` starts a comment.

    Entries are kept exactly as written (case included), which serves
    stopword lists, lexicons and abbreviation lists alike.
    """
    return frozenset(line for _, line in lines(path))


def table_csv_rows(table: CellCounts) -> Iterator[str]:
    """A table's CSV lines, one string each: a header of word labels, then one row per document.

    The bytes are those of ``csv.writer`` (``lineterminator="\\n"``) over
    ``[label, *counts]`` with each count written as ``str(int)``: labels
    are quoted by csv itself, and the counts, which csv never quotes, are
    written from the table's cells one row at a time, the zeros between
    them sliced from one ``",0" * m`` string.  Writing the lines as they
    come never holds the whole table or its text.
    """
    n, m = table.shape
    zeros = ",0" * m
    starts = np.searchsorted(table.cells, np.arange(n + 1) * m).tolist()  # each row's first cell

    def body(row: int) -> str:
        lo, hi = starts[row], starts[row + 1]
        parts, done = [], row * m  # done: the flat index of the next cell to write
        for cell, count in zip(table.cells[lo:hi].tolist(), table.counts[lo:hi].tolist()):
            parts.append(f"{zeros[:2 * (cell - done)]},{count}")
            done = cell + 1
        return "".join(parts) + zeros[:2 * ((row + 1) * m - done)] + "\n"

    return labelled_csv(["doc_id", *table.col_labels], table.row_labels, map(body, range(n)))


def table_from_csv(data: str) -> CellCounts:
    """Parse the joined lines of :func:`table_csv_rows`; exact round-trip."""
    header, rows = read_csv(data)
    if not header or header[0] != "doc_id":
        raise ValueError("table CSV must start with a doc_id header column")
    col_labels = tuple(header[1:])
    m = len(col_labels)
    labels, body = [], []
    for lineno, row in rows:
        if len(row) - 1 != m:
            raise ValueError(f"line {lineno}: expected {m} counts after the label, "
                             f"got {len(row) - 1}")
        try:
            body.append([int(cell) for cell in row[1:]])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        labels.append(row[0])
    return CellCounts.of(tuple(labels), col_labels,
                         np.array(body, dtype=np.int64).reshape(len(body), m))
