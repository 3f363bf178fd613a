"""Contingency table construction, filtering, aggregation, round-trips."""

import csv
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storyfactors import corpus
from storyfactors.textprep import TokenList

from conftest import random_table


def _tl(sentence_id, *tokens):
    return TokenList(sentence_id, tokens)


def test_build_table_first_appearance_columns():
    table = corpus.count_cells([_tl(1, "b", "a", "b"), _tl(2, "c", "a")])
    assert table.col_labels == ("b", "a", "c")
    assert table.row_labels == ("1", "2")
    assert table.dense().tolist() == [[2, 1, 0], [0, 1, 1]]


def test_build_table_keeps_empty_sentences():
    table = corpus.count_cells([_tl(1, "x"), _tl(2), _tl(3, "x")])
    assert table.row_labels == ("1", "2", "3")
    assert table.dense().sum(axis=1).tolist() == [1, 0, 1]


def test_build_table_paragraph_unit_sums_sentences():
    token_lists = [_tl(1, "a"), _tl(2, "b", "a"), _tl(3, "c")]
    table = corpus.count_cells(token_lists, [1, 1, 2])
    assert table.row_labels == ("1", "2")
    assert table.col_labels == ("a", "b", "c")
    assert table.dense().tolist() == [[2, 1, 0], [0, 0, 1]]


def test_build_table_paragraph_unit_requires_ids():
    with pytest.raises(ValueError, match="^1 row ids for 2 token lists$"):
        corpus.count_cells([_tl(1, "a"), _tl(2, "b")], [1])
    with pytest.raises(ValueError, match="^2 row ids for 1 token lists$"):
        corpus.count_cells([_tl(1, "a")], [1, 1])


def test_build_table_rejects_unknown_unit_and_empty_corpus():
    with pytest.raises(ValueError, match="empty corpus"):
        corpus.count_cells([_tl(1), _tl(2)])


def test_table_validates_shape_labels_and_counts():
    with pytest.raises(ValueError, match="shape"):
        corpus.CellCounts.of(("r",), ("a", "b"), np.zeros((1, 3), dtype=int))
    with pytest.raises(ValueError, match="non-negative"):
        corpus.CellCounts.of(("r",), ("a",), np.array([[-1]]))
    with pytest.raises(ValueError, match="duplicate row"):
        corpus.CellCounts.of(("r", "r"), ("a",), np.ones((2, 1), dtype=int))
    with pytest.raises(ValueError, match="duplicate column"):
        corpus.CellCounts.of(("r",), ("a", "a"), np.ones((1, 2), dtype=int))


def test_cell_counts_reject_cells_they_cannot_represent():
    rows, cols = ("a", "b"), ("x", "y")
    for cells, counts, message in (
            ([0, 0, 3], [1, 2, 4], "rise strictly"),  # dense() would keep one count of cell 0
            ([1, 0], [1, 1], "rise strictly"),
            ([0, 4], [1, 1], r"within \[0, 4\)"),
            ([-1, 0], [1, 1], r"within \[0, 4\)"),
            ([0, 1], [1, 0], "counts must be positive"),
            ([0, 1], [1, -2], "counts must be positive"),
            ([0, 1], [1], "1-D arrays of one length"),
            ([[0, 1]], [[1, 1]], "1-D arrays of one length")):
        with pytest.raises(ValueError, match=message):
            corpus.CellCounts(rows, cols, cells, counts)
    with pytest.raises(ValueError, match="duplicate row labels"):
        corpus.CellCounts(("a", "a"), cols, [0], [1])
    with pytest.raises(ValueError, match="duplicate column labels"):
        corpus.CellCounts(rows, ("x", "x"), [0], [1])
    table = corpus.CellCounts(rows, cols, [0, 3], [2, 5])
    assert table.total == 7 and table.dense().tolist() == [[2, 0], [0, 5]]
    assert table.column_totals().tolist() == [2, 5]


def test_table_rejects_counts_that_are_not_whole_numbers():
    rows, cols = ("a",), ("x", "y")
    for counts in ([[1.7, 0.4]], [[np.nan, 1.0]], [[np.inf, 1.0]], [[2.0, 0.5]], [[1e30, 1.0]]):
        with pytest.raises(ValueError, match="counts must be whole numbers"):
            corpus.CellCounts.of(rows, cols, np.array(counts))
    with pytest.raises(ValueError, match="counts must be whole numbers"):
        corpus.CellCounts(rows, cols, [0], [1.5])
    with pytest.raises(ValueError, match="cells must be whole numbers"):
        corpus.CellCounts(rows, cols, [0.5], [1])
    # Whole floats are counts.
    table = corpus.CellCounts.of(rows, cols, np.array([[2.0, 0.0]]))
    assert table.cells.tolist() == [0] and table.counts.tolist() == [2]
    assert table.counts.dtype == np.int64
    assert corpus.CellCounts(rows, cols, [1.0], [3.0]).dense().tolist() == [[0, 3]]
    # Integers past int64 (a uint64 array, or Python ints in an object array)
    # are refused, not wrapped or overflowed.
    for big in ([2**63], [2**64], [-2**63 - 1], np.array([2**63], dtype=np.uint64)):
        with pytest.raises(ValueError, match="^counts must be whole numbers$"):
            corpus.CellCounts.of(rows, cols[:1], [big])
        with pytest.raises(ValueError, match="^counts must be whole numbers$"):
            corpus.CellCounts(rows, cols, [0], big)
        with pytest.raises(ValueError, match="^cells must be whole numbers$"):
            corpus.CellCounts(rows, cols, big, [1])
    with pytest.raises(ValueError, match="^counts must be whole numbers$"):
        corpus.CellCounts.of(rows, cols, [[2**64, 1]])  # an object array
    # The largest int64 is still a count, as are Python ints in an object array.
    assert corpus.CellCounts.of(rows, cols, [[2**63 - 1, 0]]).total == 2**63 - 1
    assert corpus.CellCounts(rows, cols, [0], [2**63 - 1]).total == 2**63 - 1
    table = corpus.CellCounts.of(rows, cols, np.array([[3, 1]], dtype=object))
    assert table.counts.tolist() == [3, 1] and table.counts.dtype == np.int64


def test_table_counts_are_read_only():
    table = corpus.CellCounts.of(("r",), ("a",), np.array([[1]]))
    for array in (table.cells, table.counts, table.dense()):
        assert array.dtype == np.int64
        with pytest.raises(ValueError):
            array[0] = 5


def test_table_leaves_the_callers_array_writable():
    counts = np.array([[1, 2]], dtype=np.int64)
    table = corpus.CellCounts.of(("r",), ("a", "b"), counts)
    assert counts.flags.writeable
    counts[0, 0] = 7
    assert table.dense().tolist() == [[1, 2]]
    cells, counts = np.array([0, 1], dtype=np.int64), np.array([1, 2], dtype=np.int64)
    table = corpus.CellCounts(("r",), ("a", "b"), cells, counts)
    assert cells.flags.writeable and counts.flags.writeable
    cells[0], counts[0] = 1, 7
    assert table.cells.tolist() == [0, 1] and table.counts.tolist() == [1, 2]
    # A read-only int64 array is taken as it is, uncopied.
    cells.setflags(write=False)
    counts.setflags(write=False)
    table = corpus.CellCounts(("r",), ("a", "b"), cells[1:], counts[1:])
    assert table.cells.base is cells and table.counts.base is counts
    frozen = corpus.CellCounts(("r",), ("a", "b"), table.cells, table.counts)
    assert frozen.cells is table.cells and frozen.counts is table.counts


def _demo_table():
    # words: the(6 occ), cat(3), mat(2), a(1), zz(1 in 1 doc)
    rows = [
        _tl(1, "the", "cat", "sat"),
        _tl(2, "the", "the", "cat", "mat"),
        _tl(3, "the", "a"),
        _tl(4, "the", "the", "cat", "mat", "zz"),
    ]
    return corpus.count_cells(rows)


def test_apply_filter_pass_order():
    table = _demo_table()
    filt = corpus.CorpusFilter(
        min_total_count=2, min_doc_count=2, min_word_length=2,
        stopwords=frozenset({"the"}),
    )
    out = corpus.apply_filter(table, filt)
    # "the" stopworded, "a" too short, "sat"/"zz" below thresholds.
    assert out.col_labels == ("cat", "mat")
    assert out.row_labels == ("1", "2", "4")  # row 3 emptied and dropped
    assert out.dense().tolist() == [[1, 0], [1, 1], [1, 1]]


def test_apply_filter_lexicon_restricts():
    table = _demo_table()
    out = corpus.apply_filter(table, corpus.CorpusFilter(lexicon=frozenset({"cat", "sat"})))
    assert out.col_labels == ("cat", "sat")


def test_apply_filter_empty_vocabulary_is_an_error():
    table = _demo_table()
    with pytest.raises(ValueError, match="empty vocabulary"):
        corpus.apply_filter(table, corpus.CorpusFilter(min_total_count=100))


def test_doc_counts_use_pre_threshold_table():
    # "b" appears in 2 docs before thresholds; dropping "a" first must not
    # change that, so min_doc_count=2 keeps "b".
    table = corpus.count_cells([_tl(1, "a", "b"), _tl(2, "b")])
    out = corpus.apply_filter(
        table, corpus.CorpusFilter(min_doc_count=2, stopwords=frozenset({"a"}))
    )
    assert out.col_labels == ("b",)


@st.composite
def tables(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_table(rng)


@st.composite
def filters(draw):
    return corpus.CorpusFilter(
        min_total_count=draw(st.integers(1, 4)),
        min_doc_count=draw(st.integers(1, 3)),
        min_word_length=draw(st.integers(1, 3)),
        stopwords=frozenset(draw(st.sets(st.sampled_from(["c0", "c1", "c2"]), max_size=2))),
    )


@given(tables(), filters())
@settings(max_examples=60, deadline=None)
def test_apply_filter_is_idempotent(table, filt):
    try:
        once = corpus.apply_filter(table, filt)
    except ValueError:
        return
    twice = corpus.apply_filter(once, filt)
    assert twice.row_labels == once.row_labels
    assert twice.col_labels == once.col_labels
    assert np.array_equal(twice.dense(), once.dense())


@given(tables(), filters())
@settings(max_examples=60, deadline=None)
def test_apply_filter_output_meets_thresholds(table, filt):
    try:
        out = corpus.apply_filter(table, filt)
    except ValueError:
        return
    assert (out.column_totals() >= filt.min_total_count).all()
    assert all(len(w) >= filt.min_word_length for w in out.col_labels)
    assert not set(out.col_labels) & filt.stopwords
    assert (out.dense().sum(axis=1) > 0).all()


@given(tables(), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_aggregate_preserves_totals(table, k):
    n = len(table.row_labels)
    k = min(k, n)
    edges = sorted(np.random.default_rng(k * n).choice(range(1, n), size=k - 1, replace=False)) if k > 1 else []
    sizes = np.diff([0, *edges, n]).tolist()
    out = corpus.aggregate(table, np.repeat(np.arange(1, k + 1), sizes))
    assert out.shape == (k, len(table.col_labels))
    assert out.col_labels == table.col_labels
    assert out.total == table.total
    assert np.array_equal(out.column_totals(), table.column_totals())


def _aggregate_row_by_row(table, segment_ids):
    """The per-row accumulation ``corpus.aggregate`` used before reduceat."""
    counts = np.zeros((max(segment_ids), len(table.col_labels)), dtype=np.int64)
    for row, segment_id in zip(table.dense(), segment_ids):
        counts[segment_id - 1] += row
    return counts


@given(tables(), st.data())
@settings(max_examples=80, deadline=None)
def test_aggregate_equals_row_by_row_sums(table, data):
    # The first row is in segment 1 and each later row's id steps 0 or 1
    # above the previous one; a segment with no row cannot be expressed.
    steps = data.draw(st.lists(st.integers(0, 1), min_size=len(table.row_labels) - 1,
                               max_size=len(table.row_labels) - 1))
    ids = np.cumsum([1, *steps]).tolist()
    out = corpus.aggregate(table, ids)
    assert out.row_labels == tuple(str(sid) for sid in range(1, ids[-1] + 1))
    assert out.dense().dtype == np.int64
    assert np.array_equal(out.dense(), _aggregate_row_by_row(table, ids))
    assert np.array_equal(out.dense(), _aggregate_slice_sums(table, ids))


def test_aggregate_rejects_non_contiguous_segments():
    table = _demo_table()
    with pytest.raises(ValueError, match="not contiguous in row order"):
        corpus.aggregate(table, [1, 2, 1, 2])


def test_aggregate_rejects_missing_rows_and_bad_ids():
    table = _demo_table()
    with pytest.raises(ValueError, match="^1 segment ids for 4 rows$"):
        corpus.aggregate(table, [1])
    for bad in ([1, 1, 3, 3], [2, 2, 3, 3], [0, 1, 1, 2]):
        with pytest.raises(ValueError, match="^segment ids must be 1..k$"):
            corpus.aggregate(table, bad)


def test_load_word_list_strips_comments(tmp_path):
    path = tmp_path / "words.txt"
    path.write_text("alpha\nbeta # inline\n# full line\n\ngamma\n", encoding="utf-8")
    assert corpus.load_word_list(path) == frozenset({"alpha", "beta", "gamma"})


def test_table_csv_round_trip():
    table = _demo_table()
    data = "".join(corpus.table_csv_rows(table))
    assert data.splitlines()[0] == "doc_id,the,cat,sat,mat,a,zz"
    back = corpus.table_from_csv(data)
    assert back.row_labels == table.row_labels
    assert back.col_labels == table.col_labels
    assert np.array_equal(back.dense(), table.dense())


def test_table_from_csv_rejects_bad_header():
    with pytest.raises(ValueError, match="doc_id"):
        corpus.table_from_csv("label,a\nr,1\n")


@pytest.mark.parametrize("body, message", [
    ("a,1,2\nb\n", "line 3: expected 2 counts after the label, got 0"),
    ("a,1,2,3\nb,0,1\n", "line 2: expected 2 counts after the label, got 3"),
    ("a,1,2\n\nb,z,1\n", "line 4: invalid literal for int() with base 10: 'z'"),
    ("a,1,2\nb,1.5,1\n", "line 3: invalid literal for int() with base 10: '1.5'"),
])
def test_table_from_csv_names_the_line_of_a_bad_row(body, message):
    with pytest.raises(ValueError) as info:
        corpus.table_from_csv("doc_id,x,y\n" + body)
    assert str(info.value) == message


# The loop versions that the numpy paths replaced, kept as exact oracles.

def _reference_build_table(token_lists, unit="sentence", paragraph_ids=None):
    token_lists = list(token_lists)
    col_index = {}
    for tl in token_lists:
        for token in tl.tokens:
            if token not in col_index:
                col_index[token] = len(col_index)
    vocabulary = list(col_index)
    if unit == "sentence":
        doc_of = {tl.sentence_id: i for i, tl in enumerate(token_lists)}
        row_labels = tuple(str(tl.sentence_id) for tl in token_lists)
    else:
        row_of = {}
        for tl in token_lists:
            row_of.setdefault(paragraph_ids[tl.sentence_id], len(row_of))
        doc_of = {tl.sentence_id: row_of[paragraph_ids[tl.sentence_id]] for tl in token_lists}
        row_labels = tuple(str(pid) for pid in row_of)
    counts = np.zeros((len(row_labels), len(vocabulary)), dtype=np.int64)
    for tl in token_lists:
        i = doc_of[tl.sentence_id]
        for token in tl.tokens:
            counts[i, col_index[token]] += 1
    return corpus.CellCounts.of(row_labels, tuple(vocabulary), counts)


def _reference_apply_filter(table, filt):
    keep = np.ones(len(table.col_labels), dtype=bool)
    words = np.array(table.col_labels)
    if filt.stopwords:
        keep &= ~np.isin(words, sorted(filt.stopwords))
    if filt.min_word_length > 1:
        keep &= np.array([len(w) >= filt.min_word_length for w in words])
    if filt.lexicon is not None:
        keep &= np.isin(words, sorted(filt.lexicon))
    counts = table.dense()[:, keep]
    kept_words = words[keep]
    totals = counts.sum(axis=0)
    doc_freq = (counts > 0).sum(axis=0)
    freq_ok = (totals >= filt.min_total_count) & (doc_freq >= filt.min_doc_count)
    counts = counts[:, freq_ok]
    kept_words = kept_words[freq_ok]
    if counts.shape[1] == 0:
        raise ValueError("empty vocabulary: filter removed every column")
    row_ok = counts.sum(axis=1) > 0
    counts = counts[row_ok]
    row_labels = tuple(label for label, ok in zip(table.row_labels, row_ok) if ok)
    return corpus.CellCounts.of(row_labels, tuple(kept_words), counts)


def _dense_apply_filter(table, filt):
    """``corpus.apply_filter`` when it filled the kept rows x kept words densely."""
    n, V = table.shape
    rows, cols = np.divmod(table.cells, V)
    totals = np.zeros(V, dtype=np.int64)
    np.add.at(totals, cols, table.counts)
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
    new_row, new_col = np.cumsum(row_ok) - 1, np.cumsum(keep) - 1
    m = int(new_col[-1]) + 1
    counts = np.zeros((int(row_ok.sum()), m), dtype=np.int64)
    counts.reshape(-1)[new_row[rows] * m + new_col[cols]] = table.counts[kept]
    return corpus.CellCounts.of(
        tuple(label for label, ok in zip(table.row_labels, row_ok) if ok),
        tuple(label for label, ok in zip(table.col_labels, keep) if ok), counts)


def _aggregate_slice_sums(table, segment_ids):
    """``corpus.aggregate`` when it summed each run of equal ids as one dense slice."""
    ids, dense = np.asarray(segment_ids), table.dense()
    counts = np.zeros((ids[-1], len(table.col_labels)), dtype=np.int64)
    starts = np.flatnonzero(np.diff(ids, prepend=0)).tolist()
    for start, end in zip(starts, [*starts[1:], len(ids)]):
        counts[ids[start] - 1] = dense[start:end].sum(axis=0)
    return counts


def _reference_table_to_csv(table):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["doc_id", *table.col_labels])
    for label, row in zip(table.row_labels, table.dense()):
        writer.writerow([label, *row.tolist()])
    return buffer.getvalue()


def _assert_same_table(got, want):
    assert got.row_labels == want.row_labels
    assert got.col_labels == want.col_labels
    assert all(type(label) is str for label in got.row_labels + got.col_labels)
    assert got.cells.dtype == got.counts.dtype == np.int64
    assert np.array_equal(got.dense(), want.dense())


def _unique_count_cells(token_lists, row_ids=None):
    """``corpus.count_cells`` when it listed every token's column and called ``np.unique``."""
    token_lists = list(token_lists)
    if row_ids is None:
        row_ids = [tl.sentence_id for tl in token_lists]
    col_index = {}
    cols = [col_index.setdefault(token, len(col_index))
            for tl in token_lists for token in tl.tokens]
    row_of = {}
    doc_rows = [row_of.setdefault(row_id, len(row_of)) for row_id in row_ids]
    rows = np.repeat(np.array(doc_rows, dtype=np.int64), [len(tl.tokens) for tl in token_lists])
    cells, counts = np.unique(rows * len(col_index) + np.array(cols, dtype=np.int64),
                              return_counts=True)
    return corpus.CellCounts(tuple(str(row_id) for row_id in row_of), tuple(col_index),
                             cells, counts.astype(np.int64))


def _assert_same_cells(got, want):
    assert (got.row_labels, got.col_labels) == (want.row_labels, want.col_labels)
    for name in ("cells", "counts"):
        assert getattr(got, name).dtype == np.int64
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


_WORDS = ("a", "b", "ab", "ba", "abc", "cab", "abcd", "dd", "d", "cc")


@st.composite
def token_corpora(draw):
    """Token lists with unique sentence ids, some empty, and paragraph ids."""
    n = draw(st.integers(1, 12))
    ids = draw(st.lists(st.integers(1, 99), min_size=n, max_size=n, unique=True))
    token_lists = [TokenList(i, tuple(draw(st.lists(st.sampled_from(_WORDS), max_size=8))))
                   for i in ids]
    paragraphs = {i: draw(st.integers(1, 4)) for i in ids}
    return token_lists, paragraphs


def _row_ids(token_lists, unit, paragraph_ids):
    """``count_cells``'s rows for the oracle's unit: default, or each list's paragraph."""
    return None if unit == "sentence" else [paragraph_ids[tl.sentence_id] for tl in token_lists]


@given(token_corpora(), st.sampled_from(["sentence", "paragraph"]))
@settings(max_examples=200, deadline=None)
def test_build_table_matches_per_token_loop(corpus_and_ids, unit):
    token_lists, paragraphs = corpus_and_ids
    row_ids = _row_ids(token_lists, unit, paragraphs)
    if not any(tl.tokens for tl in token_lists):
        with pytest.raises(ValueError, match="empty corpus"):
            corpus.count_cells(token_lists, row_ids)
        return
    got = corpus.count_cells(token_lists, row_ids)
    _assert_same_table(got, _reference_build_table(token_lists, unit, paragraphs))
    _assert_same_cells(got, _unique_count_cells(token_lists, row_ids))


def test_count_cells_matches_its_unique_form_on_the_bundled_story(poe):
    paragraph_ids = [r.paragraph_id for r in poe["records"]]
    for row_ids in (None, paragraph_ids):
        _assert_same_cells(corpus.count_cells(poe["tokens"], row_ids),
                           _unique_count_cells(poe["tokens"], row_ids))


def test_count_cells_matches_its_unique_form_on_large_counts():
    # Word w{j} occurs (j + 1) ** 2 times in each of six token lists, so a
    # sentence row counts 1 to 400 and a row of two lists 2 to 800.
    rng = np.random.default_rng(5)
    token_lists = []
    for i in range(6):
        words = [f"w{j}" for j in range(20) for _ in range((j + 1) ** 2)]
        token_lists.append(TokenList(i, tuple(rng.permutation(words).tolist())))
    for row_ids in (None, [1, 2, 3, 1, 2, 3]):
        got = corpus.count_cells(token_lists, row_ids)
        assert {len(str(count)) for count in got.counts.tolist()} >= {2, 3}
        _assert_same_cells(got, _unique_count_cells(token_lists, row_ids))


@st.composite
def word_tables(draw):
    labels = draw(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=len(_WORDS),
                           unique=True))
    n = draw(st.integers(1, 8))
    cells = draw(st.lists(st.integers(0, 3), min_size=n * len(labels),
                          max_size=n * len(labels)))
    return corpus.CellCounts.of(tuple(f"r{i}" for i in range(n)), tuple(labels),
                                np.array(cells, dtype=np.int64).reshape(n, len(labels)))


@st.composite
def filter_passes(draw):
    """Every pass on or off: stopwords, word length, lexicon, each threshold."""
    words = st.frozensets(st.sampled_from(_WORDS + ("zz",)), max_size=6)
    return corpus.CorpusFilter(
        min_total_count=draw(st.integers(1, 5)) if draw(st.booleans()) else 1,
        min_doc_count=draw(st.integers(1, 4)) if draw(st.booleans()) else 1,
        min_word_length=draw(st.integers(1, 4)) if draw(st.booleans()) else 1,
        stopwords=draw(words) if draw(st.booleans()) else frozenset(),
        lexicon=draw(words) if draw(st.booleans()) else None,
    )


@given(word_tables(), filter_passes())
@settings(max_examples=300, deadline=None)
def test_apply_filter_matches_chained_passes(table, filt):
    try:
        want = _reference_apply_filter(table, filt)
    except ValueError as err:
        with pytest.raises(ValueError, match=str(err)):
            corpus.apply_filter(table, filt)
        return
    cells = corpus.apply_filter(table, filt)
    assert (np.diff(cells.cells) > 0).all() and (cells.counts > 0).all()
    _assert_same_table(cells, want)
    _assert_same_table(cells, _dense_apply_filter(table, filt))


@given(token_corpora(), st.sampled_from(["sentence", "paragraph"]), filter_passes())
@settings(max_examples=300, deadline=None)
def test_filtered_cells_match_dense_build_then_filter(corpus_and_ids, unit, filt):
    token_lists, paragraphs = corpus_and_ids
    row_ids = _row_ids(token_lists, unit, paragraphs)
    if not any(tl.tokens for tl in token_lists):
        with pytest.raises(ValueError, match="empty corpus"):
            corpus.count_cells(token_lists, row_ids)
        return
    cells = corpus.count_cells(token_lists, row_ids)
    try:
        want = _reference_apply_filter(_reference_build_table(token_lists, unit, paragraphs), filt)
    except ValueError as err:
        with pytest.raises(ValueError, match=str(err)):
            corpus.apply_filter(cells, filt)
        return
    _assert_same_table(corpus.apply_filter(cells, filt), want)


def test_count_and_filter_never_build_the_unfiltered_table():
    # 1,500 sentences over a 1,500-word vocabulary, of which a lexicon keeps
    # the five words every sentence starts with: the unfiltered table is
    # 18 MB, the kept one 60 kB.
    n = V = 1500
    token_lists = [TokenList(i, (f"w{i % 5}", *(f"w{(7 * i + j) % V}" for j in range(9))))
                   for i in range(n)]
    filt = corpus.CorpusFilter(lexicon=frozenset(f"w{k}" for k in range(5)))
    bound = n * V * 8 // 4

    def traced_peak(count_and_filter):
        tracemalloc.start()
        try:
            table = count_and_filter()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.shape == (n, 5)
        return peak

    def dense_route():  # the unfiltered table made dense, then reduced to its cells
        built = corpus.count_cells(token_lists)
        dense = corpus.CellCounts.of(built.row_labels, built.col_labels, built.dense())
        return corpus.apply_filter(dense, filt)

    assert traced_peak(lambda: corpus.apply_filter(corpus.count_cells(token_lists), filt)) < bound
    # The dense route exceeds the bound, so the bound can tell them apart.
    assert traced_peak(dense_route) > bound


def test_paragraph_rows_count_in_less_memory_than_sentence_rows(poe):
    # The bundled text four times over, renumbered so that ids stay unique:
    # summing sentences into paragraphs inside count_cells must not cost
    # more than counting one row per sentence.
    records, tokens = poe["records"], poe["tokens"]
    n, paragraphs = len(records), records[-1].paragraph_id
    token_lists = [TokenList(tl.sentence_id + copy * n, tl.tokens)
                   for copy in range(4) for tl in tokens]
    paragraph_ids = [r.paragraph_id + copy * paragraphs for copy in range(4) for r in records]

    def traced_peak(row_ids):
        tracemalloc.start()
        try:
            cells = corpus.count_cells(token_lists, row_ids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return cells.shape[0], peak

    sentence_rows, sentence_peak = traced_peak(None)
    paragraph_rows, paragraph_peak = traced_peak(paragraph_ids)
    assert (sentence_rows, paragraph_rows) == (4 * n, 4 * paragraphs)
    assert paragraph_peak < sentence_peak


def test_count_cells_holds_about_one_int64_array_per_token(poe):
    # The bundled text 15 times over, 106,470 tokens in 1,845 paragraph rows,
    # as the sections_long workload counts them.  Measured: about 19 bytes
    # per token for count_cells, 53 for its np.unique form, which lists
    # every token's column and sorts a flattened copy.
    records, tokens = poe["records"], poe["tokens"]
    n, paragraphs = len(records), records[-1].paragraph_id
    token_lists = [TokenList(tl.sentence_id + copy * n, tl.tokens)
                   for copy in range(15) for tl in tokens]
    paragraph_ids = [r.paragraph_id + copy * paragraphs for copy in range(15) for r in records]
    total = sum(len(tl.tokens) for tl in token_lists)
    assert total >= 100_000

    def bytes_per_token(count):
        tracemalloc.start()
        try:
            count(token_lists, paragraph_ids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / total

    assert bytes_per_token(corpus.count_cells) < 27
    # The np.unique form exceeds the bound, so the bound can tell them apart.
    assert bytes_per_token(_unique_count_cells) > 27


def _divmod_aggregate(table, segment_ids):
    """``corpus.aggregate`` when it split every cell into a row and a column array."""
    ids, m = np.asarray(segment_ids, dtype=np.int64), len(table.col_labels)
    k = int(ids[-1])
    rows, cols = np.divmod(table.cells, m)
    counts = np.zeros(k * m, dtype=np.int64)
    np.add.at(counts, (ids[rows] - 1) * m + cols, table.counts)
    cells = np.flatnonzero(counts)
    return corpus.CellCounts(tuple(str(sid) for sid in range(1, k + 1)), table.col_labels,
                             corpus._frozen(cells), corpus._frozen(counts[cells]))


def test_aggregate_holds_about_one_int64_array_per_kept_cell(poe):
    # The bundled text 15 times over in sentence rows, filtered at 3/3/2
    # (85,785 kept cells in 4,815 rows) and cut into 16 segments.  Measured:
    # about 16.5 bytes per kept cell for aggregate, which builds one flat
    # index in place, and 27 for its divmod form.
    records, tokens = poe["records"], poe["tokens"]
    n = len(records)
    token_lists = [TokenList(tl.sentence_id + copy * n, tl.tokens)
                   for copy in range(15) for tl in tokens]
    kept = corpus.apply_filter(corpus.count_cells(token_lists), corpus.CorpusFilter(
        min_total_count=3, min_doc_count=3, min_word_length=2))
    rows = kept.shape[0]
    segment_ids = np.repeat(np.arange(1, 17), [rows // 16 + (i < rows % 16) for i in range(16)])
    assert kept.cells.size >= 80_000

    def bytes_per_cell(aggregate):
        tracemalloc.start()
        try:
            segments = aggregate(kept, segment_ids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert segments.shape == (16, kept.shape[1])
        return segments, peak / kept.cells.size

    segments, per_cell = bytes_per_cell(corpus.aggregate)
    assert per_cell < 22
    # The divmod form sums to the same cells and exceeds the bound, so the
    # bound can tell them apart.
    divmod_segments, divmod_per_cell = bytes_per_cell(_divmod_aggregate)
    _assert_same_cells(segments, divmod_segments)
    assert divmod_per_cell > 22


def test_filter_aggregate_and_table_csv_never_build_the_filtered_table(tmp_path):
    # 2,000 sentences over a 2,000-word vocabulary, ten distinct words each,
    # all kept: the filtered table is 32 MB dense, its 16 segments 256 kB.
    n = V = 2000
    token_lists = [TokenList(i, tuple(f"w{(7 * i + j) % V}" for j in range(10)))
                   for i in range(n)]
    cells = corpus.count_cells(token_lists)
    filt = corpus.CorpusFilter(min_total_count=2)
    bound = n * V * 8 // 4
    segment_ids = np.repeat(np.arange(1, 17), n // 16)

    def cells_route():
        kept = corpus.apply_filter(cells, filt)
        segments = corpus.aggregate(kept, segment_ids)
        with open(tmp_path / "table.csv", "w", encoding="utf-8") as out:
            out.writelines(corpus.table_csv_rows(kept))
        return kept.shape, segments

    def dense_route():  # the filter's dense fill, then slice sums and one string
        kept = _dense_apply_filter(cells, filt)
        segments = _aggregate_slice_sums(kept, segment_ids)
        (tmp_path / "dense.csv").write_text("".join(corpus.table_csv_rows(kept)), encoding="utf-8")
        return kept.shape, segments

    def traced_peak(route):
        tracemalloc.start()
        try:
            shape, segments = route()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert shape == (n, V)
        assert segments.shape == (16, V)
        return peak

    assert traced_peak(cells_route) < bound
    assert (tmp_path / "table.csv").read_bytes() == (
        "".join(corpus.table_csv_rows(cells)).encode())
    # The dense route exceeds the bound, so the bound can tell them apart.
    assert traced_peak(dense_route) > bound


def test_apply_filter_keeps_an_empty_label_at_minimum_length_one():
    table = corpus.CellCounts.of(("r",), ("", "a"), np.array([[1, 1]]))
    assert corpus.apply_filter(table, corpus.CorpusFilter()).col_labels == ("", "a")


# Labels that csv must quote, plus one that stays unquoted only when fields follow.
_LABEL_CHARS = st.sampled_from(["", ",", '"', "\n", "\r", " ", "é", "ß", "語", "x", "0"])
_COUNTS = st.one_of(st.integers(0, 12), st.integers(0, 10**18), st.just(10**18))


@st.composite
def labelled_arrays(draw):
    """Row labels, column labels and a dense count array."""
    labels = st.lists(st.lists(_LABEL_CHARS, max_size=3).map("".join), unique=True, max_size=5)
    rows, cols = draw(labels), draw(labels)
    cells = draw(st.lists(_COUNTS, min_size=len(rows) * len(cols),
                          max_size=len(rows) * len(cols)))
    counts = np.array(cells, dtype=np.int64).reshape(len(rows), len(cols))
    counts[:: draw(st.integers(1, 3))] *= draw(st.integers(0, 1))  # some all-zero rows
    return tuple(rows), tuple(cols), counts


@given(labelled_arrays())
@settings(max_examples=200, deadline=None)
def test_cell_counts_round_trip_a_dense_table(array):
    rows, cols, counts = array
    cells = corpus.CellCounts.of(rows, cols, counts)
    assert (np.diff(cells.cells) > 0).all() and (cells.counts > 0).all()
    assert cells.shape == counts.shape
    assert (cells.row_labels, cells.col_labels) == (rows, cols)
    assert cells.dense().dtype == np.int64
    assert np.array_equal(cells.dense(), counts)


@given(labelled_arrays())
@settings(max_examples=300, deadline=None)
def test_table_to_csv_matches_csv_writer(array):
    table = corpus.CellCounts.of(*array)
    assert "".join(corpus.table_csv_rows(table)) == _reference_table_to_csv(table)


def test_table_to_csv_edge_shapes_match_csv_writer():
    tables = [
        corpus.CellCounts.of(("", "a"), (), np.zeros((2, 0), dtype=np.int64)),
        corpus.CellCounts.of((), ("", "b"), np.zeros((0, 2), dtype=np.int64)),
        corpus.CellCounts.of(("", "r,1"), ("",), np.array([[0], [10**18]])),
        corpus.CellCounts.of(("z",), ("a", "b", "c"), np.array([[0, 100, 7]])),
        # Row boundaries: the first column alone, the last alone, an all-zero
        # row between non-zero rows, a row with no zeros, 10**18 beside zeros.
        corpus.CellCounts.of(("1", "2", "3", "4", "5"), ("a", "b", "c", "d"), np.array(
            [[3, 0, 0, 0], [0, 0, 0, 12], [0, 0, 0, 0], [1, 2, 3, 4], [0, 10**18, 0, 0]])),
    ]
    for table in tables:
        assert "".join(corpus.table_csv_rows(table)) == _reference_table_to_csv(table)
