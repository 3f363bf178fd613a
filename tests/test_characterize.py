"""v-test statistics: hand oracles, invariances, null behavior, CSV."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storyfactors import ca, characterize, clustering, corpus
from storyfactors.clustering import Partition
from storyfactors.corpus import CellCounts

mpmath.mp.dps = 50


def _split_partition(n, size):
    """First ``size`` docs in cluster 1, the rest in cluster 2."""
    return Partition({str(i): (1 if i < size else 2) for i in range(n)})


def test_v_test_hand_oracle():
    # values 1..6, cluster = first two: mean_q=1.5, mean=3.5, s^2=35/12,
    # scale = sqrt((4/5)(35/12)/2) = sqrt(7/6), so v = -2 sqrt(6/7).
    partition = _split_partition(6, 2)
    v, p = characterize.v_test([1, 2, 3, 4, 5, 6], partition, 1)
    assert v == pytest.approx(-2.0 * math.sqrt(6.0 / 7.0), abs=1e-14)
    expected_p = float(mpmath.erfc(2 * mpmath.sqrt(mpmath.mpf(6) / 7) / mpmath.sqrt(2)))
    assert p == pytest.approx(expected_p, rel=1e-12)


def test_p_value_accurate_deep_in_the_tail():
    # A word exclusive to a 50-of-200 cluster gives v ~ 14, p ~ 1e-45;
    # the value must match a 50-digit erfc evaluation.
    counts = np.ones((200, 2), dtype=int)
    counts[50:, 0] = 0
    table = CellCounts.of(tuple(str(i) for i in range(200)), ("w0", "w1"), counts)
    report = characterize.characterize_clusters(table, _split_partition(200, 50), 0.05)
    entry = next(e for e in report.entries if e.cluster_id == 1 and e.word == "w0")
    assert entry.p < 1e-40
    expected = float(mpmath.erfc(abs(mpmath.mpf(entry.v)) / mpmath.sqrt(2)))
    assert entry.p == pytest.approx(expected, rel=1e-12)


def test_degenerate_cases_return_zero_one():
    whole = Partition({str(i): 1 for i in range(4)})
    assert characterize.v_test([1, 2, 3, 4], whole, 1) == (0.0, 1.0)
    constant = _split_partition(4, 2)
    assert characterize.v_test([5, 5, 5, 5], constant, 1) == (0.0, 1.0)


def test_v_test_validation():
    partition = _split_partition(4, 2)
    with pytest.raises(ValueError, match="4 documents"):
        characterize.v_test([1, 2, 3], partition, 1)
    with pytest.raises(ValueError, match="empty"):
        characterize.v_test([1, 2, 3, 4], partition, 3)


# Integer values, power-of-two scales and integer shifts keep a * x + b
# exact; with arbitrary floats the map can round distinct values together
# (1 + 1e-108 == 1), and the image is then a different sample.
@given(
    st.lists(st.integers(-10**6, 10**6).map(float), min_size=5, max_size=20),
    st.integers(-3, 5).map(lambda k: 2.0 ** k),
    st.integers(-10**4, 10**4).map(float),
)
@settings(max_examples=60, deadline=None)
def test_v_is_invariant_under_positive_affine_maps(values, a, b):
    partition = _split_partition(len(values), 2)
    v0, p0 = characterize.v_test(values, partition, 1)
    v1, p1 = characterize.v_test([a * x + b for x in values], partition, 1)
    assert math.isclose(v0, v1, rel_tol=1e-6, abs_tol=1e-9)
    assert math.isclose(p0, p1, rel_tol=1e-6, abs_tol=1e-12)


def test_two_cluster_v_signs_are_opposite():
    rng = np.random.default_rng(3)
    counts = rng.integers(0, 8, size=(12, 6))
    counts[:, 0] += 1
    table = CellCounts.of(
        tuple(str(i) for i in range(12)), tuple(f"w{j}" for j in range(6)), counts
    )
    partition = _split_partition(12, 5)
    for j in range(len(table.col_labels)):
        v1, _ = characterize.v_test(table.dense()[:, j], partition, 1)
        v2, _ = characterize.v_test(table.dense()[:, j], partition, 2)
        assert v1 * v2 <= 0.0


def test_null_rate_tracks_alpha():
    rng = np.random.default_rng(123)
    partition = _split_partition(40, 10)
    hits = 0
    replicates = 400
    for _ in range(replicates):
        _v, p = characterize.v_test(rng.normal(size=40), partition, 1)
        hits += p < 0.05
    assert 0.02 <= hits / replicates <= 0.09


def test_report_sorted_and_filtered_by_alpha():
    rng = np.random.default_rng(11)
    counts = rng.integers(0, 9, size=(15, 8))
    counts[:, 0] += 1
    table = CellCounts.of(
        tuple(str(i) for i in range(15)), tuple(f"w{j}" for j in range(8)), counts
    )
    partition = _split_partition(15, 6)
    report = characterize.characterize_clusters(table, partition, alpha=0.2)
    assert all(e.p < 0.2 for e in report.entries)
    keys = [(e.cluster_id, e.p, e.word) for e in report.entries]
    assert keys == sorted(keys)
    significant = {
        (c, word)
        for c in (1, 2)
        for j, word in enumerate(table.col_labels)
        if characterize.v_test(table.dense()[:, j], partition, c)[1] < 0.2
    }
    assert {(e.cluster_id, e.word) for e in report.entries} == significant


def test_report_orders_by_v_where_p_underflows():
    # 3,000 rows in two halves.  "zeta" fills the first half only
    # (|v| ~ 54.8); "alpha" also has 200 rows of the second (|v| ~ 47.9).
    # Both are past erfc's underflow, so p reads 0 for each, and the
    # larger |v| must come first in each cluster, not the word first in
    # the alphabet.
    counts = np.zeros((3000, 2), dtype=int)
    counts[:1500] = 1
    counts[1500:1700, 0] = 1
    table = CellCounts.of(tuple(str(i) for i in range(3000)), ("alpha", "zeta"), counts)
    report = characterize.characterize_clusters(table, _split_partition(3000, 1500), 0.05)
    assert all(e.p == 0.0 and abs(e.v) > 38.6 for e in report.entries)
    assert [(e.cluster_id, e.word) for e in report.entries] == [
        (1, "zeta"), (1, "alpha"), (2, "zeta"), (2, "alpha")]


def test_characterize_validation():
    table = CellCounts.of(("0", "1"), ("w0", "w1"), np.ones((2, 2), dtype=int))
    partition = _split_partition(2, 1)
    with pytest.raises(ValueError, match="alpha"):
        characterize.characterize_clusters(table, partition, alpha=0.0)
    with pytest.raises(ValueError, match="cover"):
        characterize.characterize_clusters(
            table, Partition({"0": 1, "x": 2}), alpha=0.05
        )
    with pytest.raises(ValueError, match="cluster 2 is empty"):
        characterize.v_test([1.0, 2.0], Partition({"0": 1, "1": 1}), 2)


def test_report_csv_layout():
    entries = (
        characterize.VTestEntry(1, "letter", 7.25, 4.18e-13, 3.5, 1.25),
        characterize.VTestEntry(2, "police", 0.0, 1.0, 0.5, 0.5),
    )
    data = characterize.report_to_csv(characterize.VTestReport(entries))
    lines = data.splitlines()
    assert lines[0] == "cluster,word,v,p,cluster_mean,global_mean"
    assert lines[1] == "1,letter,7.25,4.180000e-13,3.5,1.25"
    assert lines[2] == "2,police,0,1.000000e+00,0.5,0.5"


def test_fit_and_vtest_take_the_filtered_cells(poe, stopwords):
    # fit_ca and characterize_clusters take the cells apply_filter returns,
    # with the results of the table built from its dense array first, and of
    # the CA and v-test formulas written out on that array.
    filt = corpus.CorpusFilter(min_total_count=3, min_doc_count=3, min_word_length=2,
                               stopwords=stopwords)
    table = corpus.apply_filter(poe["cells"], filt)
    model = ca.fit_ca(table)
    counts = table.dense()
    rebuilt = CellCounts.of(table.row_labels, table.col_labels, counts)
    want = ca.fit_ca(rebuilt)
    for name in ("row_masses", "col_masses", "singular_values", "row_coords", "col_coords"):
        assert np.array_equal(getattr(model, name), getattr(want, name)), name
    for side in ("row", "col"):
        assert np.array_equal(model.contributions(side), want.contributions(side)), side
    P = counts / counts.sum()
    expected = np.outer(P.sum(axis=1), P.sum(axis=0))
    sigma = np.linalg.svd((P - expected) / np.sqrt(expected), compute_uv=False)
    assert model.n_axes == 269
    assert np.allclose(model.singular_values, sigma[:model.n_axes], rtol=0, atol=1e-12)

    cloud = clustering.PointCloud(table.row_labels, model.row_coords[:, :5])
    partition = clustering.cut_k(clustering.constrained_complete_link(cloud), 4)
    report = characterize.characterize_clusters(table, partition, alpha=0.05)
    assert report == characterize.characterize_clusters(rebuilt, partition, alpha=0.05)
    assert report.entries
    for entry in report.entries:
        column = counts[:, table.col_labels.index(entry.word)]
        v, p = characterize.v_test(column, partition, entry.cluster_id)
        assert entry.v == pytest.approx(v, rel=1e-9)
        assert entry.p == pytest.approx(p, rel=1e-9)
