"""Correspondence analysis: hand oracles, algebraic identities, exports."""

import csv
import dataclasses
import io
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storyfactors import ca, plots
from storyfactors._formats import format_float, labelled_csv, write_csv
from storyfactors.clustering import PointCloud
from storyfactors.corpus import CellCounts

from conftest import random_table


def _table(counts, prefix=("r", "c")):
    counts = np.asarray(counts)
    return CellCounts.of(
        tuple(f"{prefix[0]}{i}" for i in range(counts.shape[0])),
        tuple(f"{prefix[1]}{j}" for j in range(counts.shape[1])),
        counts,
    )


def _transposed(table):
    return CellCounts.of(table.col_labels, table.row_labels, table.dense().T)


def _random_models(count, seed=7, **kwargs):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        table = random_table(rng, **kwargs)
        if (table.dense().sum(axis=1) > 0).all() and (table.column_totals() > 0).all():
            out.append((table, ca.fit_ca(table)))
    return out


def test_symmetric_two_by_two_oracle():
    # counts [[3,1],[1,3]]: total 8, margins 1/2; the residual matrix is
    # 0.25*[[1,-1],[-1,1]] with singular value 1/2, so F = G = (1/2, -1/2)
    # and total inertia = chi^2/total = 1/4.
    model = ca.fit_ca(_table([[3, 1], [1, 3]]))
    assert model.n_axes == 1
    assert model.singular_values == pytest.approx([0.5], abs=1e-14)
    assert model.total_inertia == pytest.approx(0.25, abs=1e-14)
    assert model.row_coords[:, 0] == pytest.approx([0.5, -0.5], abs=1e-14)
    assert model.col_coords[:, 0] == pytest.approx([0.5, -0.5], abs=1e-14)
    assert model.contributions("row")[:, 0] == pytest.approx([0.5, 0.5], abs=1e-14)


def test_chi2_row_distance_oracle():
    # profiles (2/3,1/3) and (1/5,4/5), c = (3/8,5/8):
    # d^2 = (8/3)(7/15)^2 + (8/5)(7/15)^2 = 3136/3375.
    table = _table([[2, 1], [1, 4]])
    assert ca.chi2_row_distance(table, 0, 1) == pytest.approx(
        np.sqrt(3136 / 3375), abs=1e-14
    )
    assert ca.chi2_row_distance(table, 0, 0) == 0.0
    with_empty = _table([[2, 1], [0, 0]])
    for i, i2 in ((0, 1), (1, 0)):
        with pytest.raises(ValueError, match="^zero-sum row: 'r1'$"):
            ca.chi2_row_distance(with_empty, i, i2)


def test_chi2_row_distance_rejects_a_row_index_outside_the_table():
    # -1 would measure the last row, as numpy indexing reads it.
    table = _table([[2, 1], [1, 4]])
    for i, i2 in ((-1, 0), (0, 2), (3, 1)):
        with pytest.raises(ValueError, match=r"^row index -?\d+ outside 0\.\.1$"):
            ca.chi2_row_distance(table, i, i2)


def test_chi2_row_distance_rejects_a_zero_column():
    # c_z = 0 would divide 0 by 0: nan and a RuntimeWarning, not a distance.
    table = CellCounts.of(("a", "b"), ("x", "y", "z"), [[4, 1, 0], [2, 3, 0]])
    with pytest.raises(ValueError, match="^zero column: 'z'$"):
        ca.chi2_row_distance(table, 0, 1)
    with pytest.raises(ValueError, match="^zero column: 'z'$"):
        ca.fit_ca(table)


def test_perfect_block_table_keeps_sigma_one():
    model = ca.fit_ca(_table([[5, 0], [0, 7]]))
    assert model.n_axes == 1
    assert model.singular_values[0] == pytest.approx(1.0, abs=1e-12)


def test_independent_table_has_no_axes():
    model = ca.fit_ca(_table([[1, 2], [2, 4]]))
    assert model.n_axes == 0
    assert model.total_inertia == 0.0
    assert ca.cumulative_inertia(model).shape == (0,)


def test_axis_count_bounded_by_table_shape():
    rng = np.random.default_rng(3)
    table = _table(rng.integers(1, 9, size=(6, 3)))
    model = ca.fit_ca(table)
    assert model.n_axes <= min(6, 3) - 1


def test_fit_rejects_degenerate_tables():
    with pytest.raises(ValueError, match="2x2"):
        ca.fit_ca(_table([[1, 2, 3]]))
    with pytest.raises(ValueError, match="zero row: 'r1'"):
        ca.fit_ca(_table([[1, 2], [0, 0], [3, 1]]))
    with pytest.raises(ValueError, match="zero column: 'c2'"):
        ca.fit_ca(_table([[1, 2, 0], [3, 1, 0]]))


def test_centering_and_axis_inertia_identities():
    for _, model in _random_models(40):
        r, c = model.row_masses, model.col_masses
        F, G = model.row_coords, model.col_coords
        sigma_sq = model.singular_values**2
        assert np.abs(r @ F).max(initial=0.0) < 1e-10
        assert np.abs(c @ G).max(initial=0.0) < 1e-10
        assert np.allclose(r @ F**2, sigma_sq, atol=1e-10)
        assert np.allclose(c @ G**2, sigma_sq, atol=1e-10)
        if model.n_axes:
            assert np.allclose(model.contributions("row").sum(axis=0), 1.0, atol=1e-10)
            assert np.allclose(model.contributions("col").sum(axis=0), 1.0, atol=1e-10)


def _profile_to_centroid_sq(table, i):
    counts = table.dense()
    c = counts.sum(axis=0) / table.total
    profile = counts[i] / counts[i].sum()
    return float(np.sum((profile - c) ** 2 / c))


def test_parseval_rows_match_profile_distances():
    tables = [t for t, _ in _random_models(10, seed=11)]
    rng = np.random.default_rng(5)
    big = rng.integers(0, 6, size=(50, 50))
    big += 1  # no zero margins
    tables.append(_table(big))
    for table in tables:
        model = ca.fit_ca(table)
        for i in range(len(table.row_labels)):
            own = float(np.sum(model.row_coords[i] ** 2))
            assert own == pytest.approx(_profile_to_centroid_sq(table, i), abs=1e-10)


def test_chi2_distance_equals_full_coordinate_distance():
    for table, model in _random_models(15, seed=23):
        F = model.row_coords
        n = len(table.row_labels)
        for i in range(n - 1):
            direct = ca.chi2_row_distance(table, i, i + 1)
            embedded = float(np.linalg.norm(F[i] - F[i + 1]))
            assert embedded == pytest.approx(direct, abs=1e-10)


def test_transpose_swaps_outputs_exactly():
    rng = np.random.default_rng(41)
    for _ in range(25):
        table = random_table(rng)
        model = ca.fit_ca(table)
        swapped = ca.fit_ca(_transposed(table))
        assert swapped.row_labels == model.col_labels
        assert swapped.col_labels == model.row_labels
        assert np.array_equal(swapped.singular_values, model.singular_values)
        assert np.array_equal(swapped.row_coords, model.col_coords)
        assert np.array_equal(swapped.col_coords, model.row_coords)
        assert np.array_equal(swapped.contributions("row"), model.contributions("col"))
        assert np.array_equal(swapped.col_masses, model.row_masses)


def test_fit_transposes_only_when_the_transpose_sorts_lower(monkeypatch):
    # The SVD sees the canonical orientation: a 2 x 3 table as it is, and
    # its 3 x 2 transpose turned back into the same 2 x 3 matrix.
    shapes = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: shapes.append(a.shape) or svd(a, **kw))
    wide = _table([[4, 1, 2], [2, 3, 1]])
    model = ca.fit_ca(wide)
    assert shapes == [(2, 3)]
    swapped = ca.fit_ca(_transposed(wide))
    assert shapes == [(2, 3), (2, 3)]
    assert np.array_equal(swapped.row_coords, model.col_coords)


def _out_of_place_fit(table):
    """``fit_ca`` as it was before S was built in place, kept as the bitwise reference:
    the model, and the row and column contributions it once held, by side."""
    counts = table.dense()
    n, m = counts.shape
    row_sums = counts.sum(axis=1)
    col_sums = counts.sum(axis=0)
    rows, cols = table.row_labels, table.col_labels
    transposed = ca._orientation_key(cols, rows) < ca._orientation_key(rows, cols)
    if transposed:
        counts, row_sums, col_sums = counts.T.copy(), col_sums, row_sums

    total = float(counts.sum())
    P = counts / total
    r = row_sums / total
    c = col_sums / total
    expected = np.outer(r, c)
    S = (P - expected) / np.sqrt(expected)
    U, sigma, Vt = np.linalg.svd(S, full_matrices=False)

    k_max = min(n - 1, m - 1)
    threshold = max(ca._REL_TRIM * (sigma[0] if len(sigma) else 0.0), ca._ABS_TRIM)
    K = min(k_max, int((sigma > threshold).sum()))
    sigma = sigma[:K].copy()
    F = U[:, :K] * sigma / np.sqrt(r)[:, None]
    G = Vt[:K].T * sigma / np.sqrt(c)[:, None]
    for k in range(K):
        anchor = int(np.argmax(np.abs(G[:, k])))
        if G[anchor, k] < 0:
            F[:, k] = -F[:, k]
            G[:, k] = -G[:, k]
    with np.errstate(divide="ignore", invalid="ignore"):
        row_contrib = r[:, None] * F**2 / sigma**2
        col_contrib = c[:, None] * G**2 / sigma**2
    if transposed:
        (r, F, row_contrib), (c, G, col_contrib) = (c, G, col_contrib), (r, F, row_contrib)
    model = ca.CAModel(table.row_labels, table.col_labels, r, c, sigma, F, G)
    return model, {"row": row_contrib, "col": col_contrib}


def _poisson_table(rng, n, m, lam):
    counts = rng.poisson(lam, size=(n, m))
    counts[counts.sum(axis=1) == 0, 0] += 1
    counts[0, counts.sum(axis=0) == 0] += 1
    return _table(counts)


def test_fit_matches_out_of_place_residuals_bitwise():
    rng = np.random.default_rng(83)
    tables = [random_table(rng) for _ in range(30)]
    tables += [_poisson_table(rng, n, m, 0.7) for n, m in ((60, 41), (41, 60), (120, 200))]
    for table in tables:
        for oriented in (table, _transposed(table)):  # each fits in both orientations
            model, (reference, contributions) = ca.fit_ca(oriented), _out_of_place_fit(oriented)
            assert model.row_labels == reference.row_labels
            assert model.total_inertia == reference.total_inertia
            for name in ("row_masses", "col_masses", "singular_values", "row_coords",
                         "col_coords"):
                assert np.array_equal(getattr(model, name), getattr(reference, name)), name
            for side in ("row", "col"):
                assert np.array_equal(model.contributions(side), contributions[side]), side


def test_contributions_are_derived_bitwise_and_not_held():
    # The model holds no contributions: each call derives m_i f_ik^2 / sigma_k^2
    # from the masses, coordinates and singular values, in the operation order
    # of the eager arrays fit_ca once stored, here on arbitrary arrays as a
    # library caller may pass them.  Fitted models, in both orientations, are
    # checked against _out_of_place_fit above.
    rng = np.random.default_rng(97)
    for _ in range(40):
        n, m, k = (int(v) for v in rng.integers(1, 9, size=3))
        arrays = [rng.random(n), rng.random(m), rng.random(k) + 0.1,
                  rng.normal(size=(n, k)), rng.normal(size=(m, k))]
        model = ca.CAModel(tuple(map(str, range(n))), tuple(map(str, range(m))), *arrays)
        assert not any("contrib" in name for name in vars(model))
        for masses, coords, side in ((arrays[0], arrays[3], "row"), (arrays[1], arrays[4], "col")):
            eager = coords**2
            eager *= masses[:, None]
            eager /= arrays[2]**2
            got = model.contributions(side)
            assert np.array_equal(got, eager), side
            assert got is not model.contributions(side) and got.flags.writeable
    with pytest.raises(ValueError, match="^unknown side 'both'$"):
        model.contributions("both")


def test_fit_peak_memory_is_one_residual_array_plus_the_svd():
    n, m = 634, 771
    table = _poisson_table(np.random.default_rng(89), n, m, 1.0)
    tracemalloc.start()
    try:
        ca.fit_ca(table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # About 3.7 n x m float arrays (measured): S beside the SVD's input
    # copy and workspace.  U and Vt kept beside F, G and the contributions
    # built out of place would measure about 6.5, and P, expected and S
    # live together before the SVD about 10.5.
    assert peak < 4.5 * n * m * 8


def test_fit_is_deterministic():
    rng = np.random.default_rng(9)
    table = random_table(rng)
    a, b = ca.fit_ca(table), ca.fit_ca(table)
    assert np.array_equal(a.row_coords, b.row_coords)
    assert np.array_equal(a.col_coords, b.col_coords)
    assert np.array_equal(a.singular_values, b.singular_values)


def test_sign_convention_anchors_largest_column_coordinate():
    for table, model in _random_models(20, seed=77):
        # The convention is fixed in the canonical orientation of the table.
        oriented = model
        rows, cols = table.row_labels, table.col_labels
        if ca._orientation_key(cols, rows) < ca._orientation_key(rows, cols):
            oriented = ca.fit_ca(_transposed(table))
        G = oriented.col_coords
        for k in range(oriented.n_axes):
            anchor = int(np.argmax(np.abs(G[:, k])))
            assert G[anchor, k] > 0


def test_supplementary_duplicate_row_lands_on_active_row():
    for table, model in _random_models(10, seed=13):
        for i in range(len(table.row_labels)):
            coords = ca.project_supplementary(model, table.dense()[i], side="row")
            assert np.allclose(coords, model.row_coords[i], atol=1e-10)


def test_supplementary_margin_profile_lands_at_origin():
    table = _table([[4, 1, 2], [2, 3, 1], [1, 1, 5]])
    model = ca.fit_ca(table)
    coords = ca.project_supplementary(model, table.column_totals(), side="row")
    assert np.abs(coords).max() < 1e-12
    # Scale invariance: projecting a doubled profile changes nothing.
    doubled = ca.project_supplementary(model, 2 * table.dense()[0], side="row")
    assert np.allclose(doubled, model.row_coords[0], atol=1e-12)


def test_supplementary_column_side_and_validation():
    table = _table([[4, 1, 2], [2, 3, 1], [1, 1, 5]])
    model = ca.fit_ca(table)
    coords = ca.project_supplementary(model, table.dense()[:, 2], side="col")
    assert np.allclose(coords, model.col_coords[2], atol=1e-10)
    with pytest.raises(ValueError, match="length"):
        ca.project_supplementary(model, [1.0, 2.0], side="row")
    with pytest.raises(ValueError, match="side"):
        ca.project_supplementary(model, [1.0, 2.0, 3.0], side="diag")
    with pytest.raises(ValueError, match="positive sum"):
        ca.project_supplementary(model, [0.0, 0.0, 0.0], side="row")



def test_supplementary_profile_entries_must_be_finite_and_non_negative():
    # NaN and inf would project to NaN; a negative entry is no count.
    model = ca.fit_ca(_table([[4, 1, 2], [2, 3, 1], [1, 1, 5]]))
    for profile in ([np.nan, 1.0, 1.0], [np.inf, 1.0, 1.0], [1.0, -np.inf, 1.0], [5.0, -1.0, 1.0]):
        with pytest.raises(ValueError, match="^profile entries must be finite and non-negative$"):
            ca.project_supplementary(model, profile, side="row")


def test_supplementary_length_error_names_the_projecting_side():
    model = ca.fit_ca(_table([[4, 1, 2], [2, 3, 1]]))  # 2 rows x 3 columns
    with pytest.raises(ValueError, match=r"length .* does not match 3 col-side entries"):
        ca.project_supplementary(model, [1.0, 2.0], side="row")
    with pytest.raises(ValueError, match=r"length .* does not match 2 row-side entries"):
        ca.project_supplementary(model, [1.0, 2.0, 3.0], side="col")

def test_cumulative_inertia_ends_at_exactly_100():
    for _, model in _random_models(10, seed=31):
        cumulative = ca.cumulative_inertia(model)
        assert cumulative.shape == (model.n_axes,)
        if model.n_axes:
            assert cumulative[-1] == 100.0
            assert (np.diff(cumulative) >= -1e-12).all()


def test_total_inertia_and_percent_are_derived_from_sigma():
    # The model holds the singular values only: the total inertia and each
    # axis's share are computed from them, in the arithmetic inertia.csv used.
    assert "total_inertia" not in {field.name for field in dataclasses.fields(ca.CAModel)}
    synthetic = _synthetic_model([[0.5], [0.5]], [[1.0]])
    for model in [synthetic, *(model for _, model in _random_models(20, seed=43))]:
        sigma = model.singular_values
        assert model.total_inertia == float(np.sum(sigma**2))
        assert np.array_equal(model.percent, 100 * sigma**2 / float(np.sum(sigma**2)))
    assert synthetic.total_inertia == 1.0 and synthetic.percent.tolist() == [100.0]
    with pytest.raises(TypeError, match="total_inertia"):
        ca.CAModel((), (), *([np.ones(0)] * 5), total_inertia=1.0)


@pytest.mark.parametrize("make", [
    lambda counts: CellCounts.of(("a", "b"), ("x", "y"), counts),
    lambda counts: ca.fit_ca(CellCounts.of(("a", "b"), ("x", "y"), counts)),
    lambda counts: PointCloud(("a", "b"), counts),
], ids=["CellCounts", "CAModel", "PointCloud"])
def test_records_holding_arrays_compare_by_identity_and_hash(make):
    # Field-wise equality would ask numpy for the truth value of an array.
    counts = np.array([[3, 1], [1, 3]])
    a, b = make(counts), make(counts)
    assert a == a and a != b
    assert hash(a) == hash(a)
    assert len({a, b, a}) == 2


_MODEL_ARRAYS = ("row_masses", "col_masses", "singular_values", "row_coords", "col_coords")


def test_ca_model_leaves_caller_arrays_writeable():
    arrays = [np.full(2, 0.5), np.full(2, 0.5), np.ones(1), np.ones((2, 1)), np.ones((2, 1))]
    model = ca.CAModel(("a", "b"), ("x", "y"), *arrays)
    for name, array in zip(_MODEL_ARRAYS, arrays):
        held = getattr(model, name)
        assert array.flags.writeable and not held.flags.writeable, name
        array[0] = 5.0
        assert held[0] != 5.0, name


def test_ca_model_takes_read_only_arrays_uncopied():
    # fit_ca hands over arrays it marked read-only, so a fit copies none of
    # them, and a model rebuilt from another's arrays shares them.
    fitted = ca.fit_ca(_table([[3, 1, 0], [1, 3, 2], [0, 2, 4]]))
    rebuilt = ca.CAModel(fitted.row_labels, fitted.col_labels,
                         *(getattr(fitted, name) for name in _MODEL_ARRAYS))
    for name in _MODEL_ARRAYS:
        assert not getattr(fitted, name).flags.writeable, name
        assert getattr(rebuilt, name) is getattr(fitted, name), name


def _synthetic_model(row_contrib, col_contrib):
    """A one-axis model whose contributions are exactly the given shares: with
    unit coordinates and singular value, m_i f_i^2 / sigma^2 is the mass m_i."""
    row_contrib = np.asarray(row_contrib, dtype=float)[:, 0]
    col_contrib = np.asarray(col_contrib, dtype=float)[:, 0]
    n, m = len(row_contrib), len(col_contrib)
    return ca.CAModel(
        row_labels=tuple(f"r{i}" for i in range(n)),
        col_labels=tuple(f"c{j}" for j in range(m)),
        row_masses=row_contrib,
        col_masses=col_contrib,
        singular_values=np.ones(1),
        row_coords=np.ones((n, 1)),
        col_coords=np.ones((m, 1)),
    )


def test_top_contributors_ranking_and_ties():
    model = _synthetic_model(
        row_contrib=[[0.2], [0.3], [0.5]],
        col_contrib=[[0.25], [0.5], [0.25]],  # exact tie between c0 and c2
    )
    assert ca.top_contributors(model, [1], k=3) == [
        ("c1", 0.5), ("c0", 0.25), ("c2", 0.25),
    ]
    assert ca.top_contributors(model, [1], k=1, side="row") == [("r2", 0.5)]
    with pytest.raises(ValueError, match="no axes"):
        ca.top_contributors(model, [], k=1)
    with pytest.raises(ValueError, match="outside"):
        ca.top_contributors(model, [2], k=1)
    with pytest.raises(ValueError, match="side"):
        ca.top_contributors(model, [1], k=1, side="both")
    # ranked[:k] with k < 0 would drop the last |k| labels
    assert ca.top_contributors(model, [1], k=0) == []
    for k in (-1, -3):
        with pytest.raises(ValueError, match=f"^k must be >= 0, got {k}$"):
            ca.top_contributors(model, [1], k=k)


def test_top_contributors_orders_by_summed_contribution():
    table = _table([[9, 1, 1, 2], [1, 8, 2, 1], [2, 1, 7, 3]])
    model = ca.fit_ca(table)
    top = ca.top_contributors(model, [1, 2], k=4)
    values = [v for _, v in top]
    assert values == sorted(values, reverse=True)
    summed = model.contributions("col")[:, :2].sum(axis=1)
    assert top[0][1] == pytest.approx(float(summed.max()))


def test_inertia_csv_layout():
    model = ca.fit_ca(_table([[9, 1, 1], [1, 8, 2], [2, 1, 7]]))
    lines = "".join(ca.inertia_table_csv(model)).splitlines()
    assert lines[0] == "axis,sigma,sigma_sq,percent,cumulative"
    assert len(lines) == 1 + model.n_axes
    assert lines[-1].endswith(",100")
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[2]) == pytest.approx(float(first[1]) ** 2, rel=1e-10)


def _per_axis_inertia_csv(model):
    """``inertia_table_csv`` as it was before the numpy writer, kept as the bitwise reference."""
    cumulative = ca.cumulative_inertia(model)
    rows = []
    for k, sigma in enumerate(model.singular_values):
        sq = sigma**2
        rows.append([k + 1, format_float(sigma), format_float(sq),
                     format_float(100.0 * sq / model.total_inertia), format_float(cumulative[k])])
    return write_csv(["axis", "sigma", "sigma_sq", "percent", "cumulative"], rows)


def test_inertia_csv_matches_per_axis_formatting(sentence_sized_model):
    rank_one = ca.fit_ca(_table([[1, 2], [2, 4]]))
    assert rank_one.n_axes == 0
    models = [model for _, model in _random_models(40, seed=41)] + [sentence_sized_model, rank_one]
    for model in models:
        assert "".join(ca.inertia_table_csv(model)) == _per_axis_inertia_csv(model)
    assert "".join(ca.inertia_table_csv(rank_one)) == "axis,sigma,sigma_sq,percent,cumulative\n"


def test_coordinate_and_contribution_csv_layout():
    model = ca.fit_ca(_table([[9, 1, 1], [1, 8, 2], [2, 1, 7]]))
    coord_lines = "".join(ca.coordinates_csv(model, side="row")).splitlines()
    expected_header = "label," + ",".join(f"axis_{k+1}" for k in range(model.n_axes))
    assert coord_lines[0] == expected_header
    assert [line.split(",")[0] for line in coord_lines[1:]] == ["r0", "r1", "r2"]
    parsed = float(coord_lines[1].split(",")[1])
    assert parsed == pytest.approx(model.row_coords[0, 0], rel=1e-11)

    contrib_lines = "".join(ca.contributions_csv(model, side="col")).splitlines()
    assert contrib_lines[0] == expected_header
    total = sum(float(line.split(",")[1]) for line in contrib_lines[1:])
    assert total == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("call", [
    pytest.param(lambda model, side: ca.coordinates_csv(model, side), id="coordinates_csv"),
    pytest.param(lambda model, side: ca.contributions_csv(model, side), id="contributions_csv"),
    pytest.param(lambda model, side: ca.top_contributors(model, [1], 2, side=side),
                 id="top_contributors"),
    pytest.param(lambda model, side: ca.project_supplementary(model, [1.0, 2.0, 3.0], side=side),
                 id="project_supplementary"),
    pytest.param(lambda model, side: plots.render_factor_plane(model, side=side, labels=["r0"]),
                 id="render_factor_plane"),
])
def test_unknown_side_is_rejected(call):
    # "rows" is neither side; it must not fall through to the column cloud.
    model = ca.fit_ca(_table([[4, 1, 2], [2, 3, 1], [1, 1, 5]]))
    with pytest.raises(ValueError, match="side"):
        call(model, "rows")


def _per_cell_matrix_csv(labels, matrix, n_axes):
    """Reference export: every cell through csv and format(v, ".12g")."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["label", *(f"axis_{k + 1}" for k in range(n_axes))])
    for label, row in zip(labels, matrix):
        writer.writerow([label, *(format(v, ".12g") for v in row)])
    return buffer.getvalue()


def test_matrix_csv_matches_per_cell_formatting():
    rng = np.random.default_rng(11)
    labels = ("plain", "", "a,b", 'say "hi"', "two\nlines", "caf\u00e9", " pad ")
    for n_axes in (0, 1, 4):
        shape = (len(labels), n_axes)
        matrix = rng.normal(size=shape) * 10.0 ** rng.integers(-20, 20, size=shape)
        if n_axes:
            matrix[0] = [np.inf, -0.0, np.nan, 1e16][:n_axes]
            matrix[1, 0] = 123456789012.5
        header = ["label", *(f"axis_{k + 1}" for k in range(n_axes))]
        assert ("".join(ca._matrix_csv(header, labels, matrix))
                == _per_cell_matrix_csv(labels, matrix, n_axes))


def _template_matrix_csv(labels, matrix, n_axes):
    """Reference export: each row through one ",%.12g" template (CPython's dtoa)."""
    template = ",%.12g" * n_axes + "\n"
    return "".join(labelled_csv(["label", *(f"axis_{k + 1}" for k in range(n_axes))], labels,
                                (template % tuple(row.tolist()) for row in matrix)))


def _assert_writes_like_dtoa(values, n_axes):
    matrix = np.asarray(values, dtype=np.float64).reshape(-1, n_axes)
    labels = tuple(f"r{i}" for i in range(len(matrix)))
    header = ["label", *(f"axis_{k + 1}" for k in range(n_axes))]
    written = "".join(ca._matrix_csv(header, labels, matrix)).split("\n")
    assert written == _template_matrix_csv(labels, matrix, n_axes).split("\n")


# Raw float64 bit patterns: every biased exponent (0 = zero and subnormals,
# 2047 = inf and nan) and, more often, those of 1e-12..1e13, where the
# numpy path decides cells.
_float_bits = st.builds(
    lambda sign, exponent, mantissa: (sign << 63) | (exponent << 52) | mantissa,
    st.integers(0, 1),
    st.one_of(st.integers(0, 2047), st.integers(1023 - 40, 1023 + 44)),
    st.one_of(st.integers(0, 2**52 - 1), st.sampled_from([0, 1, 2**51, 2**52 - 1])),
)


@given(st.lists(_float_bits, min_size=1, max_size=80), st.integers(1, 5), st.integers(1, 4))
@settings(max_examples=300, deadline=None)
def test_matrix_csv_matches_dtoa_on_raw_bit_patterns(bits, n_axes, block_rows):
    bits += [0] * (-len(bits) % n_axes)
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    with pytest.MonkeyPatch.context() as patch:  # several blocks of block_rows rows
        patch.setattr(ca, "_BLOCK_CELLS", block_rows * n_axes)
        _assert_writes_like_dtoa(values, n_axes)


def _hard_values():
    """Cells where 12-digit rounding or the %g layout is decided by a hair."""
    rng = np.random.default_rng(20)
    twelve_digit = [*rng.integers(10**11, 10**12, size=40).tolist(),
                    10**11, 10**11 + 1, 10**12 - 2, 10**12 - 1]
    exact = [float(f"{k}.5e{e}") for k in twelve_digit for e in range(-15, 6)]  # nearest to a tie
    exact += [float(f"1e{e}") for e in range(-323, 309)]
    exact += [float(f"999999999999.5e{e}") for e in range(-30, 20)]
    exact += [float(f"{m}e{e}") for m in ("9.999999999995", "9.9999999999949", "99999999999.99")
              for e in range(-20, 20)]  # round up to the next power of ten, or just not
    exact += [1e-11, 1e12, 123456789012.5, 0.0001, 1e-5]
    values = np.array(exact)
    values = np.concatenate([values, np.nextafter(values, np.inf), np.nextafter(values, -np.inf)])
    values = np.concatenate([values, -values, [0.0, -0.0, np.nan, np.inf, -np.inf]])
    return values[: len(values) // 4 * 4]


@pytest.mark.parametrize("block_rows", [None, 16], ids=["default_blocks", "16_row_blocks"])
def test_matrix_csv_matches_dtoa_on_hard_values(block_rows, monkeypatch):
    values = _hard_values()
    if block_rows is not None:
        monkeypatch.setattr(ca, "_BLOCK_CELLS", block_rows * 4)
    assert len(values) // 4 > ca._BLOCK_CELLS // 4  # more rows than a block
    _assert_writes_like_dtoa(values, 4)


@pytest.fixture(scope="module")
def sentence_sized_model():
    """A seeded CA model the size of the sentences_ward benchmark table."""
    rng = np.random.default_rng(31)
    counts = rng.poisson(0.05, size=(771, 616)) + (rng.random((771, 616)) < 0.004)
    counts[counts.sum(axis=1) == 0, 0] += 1
    counts[0, counts.sum(axis=0) == 0] += 1
    return ca.fit_ca(_table(counts))


def test_fast_path_decides_nearly_every_cell(sentence_sized_model, monkeypatch):
    model = sentence_sized_model
    template = {}
    for side in ("row", "col"):
        labels, coords, _ = model.side(side)
        template[side] = (_template_matrix_csv(labels, coords, model.n_axes),
                          _template_matrix_csv(labels, model.contributions(side), model.n_axes))
    calls = []
    monkeypatch.setattr(ca, "format_float", lambda value: calls.append(value) or format(value, ".12g"))
    for side in ("row", "col"):
        assert ("".join(ca.coordinates_csv(model, side)),
                "".join(ca.contributions_csv(model, side))) == template[side]
    cells = 2 * (model.row_coords.size + model.col_coords.size)
    # Some contributions are below 1e-11, which only CPython formats.
    assert 0 < len(calls) <= 0.01 * cells


@pytest.mark.parametrize("traced", [False, True], ids=["no_tracer", "tracer"])
def test_matrix_csv_lines_peak_at_a_block(sentence_sized_model, traced):
    # The lines are formatted a block of rows at a time as they are read, so
    # reading them one by one never holds the output, only about one block's
    # arrays and text.  Coverage tools and debuggers set a trace function,
    # which changes how CPython builds strings; the bound must hold under one
    # too.  A tracer already set (a coverage collector's) is kept.
    previous = sys.gettrace()
    if traced and previous is None:
        sys.settrace(lambda frame, event, arg: None)
    tracemalloc.start()
    try:
        size = sum(len(line) for line in ca.coordinates_csv(sentence_sized_model, "row"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        sys.settrace(previous)
    assert size > 5 * 2**20
    assert peak <= 2 * 2**20
