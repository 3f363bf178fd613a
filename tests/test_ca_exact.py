"""CA against its mathematics: a 30-digit reference, Benzécri's invariances,
and the inertia numbers the artifacts of both bundled configs read from the fit.

Accuracy is measured per axis k against relgap_k, the distance from sigma_k
to its nearest neighbour in the table's whole spectrum (the trimmed zero
axes included), divided by sigma_1.  An axis's coordinate error is the
largest |difference| on that axis, with the sign matched, divided by the
largest |value| there.
"""

import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from storyfactors import ca, clustering, pipeline
from storyfactors._formats import format_float, read_csv
from storyfactors.corpus import CellCounts

from conftest import DATA
from test_ca import _table

EPS = np.finfo(float).eps
BUNDLED = ("sections.cfg", "nouns.cfg")


@pytest.fixture(scope="module")
def bundled(tmp_path_factory):
    """The parsed config and the full run of each bundled config, by file name."""
    root = tmp_path_factory.mktemp("bundled")
    runs = {}
    for name in BUNDLED:
        config = pipeline.parse_config(DATA / "configs" / name)
        runs[name] = config, pipeline.run_pipeline(config, out_dir=root / name)
    return runs


# -- the inertia numbers every artifact reads ---------------------------------

@pytest.mark.parametrize("name", BUNDLED)
def test_percent_is_inertia_csv_column_and_both_axis_labels(bundled, name):
    _, result = bundled[name]
    model = result.model
    assert model.total_inertia == float(np.sum(model.singular_values**2))
    header, rows = read_csv(result.files["inertia"].read_text(encoding="utf-8"))
    column = [row[header.index("percent")] for _, row in rows]
    assert column == [format_float(p) for p in model.percent.tolist()]
    planes = [key for key in ("plane_rows", "plane_cols") if key in result.files]
    assert planes == (["plane_rows", "plane_cols"] if name == "sections.cfg" else ["plane_cols"])
    for key in planes:
        svg = result.files[key].read_text(encoding="utf-8")
        labels = re.findall(r">factor (\d+) \(([0-9.]+)%\)<", svg)
        assert labels == [(str(k), f"{model.percent[k - 1]:.1f}") for k in (1, 2)], key


# -- a 30-digit reference ------------------------------------------------------

def _reference(counts, n_axes, dps=30):
    """The whole spectrum sigma, descending, and F, G on the first ``n_axes`` axes.

    S is built from the integer counts at ``dps`` digits, and mpmath's
    eigsy factors the Gram matrix of its smaller side; the other side's
    singular vectors follow as S' u / sigma.
    """
    n, m = counts.shape
    N = int(counts.sum())
    R, C = [int(v) for v in counts.sum(axis=1)], [int(v) for v in counts.sum(axis=0)]
    with mpmath.workdps(dps):
        S = mpmath.matrix([[mpmath.mpf(int(counts[i, j]) * N - R[i] * C[j])
                            / (N * mpmath.sqrt(R[i] * C[j])) for j in range(m)]
                           for i in range(n)])
        small, margins = (S, (R, C)) if n <= m else (S.T, (C, R))
        E, Q = mpmath.eigsy(small * small.T)
        order = sorted(range(len(E)), key=lambda k: -E[k])
        sigma = [mpmath.sqrt(max(E[k], 0)) for k in order]
        Q = mpmath.matrix([[Q[i, k] for k in order[:n_axes]] for i in range(Q.rows)])
        U = Q * mpmath.diag(sigma[:n_axes])  # sigma u, and S' u = sigma v below
        V = small.T * Q
        coords = [np.array([[float(M[i, k] / mpmath.sqrt(mpmath.mpf(margin[i]) / N))
                             for k in range(n_axes)] for i in range(M.rows)]).reshape(-1, n_axes)
                  for M, margin in zip((U, V), margins)]
        sigma = np.array([float(s) for s in sigma])
    F, G = coords if n <= m else coords[::-1]
    return sigma, F, G


def _relgaps(sigma, n_axes):
    spectrum = np.append(sigma, 0.0)  # the trivial axis has sigma 0 in this formulation
    return np.array([np.delete(np.abs(spectrum - spectrum[k]), k).min() / sigma[0]
                     for k in range(n_axes)])


def _coordinate_errors(pairs, n_axes):
    """Per axis, the worst relative error over ``(got, reference)`` coordinate
    pairs, with one sign per axis matched to the reference."""
    errors = np.zeros(n_axes)
    for k in range(n_axes):
        sign = np.sign(sum(got[:, k] @ ref[:, k] for got, ref in pairs)) or 1.0
        errors[k] = max(np.abs(got[:, k] - sign * ref[:, k]).max() / np.abs(ref[:, k]).max()
                        for got, ref in pairs)
    return errors


def _near_repeated_counts(rng):
    """A 20 x 30 table of two equal diagonal blocks, one count across them:
    the blocks' singular values come in nearly equal pairs."""
    block = rng.poisson(2.0, size=(10, 15))
    block[block.sum(axis=1) == 0, 0] += 1
    block[0, block.sum(axis=0) == 0] += 1
    counts = np.zeros((20, 30), dtype=np.int64)
    counts[:10, :15] = counts[10:, 15:] = block
    counts[0, 20] += 1
    return counts


@pytest.fixture(scope="module")
def references(bundled):
    """(name, fitted model, reference sigma, F, G) per reference table."""
    tables = {
        "sections.cfg": bundled["sections.cfg"][1].table,
        "poisson 20x30": _table(np.random.default_rng(5).poisson(2.0, size=(20, 30))),
        "near-repeated sigma 20x30": _table(_near_repeated_counts(np.random.default_rng(6))),
    }
    cases = []
    for name, table in tables.items():
        model = ca.fit_ca(table)
        cases.append((name, model, *_reference(table.dense(), model.n_axes)))
    return cases


def _reference_ratios(model, sigma, F, G):
    """Per axis: coordinate error / (eps / relgap_k), and sigma error / (eps sigma_1)."""
    K = model.n_axes
    coords = _coordinate_errors([(model.row_coords, F), (model.col_coords, G)], K)
    return (coords / (EPS / _relgaps(sigma, K)),
            np.abs(model.singular_values - sigma[:K]) / (EPS * sigma[0]))


def test_fit_is_within_100_eps_over_relgap_of_the_reference(references):
    for name, model, sigma, F, G in references:
        assert model.n_axes == int((sigma > 1e-10 * sigma[0]).sum()), name
        coords, sigmas = _reference_ratios(model, sigma, F, G)
        assert coords.max() <= 100, (name, coords.round(2))
        assert sigmas.max() <= 100, (name, sigmas.round(2))
    near = _relgaps(references[-1][2], references[-1][1].n_axes)
    assert near.min() < 1e-3  # the case has the near-repeated sigma it is named for


def test_reference_check_fails_on_a_perturbed_axis(references):
    # Negative control: shifting one axis's row coordinates by
    # 1e3 eps / relgap_k of its largest value breaks the bound on that axis.
    for name, model, sigma, F, G in references:
        relgaps = _relgaps(sigma, model.n_axes)
        for k in range(model.n_axes):
            row_coords = model.row_coords.copy()
            row_coords[:, k] += 1e3 * EPS / relgaps[k] * np.abs(row_coords[:, k]).max()
            perturbed = ca.CAModel(model.row_labels, model.col_labels, model.row_masses,
                                   model.col_masses, model.singular_values, row_coords,
                                   model.col_coords)
            assert _reference_ratios(perturbed, sigma, F, G)[0][k] > 100, (name, k)


# -- Benzécri's invariances ----------------------------------------------------

def _merges(model, labels, n_axes):
    coords = model.row_coords[:, :n_axes]
    ward = clustering.ward_cluster(clustering.PointCloud(labels, coords, masses=model.row_masses))
    constrained = clustering.constrained_complete_link(clustering.PointCloud(labels, coords))
    return ward.merges, constrained.merges


@pytest.mark.parametrize("name", BUNDLED)
def test_scaled_counts_give_the_same_fit_and_merges_bitwise(bundled, name):
    # Every P_ij = n_ij / N is the same correctly rounded quotient of 3 n_ij / 3 N.
    config, result = bundled[name]
    table, model = result.table, result.model
    scaled = ca.fit_ca(CellCounts(table.row_labels, table.col_labels, table.cells,
                                  table.counts * 3))
    for field in ("singular_values", "row_coords", "col_coords", "row_masses", "col_masses"):
        assert np.array_equal(getattr(scaled, field), getattr(model, field)), field
    n_axes = min(config.axes or model.n_axes, model.n_axes)
    assert _merges(scaled, table.row_labels, n_axes) == _merges(model, table.row_labels, n_axes)


def _split_column(counts, j, a, b, moved=0):
    """Column ``j`` as the two columns a n_j and b n_j, every other column
    times a + b: a table distributionally equivalent to ``counts``.  With
    ``moved``, that many counts of the first new column move from its
    largest row to its smallest non-zero one, and the two are not."""
    first, second = a * counts[:, j], b * counts[:, j]
    if moved:
        rows = np.flatnonzero(first)
        big = rows[np.argmax(first[rows])]
        rows = rows[rows != big]
        small = rows[np.argmin(first[rows])]
        first, second = first.copy(), second.copy()
        first[big], second[big] = first[big] + moved, second[big] - moved
        first[small], second[small] = first[small] - moved, second[small] + moved
    rest = counts * (a + b)
    return np.column_stack([rest[:, :j], first, second, rest[:, j + 1:]])


def _equivalence_ratio(counts, split, transposed):
    """The split table's row coordinates' worst axis error against the
    original's, over 100 eps / min relgap_k; infinite when K differs.  With
    ``transposed``, both tables are transposed and the columns compared."""
    if transposed:
        counts, split = counts.T, split.T
    side = "col" if transposed else "row"
    before, after = ca.fit_ca(_table(counts)), ca.fit_ca(_table(split))
    K = before.n_axes
    if after.n_axes != K:
        return np.inf
    if K == 0:
        return 0.0
    bound = 100 * EPS / _relgaps(before.singular_values, K).min()
    errors = _coordinate_errors([(after.side(side)[1], before.side(side)[1])], K)
    return errors.max() / bound


@st.composite
def _split_cases(draw):
    n, m = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    counts = np.array(draw(st.lists(st.lists(st.integers(0, 9), min_size=m, max_size=m),
                                    min_size=n, max_size=n)), dtype=np.int64)
    counts[counts.sum(axis=1) == 0, 0] += 1
    counts[0, counts.sum(axis=0) == 0] += 1
    return (counts, draw(st.integers(0, m - 1)), draw(st.integers(1, 4)),
            draw(st.integers(1, 4)), draw(st.booleans()))


@given(_split_cases())
@settings(max_examples=150, deadline=None)
def test_proportional_split_leaves_the_other_side_in_place(case):
    # Distributional equivalence: a column split into two proportional
    # columns moves no row, and with the table transposed, a row split
    # into two proportional rows moves no column.
    counts, j, a, b, transposed = case
    assert _equivalence_ratio(counts, _split_column(counts, j, a, b), transposed) <= 1


@pytest.mark.parametrize("transposed", [False, True], ids=["column", "row"])
def test_split_of_sections_most_frequent_word(bundled, transposed):
    # On sections.cfg's table, splitting its most frequent word into two
    # equal columns keeps the sections in place; moving one count between
    # the two new columns (negative control) does not.
    counts = bundled["sections.cfg"][1].table.dense()
    j = int(np.argmax(counts.sum(axis=0)))
    for moved, holds in ((0, True), (1, False)):
        ratio = _equivalence_ratio(counts, _split_column(counts, j, 1, 1, moved), transposed)
        assert (ratio <= 1) == holds, (moved, ratio)


@pytest.mark.parametrize("transposed", [False, True], ids=["column", "row"])
def test_equivalence_check_fails_on_a_split_that_is_not_proportional(transposed):
    # Negative control on small tables: one count moved between the two
    # new columns breaks the bound or changes K.
    rng = np.random.default_rng(17)
    for _ in range(30):
        counts = rng.integers(1, 9, size=(int(rng.integers(3, 7)), int(rng.integers(3, 7))))
        j = int(rng.integers(counts.shape[1]))
        assert _equivalence_ratio(counts, _split_column(counts, j, 1, 2, moved=1), transposed) > 1


# -- another LAPACK driver -----------------------------------------------------

def _driver_ratios(model, reference):
    """Per CA matrix, each axis's largest |difference| from ``reference`` over
    its largest |value| there, in units of eps / relgap_k.  No sign is matched:
    the fit's sign convention must hold under any driver."""
    assert model.n_axes == reference.n_axes
    unit = EPS / _relgaps(reference.singular_values, reference.n_axes)
    pairs = {"row_coords": (model.row_coords, reference.row_coords),
             "col_coords": (model.col_coords, reference.col_coords),
             "row_contrib": (model.contributions("row"), reference.contributions("row")),
             "col_contrib": (model.contributions("col"), reference.contributions("col"))}
    return {name: np.abs(got - ref).max(axis=0) / np.abs(ref).max(axis=0) / unit
            for name, (got, ref) in pairs.items()}


@pytest.mark.parametrize("name", BUNDLED)
def test_another_lapack_driver_stays_within_the_gap_bound(bundled, name, tmp_path, monkeypatch):
    # scipy's gesvd in place of numpy's SVD (gesdd): every CA matrix stays
    # within 1000 eps / relgap_k per axis, and the artifacts written before
    # fit_ca, the partition and the v-test keep their bytes.
    linalg = pytest.importorskip("scipy.linalg")
    config, numpy_run = bundled[name]
    before_ca = pipeline.run_pipeline(config, out_dir=tmp_path / "before_ca", upto="aggregate").files
    calls = []

    def gesvd(a, full_matrices=True):
        calls.append(a.shape)
        return linalg.svd(a, full_matrices=full_matrices, lapack_driver="gesvd")

    monkeypatch.setattr(ca.np.linalg, "svd", gesvd)
    gesvd_run = pipeline.run_pipeline(config, out_dir=tmp_path / "gesvd")
    assert len(calls) == 1
    for matrix, ratios in _driver_ratios(gesvd_run.model, numpy_run.model).items():
        assert ratios.max() <= 1000, (matrix, ratios.round(2))
    for key in [*before_ca, "partition", "vtest"]:
        assert gesvd_run.files[key].read_bytes() == numpy_run.files[key].read_bytes(), key


def _with_axes(model, order, signs):
    """``model`` with its coordinate columns taken in ``order`` and times ``signs``."""
    return ca.CAModel(model.row_labels, model.col_labels, model.row_masses, model.col_masses,
                      model.singular_values, model.row_coords[:, order] * signs,
                      model.col_coords[:, order] * signs)


@pytest.mark.parametrize("name", BUNDLED)
def test_driver_check_fails_on_a_flipped_axis_and_on_swapped_axes(bundled, name):
    model = bundled[name][1].model
    K = model.n_axes
    assert all(ratios.max() == 0 for ratios in _driver_ratios(model, model).values())
    for k in range(K):
        signs = np.ones(K)
        signs[k] = -1.0
        ratios = _driver_ratios(_with_axes(model, np.arange(K), signs), model)
        assert min(ratios["row_coords"][k], ratios["col_coords"][k]) > 1000, k
    swapped = np.arange(K)
    swapped[:2] = (1, 0)
    for matrix, ratios in _driver_ratios(_with_axes(model, swapped, np.ones(K)), model).items():
        assert ratios[:2].min() > 1000, matrix
