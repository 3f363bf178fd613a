"""Correspondence Analysis on contingency tables.

Standardized-residual SVD formulation: with correspondence matrix
P = counts/total and margins r, c, the matrix

    S_ij = (P_ij - r_i c_j) / sqrt(r_i c_j)

is decomposed as S = U diag(sigma) V'.  Principal coordinates are
F = diag(r)^{-1/2} U diag(sigma) for rows and G = diag(c)^{-1/2} V
diag(sigma) for columns; squared singular values decompose the total
inertia chi^2/total.  In this formulation the trivial constant axis has
singular value zero and is removed by the numerical-rank trim, so a
genuine sigma = 1 axis (perfectly separated block tables) is kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ._formats import labelled_csv, write_csv
from .corpus import CellCounts

# Relative trim per axis plus an absolute floor: singular values are at
# most 1 in CA, so anything below 1e-13 is floating-point residue (e.g.
# an exactly rank-1 table whose residuals are pure rounding noise).
_REL_TRIM = 1e-12
_ABS_TRIM = 1e-13


@dataclass(frozen=True)
class CAModel:
    """Fitted factor space shared by the rows and columns of one table."""

    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    row_masses: np.ndarray  # r, sums to 1
    col_masses: np.ndarray  # c, sums to 1
    singular_values: np.ndarray  # descending, length K
    row_coords: np.ndarray  # F, n x K principal coordinates
    col_coords: np.ndarray  # G, m x K principal coordinates
    row_contrib: np.ndarray  # n x K, columns sum to 1
    col_contrib: np.ndarray  # m x K, columns sum to 1
    total_inertia: float  # sum of squared singular values = chi^2/total

    def __post_init__(self) -> None:
        for name in (
            "row_masses",
            "col_masses",
            "singular_values",
            "row_coords",
            "col_coords",
            "row_contrib",
            "col_contrib",
        ):
            arr = getattr(self, name)
            arr.setflags(write=False)

    @property
    def n_axes(self) -> int:
        return len(self.singular_values)

    def side(self, name: str) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
        """``(labels, coords, contrib)`` of the ``"row"`` or ``"col"`` cloud."""
        if name == "row":
            return self.row_labels, self.row_coords, self.row_contrib
        if name == "col":
            return self.col_labels, self.col_coords, self.col_contrib
        raise ValueError(f"unknown side {name!r}")


def _orientation_key(row_labels: tuple[str, ...], col_labels: tuple[str, ...]) -> tuple:
    return (len(row_labels), len(col_labels), row_labels, col_labels)


def fit_ca(table: CellCounts) -> CAModel:
    """Fit CA on a table with at least 2 rows and columns and no zero margins.

    The factorization runs in a canonical orientation of the table (the
    transpose is factored and its sides swapped back when its shape/label
    key sorts lower), so fitting a table and fitting its transpose give
    exactly swapped row and column outputs, bit for bit.  The table's
    dense n x m array is built here.
    """
    counts = table.dense()
    n, m = counts.shape
    if n < 2 or m < 2:
        raise ValueError(f"CA needs at least a 2x2 table, got {n}x{m}")
    row_sums = counts.sum(axis=1)
    col_sums = counts.sum(axis=0)
    if (row_sums == 0).any():
        raise ValueError(f"zero row: {table.row_labels[int(np.argmax(row_sums == 0))]!r}")
    if (col_sums == 0).any():
        raise ValueError(f"zero column: {table.col_labels[int(np.argmax(col_sums == 0))]!r}")
    rows, cols = table.row_labels, table.col_labels
    transposed = _orientation_key(cols, rows) < _orientation_key(rows, cols)
    if transposed:  # the integer margins are exact, so swapping them is too
        counts, row_sums, col_sums = counts.T.copy(), col_sums, row_sums  # a C-ordered copy

    total = float(counts.sum())
    r = row_sums / total
    c = col_sums / total
    # S = (P - r c') / sqrt(r c') is built in place: each element sees the
    # operations of that formula in its order, at most two n x m arrays are
    # live, and only S when the SVD starts.
    S = counts / total
    del counts
    expected = np.outer(r, c)
    S -= expected
    S /= np.sqrt(expected, out=expected)
    del expected
    U, sigma, Vt = np.linalg.svd(S, full_matrices=False)
    del S

    k_max = min(n - 1, m - 1)
    threshold = max(_REL_TRIM * (sigma[0] if len(sigma) else 0.0), _ABS_TRIM)
    K = min(k_max, int((sigma > threshold).sum()))
    sigma = sigma[:K].copy()
    F = U[:, :K] * sigma / np.sqrt(r)[:, None]
    G = Vt[:K].T * sigma / np.sqrt(c)[:, None]

    # Sign convention: per axis, the canonical-orientation column
    # coordinate of largest absolute value is positive; argmax takes the
    # earliest on ties.
    for k in range(K):
        anchor = int(np.argmax(np.abs(G[:, k])))
        if G[anchor, k] < 0:
            F[:, k] = -F[:, k]
            G[:, k] = -G[:, k]

    with np.errstate(divide="ignore", invalid="ignore"):
        row_contrib = r[:, None] * F**2 / sigma**2
        col_contrib = c[:, None] * G**2 / sigma**2

    if transposed:  # hand each (masses, coords, contrib) triple back to its side
        (r, F, row_contrib), (c, G, col_contrib) = (c, G, col_contrib), (r, F, row_contrib)
    return CAModel(
        row_labels=table.row_labels,
        col_labels=table.col_labels,
        row_masses=r,
        col_masses=c,
        singular_values=sigma,
        row_coords=F,
        col_coords=G,
        row_contrib=row_contrib,
        col_contrib=col_contrib,
        total_inertia=float(np.sum(sigma**2)),
    )


def chi2_row_distance(table: CellCounts, i: int, i2: int) -> float:
    """Chi-squared distance between the profiles of rows ``i`` and ``i2``.

    d^2(i,i') = sum_j (1/c_j) (p_ij/r_i - p_i'j/r_i')^2; equals the
    Euclidean distance between full-dimensional principal coordinates.
    """
    counts = table.dense()
    for idx in (i, i2):
        if counts[idx].sum() == 0:
            raise ValueError(f"zero-sum row: {table.row_labels[idx]!r}")
    c = counts.sum(axis=0) / table.total
    profile_a = counts[i] / counts[i].sum()
    profile_b = counts[i2] / counts[i2].sum()
    return float(np.sqrt(np.sum((profile_a - profile_b) ** 2 / c)))


def cumulative_inertia(model: CAModel) -> np.ndarray:
    """Cumulative inertia percentages per axis; the last entry is exactly 100."""
    if model.n_axes == 0:
        return np.zeros(0)
    percent = 100.0 * np.cumsum(model.singular_values**2) / model.total_inertia
    percent[-1] = 100.0
    return percent


def top_contributors(
    model: CAModel, axes: Iterable[int], k: int, side: str = "col"
) -> list[tuple[str, float]]:
    """Top-``k`` labels by contribution summed over ``axes`` (1-based).

    Descending by summed contribution, ties broken by label order.
    """
    axis_list = sorted(set(axes))
    if not axis_list:
        raise ValueError("no axes given")
    if axis_list[0] < 1 or axis_list[-1] > model.n_axes:
        raise ValueError(f"axes {axis_list} outside 1..{model.n_axes}")
    labels, _, contrib = model.side(side)
    summed = contrib[:, [a - 1 for a in axis_list]].sum(axis=1)
    ranked = sorted(zip(labels, summed), key=lambda item: (-item[1], item[0]))
    return [(label, float(value)) for label, value in ranked[:k]]


def project_supplementary(
    model: CAModel, profile: Sequence[float] | np.ndarray, side: str = "row"
) -> np.ndarray:
    """Project a supplementary profile into the fitted factor space.

    A supplementary row is a vector over the columns (and vice versa);
    its coordinates follow the transition formula
    f_k = (1/sigma_k) sum_j (profile_j / sum(profile)) G[j,k], so a
    duplicate of an active row lands exactly on that row's coordinates
    and a profile proportional to the margin lands at the origin.
    """
    profile = np.asarray(profile, dtype=float)
    other = {"row": "col", "col": "row"}.get(side, side)
    _, opposite, _ = model.side(other)
    if profile.shape != (opposite.shape[0],):
        raise ValueError(f"profile length {profile.shape} does not match "
                         f"{opposite.shape[0]} {other}-side entries")
    total = profile.sum()
    if total <= 0:
        raise ValueError("profile must have positive sum")
    return (profile / total) @ opposite / model.singular_values


def _fmt(value: float) -> str:
    return format(value, ".12g")


def inertia_table_csv(model: CAModel) -> str:
    """One line per axis: axis, sigma, sigma^2, percent, cumulative percent."""
    cumulative = cumulative_inertia(model)
    rows = []
    for k, sigma in enumerate(model.singular_values):
        sq = sigma**2
        rows.append([k + 1, _fmt(sigma), _fmt(sq), _fmt(100.0 * sq / model.total_inertia),
                     _fmt(cumulative[k])])
    return write_csv(["axis", "sigma", "sigma_sq", "percent", "cumulative"], rows)


def coordinates_csv(model: CAModel, side: str = "row") -> str:
    """Principal coordinates as CSV: label, then one column per axis."""
    labels, coords, _ = model.side(side)
    return _matrix_csv(labels, coords, model.n_axes)


def contributions_csv(model: CAModel, side: str = "row") -> str:
    """Contribution shares as CSV: label, then one column per axis."""
    labels, _, contrib = model.side(side)
    return _matrix_csv(labels, contrib, model.n_axes)


def _matrix_csv(labels: tuple[str, ...], matrix: np.ndarray, n_axes: int) -> str:
    """Quote labels with csv; format each row of numbers with one template."""
    template = ",%.12g" * n_axes + "\n"  # bytes of format(v, ".12g"), never quoted
    return "".join(labelled_csv(["label", *(f"axis_{k + 1}" for k in range(n_axes))], labels,
                                (template % tuple(row.tolist()) for row in matrix)))
