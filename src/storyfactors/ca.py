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
from functools import cache
from types import SimpleNamespace
from typing import Iterable, Iterator, Sequence

import numpy as np

from ._formats import format_float, labelled_csv
from .corpus import CellCounts, _frozen, _held

# Relative trim per axis plus an absolute floor: singular values are at
# most 1 in CA, so anything below 1e-13 is floating-point residue (e.g.
# an exactly rank-1 table whose residuals are pure rounding noise).
_REL_TRIM = 1e-12
_ABS_TRIM = 1e-13


@dataclass(frozen=True, eq=False)  # arrays have no truth value: equal means identical
class CAModel:
    """Fitted factor space shared by the rows and columns of one table."""

    row_labels: tuple[str, ...]
    col_labels: tuple[str, ...]
    row_masses: np.ndarray  # r, sums to 1
    col_masses: np.ndarray  # c, sums to 1
    singular_values: np.ndarray  # descending, length K
    row_coords: np.ndarray  # F, n x K principal coordinates
    col_coords: np.ndarray  # G, m x K principal coordinates

    def __post_init__(self) -> None:  # tuples and read-only arrays, as in CellCounts
        for name in ("row_labels", "col_labels"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        for name in ("row_masses", "col_masses", "singular_values", "row_coords", "col_coords"):
            object.__setattr__(self, name, _held(getattr(self, name), float))

    @property
    def n_axes(self) -> int:
        return len(self.singular_values)

    @property
    def total_inertia(self) -> float:  # chi^2/total, the sum of the squared singular values
        return float(np.sum(self.singular_values**2))

    @property
    def percent(self) -> np.ndarray:  # each axis's share of the total inertia, in percent
        return 100 * self.singular_values**2 / self.total_inertia

    def side(self, name: str) -> tuple[tuple[str, ...], np.ndarray, np.ndarray]:
        """``(labels, coords, masses)`` of the ``"row"`` or ``"col"`` cloud."""
        if name == "row":
            return self.row_labels, self.row_coords, self.row_masses
        if name == "col":
            return self.col_labels, self.col_coords, self.col_masses
        raise ValueError(f"unknown side {name!r}")

    def contributions(self, side: str) -> np.ndarray:
        """Each point's share of each axis's inertia, m_i f_ik^2 / sigma_k^2;
        every column sums to 1.  Computed on each call, not held."""
        _, coords, masses = self.side(side)
        contrib = coords**2
        contrib *= masses[:, None]
        contrib /= self.singular_values**2
        return contrib


def _nonzero_margin(sums: np.ndarray, labels: tuple[str, ...], what: str) -> np.ndarray:
    """``sums``, or a ``what: 'label'`` error naming the first zero margin."""
    if (sums == 0).any():
        raise ValueError(f"{what}: {labels[int(np.argmax(sums == 0))]!r}")
    return sums


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
    row_sums = _nonzero_margin(counts.sum(axis=1), table.row_labels, "zero row")
    col_sums = _nonzero_margin(counts.sum(axis=0), table.col_labels, "zero column")
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
    threshold = max(_REL_TRIM * sigma[0], _ABS_TRIM)
    K = min(k_max, int((sigma > threshold).sum()))
    sigma = sigma[:K].copy()
    # In place below, in each formula's operation order; U and Vt go once read.
    F = U[:, :K] * sigma
    del U
    F /= np.sqrt(r)[:, None]
    G = Vt[:K].T * sigma
    del Vt
    G /= np.sqrt(c)[:, None]

    # Sign convention: per axis, the canonical-orientation column
    # coordinate of largest absolute value is positive; argmax takes the
    # earliest on ties.
    flip = G[np.argmax(np.abs(G), axis=0), np.arange(K)] < 0
    np.negative(F, out=F, where=flip)
    np.negative(G, out=G, where=flip)

    if transposed:  # hand each (masses, coords) pair back to its side
        (r, F), (c, G) = (c, G), (r, F)
    return CAModel(
        row_labels=table.row_labels,
        col_labels=table.col_labels,
        row_masses=_frozen(r),  # built here and read-only, so the model copies none of them
        col_masses=_frozen(c),
        singular_values=_frozen(sigma),
        row_coords=_frozen(F),
        col_coords=_frozen(G),
    )


def chi2_row_distance(table: CellCounts, i: int, i2: int) -> float:
    """Chi-squared distance between the profiles of rows ``i`` and ``i2``.

    d^2(i,i') = sum_j (1/c_j) (p_ij/r_i - p_i'j/r_i')^2; equals the
    Euclidean distance between full-dimensional principal coordinates.
    A zero column makes the distance undefined and is rejected, as in
    :func:`fit_ca`; so is a row index outside ``0..n-1``.
    """
    counts = table.dense()
    for idx in (i, i2):
        if not 0 <= idx < len(counts):
            raise ValueError(f"row index {idx} outside 0..{len(counts) - 1}")
        if counts[idx].sum() == 0:
            raise ValueError(f"zero-sum row: {table.row_labels[idx]!r}")
    c = _nonzero_margin(counts.sum(axis=0), table.col_labels, "zero column") / table.total
    profile_a = counts[i] / counts[i].sum()
    profile_b = counts[i2] / counts[i2].sum()
    return float(np.sqrt(np.sum((profile_a - profile_b) ** 2 / c)))


def cumulative_inertia(model: CAModel) -> np.ndarray:
    """Cumulative inertia percentages per axis; the last entry is exactly 100."""
    percent = 100.0 * np.cumsum(model.singular_values**2) / model.total_inertia
    percent[-1:] = 100.0  # no entry when there is no axis
    return percent


def top_contributors(
    model: CAModel, axes: Iterable[int], k: int, side: str = "col"
) -> list[tuple[str, float]]:
    """Top-``k`` labels by contribution summed over ``axes`` (1-based).

    Descending by summed contribution, ties broken by label order; ``k``
    must not be negative.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    axis_list = sorted(set(axes))
    if not axis_list:
        raise ValueError("no axes given")
    if axis_list[0] < 1 or axis_list[-1] > model.n_axes:
        raise ValueError(f"axes {axis_list} outside 1..{model.n_axes}")
    labels = model.side(side)[0]
    summed = model.contributions(side)[:, [a - 1 for a in axis_list]].sum(axis=1)
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
    and a profile proportional to the margin lands at the origin.  Its
    entries are counts or weights: finite and non-negative.
    """
    profile = np.asarray(profile, dtype=float)
    other = {"row": "col", "col": "row"}.get(side, side)
    _, opposite, _ = model.side(other)
    if profile.shape != (opposite.shape[0],):
        raise ValueError(f"profile length {profile.shape} does not match "
                         f"{opposite.shape[0]} {other}-side entries")
    if not ((profile >= 0) & (profile < np.inf)).all():  # NaN fails both
        raise ValueError("profile entries must be finite and non-negative")
    total = profile.sum()
    if total <= 0:
        raise ValueError("profile must have positive sum")
    return (profile / total) @ opposite / model.singular_values


def inertia_table_csv(model: CAModel) -> Iterator[str]:
    """An iterator over CSV lines, one per axis: axis, sigma, sigma^2, percent, cumulative."""
    sigma = model.singular_values
    table = np.column_stack([sigma, sigma**2, model.percent, cumulative_inertia(model)])
    return _matrix_csv(["axis", "sigma", "sigma_sq", "percent", "cumulative"],
                       [str(k) for k in range(1, model.n_axes + 1)], table)


def coordinates_csv(model: CAModel, side: str = "row") -> Iterator[str]:
    """Principal coordinates as an iterator over CSV lines: label, then one column per axis."""
    labels, coords, _ = model.side(side)
    return _matrix_csv(["label", *(f"axis_{k + 1}" for k in range(model.n_axes))], labels, coords)


def contributions_csv(model: CAModel, side: str = "row") -> Iterator[str]:
    """Contribution shares as an iterator over CSV lines: label, then one column per axis."""
    return _matrix_csv(["label", *(f"axis_{k + 1}" for k in range(model.n_axes))],
                       model.side(side)[0], model.contributions(side))


# Every CA table is written by a numpy formatter whose bytes are those of
# _formats.format_float.  A cell's text is digits[0..X] "." digits[X+1..]
# when its decimal exponent X is in -4..11, and d "." ddd "e" X otherwise,
# with the 12 significant digits rounded correctly and trailing zeros
# dropped.  A cell is decided here only when those digits provably come out
# right; format_float (CPython's dtoa) writes every other cell.  Each cell
# goes into a 24-byte slot, NUL where it has no byte:
#
#     bytes 0-6    ",", "-" if negative, "0.0.." if -4 <= X < 0 (right-justified)
#     bytes 7-19   the digits, with a "." after digit X, or after digit 0
#     bytes 20-23  "e+XX" or "e-XX" in the exponent layout
#
# and bytes.translate deletes the NUL bytes.  The NULs of a slot's end and
# the next slot's start form one run, which translate passes quickly.
_SLOT = 24  # the longest cell, ",-0.000123456789012", has 19 bytes
# s = fl(|x| * 10**(11 - X)) is one correctly rounded product of exact
# operands (10**k is exact in float64 up to k = 22), and s < 1e12 < 2**40
# has an ulp of at most 2**-13, so s is within 2**-14 of the exact product.
# Where rint(s) is nearer to s than 0.5 - 2**-14, it is the integer nearest
# to the exact product, and no tie is possible.
_TIE_MARGIN = 2.0**-14
# The writer's arrays take about 90 bytes per cell (its tracemalloc peak
# over one block).  A block of 512 KB of them, 524288 // 90 cells, stays in
# cache, and what it leaves resident stays small beside the output lines.
_BLOCK_CELLS = 5825
_U8, _U32, _U56 = np.uint64(8), np.uint64(32), np.uint64(56)


def _le(data: bytes) -> int:
    return int.from_bytes(data, "little")


@cache
def _slot_tables() -> SimpleNamespace:
    """Lookup tables by 4-digit group, by e = X + 12 and by digit layout.

    Built on first use, so that importing the package does not pay for them.
    """
    group = ("%04d" * 10000 % tuple(range(10000))).encode()
    chars = np.frombuffer(group, "<u4").astype("<u8")  # the 4 digit chars of 0..9999
    nonzero = np.frombuffer(group, np.uint8).reshape(10000, 4) != ord("0")
    # index of a group's last nonzero digit, and -128 for 0000 so it never counts
    last_digit = np.where(nonzero.any(axis=1), 3 - np.argmax(nonzero[:, ::-1], axis=1), -128)
    exponents = range(-12, 13)
    fixed = [-4 <= x < 12 for x in exponents]
    prefixes = [b"0." + b"0" * (-x - 1) if -4 <= x < 0 else b"" for x in exponents]
    # By layout c = 12 * e + last, last the index of the last nonzero digit,
    # over the 16 bytes of the digits: keep digits 0..keep (a fixed layout
    # keeps its integer digits, zero or not), move those after digit p on by
    # one byte and put a "." into the gap.  p is X, or 0 in the exponent
    # layout; p = keep, no ".", where no digit follows or "0.00" holds it.
    moves, stays, dots = [], [], []
    for x, f in zip(exponents, fixed):
        for last in range(12):
            keep, p = (max(last, x), x) if f else (last, 0)
            p = p if 0 <= p < last else keep
            moves.append(_le(b"\0" * (p + 1) + b"\xff" * (keep - p)))
            stays.append(_le(b"\xff" * (p + 1)))
            dots.append(_le(b"\0" * (p + 1) + b".") if p < keep else 0)

    def words(values: list[int]) -> tuple[np.ndarray, np.ndarray]:
        return (np.array([v & (2**64 - 1) for v in values], "<u8"),
                np.array([v >> 64 for v in values], "<u8"))

    return SimpleNamespace(
        chars=chars, last_digit=last_digit.astype(np.int8),
        # 10**(11 - X), and 0 where that is inexact: s = 0 sends the cell to format_float
        pow10=np.array([float(10**(11 - x)) if abs(x) < 12 else 0.0 for x in exponents]),
        # [25 * negative + e]: bytes 0-7 of the slot
        head=np.array([_le((sign + prefix).rjust(7, b"\0") + b"\0")
                       for sign in (b",", b",-") for prefix in prefixes], "<u8"),
        tail=np.array([0 if f else _le(b"e%+03d" % x) for x, f in zip(exponents, fixed)], "<u4"),
        stay=words(stays), move=words(moves), dot=words(dots))


def _format_block(x: np.ndarray) -> bytearray:
    """Rows of ``x`` as ``",v1,...,vK\n"`` lines, padded with NUL bytes."""
    t = _slot_tables()
    rows, K = x.shape
    width = K * _SLOT + 8
    buf = bytearray(rows * width)

    def field(offset: int, dtype: str) -> np.ndarray:  # one field of every slot
        return np.ndarray((rows, K), dtype, buf, offset, (width, _SLOT))

    np.ndarray((rows,), np.uint8, buf, K * _SLOT, (width,))[:] = ord("\n")

    a = np.abs(x)
    fast = (a >= 1e-11) & (a < 1e12)  # excludes 0, inf and nan; keeps 10**(11 - X) exact
    a = np.where(fast, a, 1.0)
    e = np.log10(a)
    e += 12
    e = e.astype(np.intp)  # e = X + 12 in 0..24; rounding may make it one off
    s = a * t.pow10[e]
    N = np.rint(s)
    # s outside [1e11, 1e12) means a wrong X; N == 1e12 is a carry into the
    # next power of ten.  format_float writes both.
    fast &= (s >= 1e11) & (N < 1e12) & (np.abs(s - N) < 0.5 - _TIE_MARGIN)
    n = np.where(fast, N, 1e11).astype(np.int64)
    del a, s, N  # temporaries go as soon as they are used: the 90 bytes a cell counts what is left

    g0 = n // 100000000  # three 4-digit groups
    n -= g0 * 100000000
    g1 = n // 10000
    g2 = n - g1 * 10000
    del n
    last_nonzero = np.maximum(np.maximum(t.last_digit[g0], t.last_digit[g1] + 4),
                              t.last_digit[g2] + 8)
    lo = t.chars[g0] | (t.chars[g1] << _U32)  # digits 0-7
    hi = t.chars[g2]  # digits 8-11
    del g0, g1, g2
    c = e * 12  # the layout, 12 * e + last_nonzero
    c += last_nonzero
    del last_nonzero

    moved = lo & t.move[0][c]
    # Each field's high bytes are NUL, and the next field overwrites them.
    field(0, "<u8")[...] = t.head[e + 25 * (x < 0)]
    field(7, "<u8")[...] = (lo & t.stay[0][c]) | (moved << _U8) | t.dot[0][c]
    field(15, "<u8")[...] = ((hi & t.stay[1][c]) | ((hi & t.move[1][c]) << _U8)
                             | (moved >> _U56) | t.dot[1][c])
    field(20, "<u4")[...] = t.tail[e]

    if not fast.all():
        row, col = np.divmod(np.flatnonzero(~fast), K)
        field(0, f"S{_SLOT}")[row, col] = [("," + format_float(v)).encode() for v in x[row, col].tolist()]
    return buf


def _bodies(matrix: np.ndarray, step: int) -> Iterator[str]:
    width = matrix.shape[1] * _SLOT + 8
    for start in range(0, len(matrix), step):
        buf = _format_block(np.asarray(matrix[start:start + step], dtype=np.float64))
        for i in range(0, len(buf), width):
            yield buf[i:i + width].translate(None, b"\0").decode("ascii")


def _matrix_csv(header: Sequence[str], labels: Sequence[str], matrix: np.ndarray) -> Iterator[str]:
    """An iterator over the CSV lines, header first: labels quoted by csv, numbers
    formatted a block of rows at a time as the lines are read."""
    step = max(1, _BLOCK_CELLS // max(matrix.shape[1], 1))
    return labelled_csv(header, labels, _bodies(matrix, step))
