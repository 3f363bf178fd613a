"""Agglomerative clustering of factor-space point clouds.

Two criteria: Ward minimum variance (unconstrained), whose merge height
is the inertia increase dI = (m_a m_b / (m_a + m_b)) ||c_a - c_b||^2, and
chronology-constrained complete link, where only clusters adjacent in
the sequence may merge and the height is the maximum pairwise Euclidean
distance.  Both are monotone.  Ward updates a full n x n cost matrix by
Lance-Williams and caches each row's nearest neighbour, so a merge is
O(n); its memory is that one matrix, filled in place a row at a time.
Constrained complete link keeps only the chain of intervals and
the costs between neighbours, a band of the squared distances from each
point to its next ``_BAND`` points, and one 1 MB buffer of pair
differences for wider blocks: O(n) memory.  A merge of short intervals
reads its distances from the band in plain Python.  Nodes are numbered
like scipy: leaves 0..n-1 in chronological order, merge t creates node
n+t.

One leaf order serves the cuts and the drawn tree (:func:`leaf_order`):
of a merge's two children, the one holding the earlier leaf comes first.
Every cluster of a cut is a run of that order, and cluster ids follow
each cluster's earliest leaf.
"""

from __future__ import annotations

import io
import math
import re
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Mapping

import numpy as np

from ._formats import write_csv
from .corpus import _held

_PAIR_BLOCK = 2**17  # float64 pair differences computed at once (1 MB)
_BAND = 64  # squared distances kept per point, to each of the next _BAND points
# Leaf labels in dendrogram text: the escape character and every line
# boundary of str.splitlines become \uXXXX, so each record stays on one line.
_LABEL_ESCAPES = {ord(c): f"\\u{ord(c):04x}" for c in "\\\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"}
_LABEL_ESCAPED = re.compile(r"\\u([0-9a-f]{4})")


@dataclass(frozen=True, eq=False)  # arrays have no truth value: equal means identical
class PointCloud:
    labels: tuple[str, ...]
    coords: np.ndarray  # n x d
    masses: np.ndarray | None = None  # default unit masses

    def __post_init__(self) -> None:  # tuples and read-only arrays, as in corpus.CellCounts
        labels, coords = tuple(self.labels), _held(self.coords, float)
        masses = _held(np.ones(len(labels)) if self.masses is None else self.masses, float)
        if coords.ndim != 2 or coords.shape[0] != len(labels):
            raise ValueError(f"coords shape {coords.shape} does not fit {len(labels)} labels")
        if not np.isfinite(coords).all():
            raise ValueError("coords must be finite")
        if masses.shape != (len(labels),) or not (np.isfinite(masses) & (masses > 0)).all():
            raise ValueError("masses must be finite and positive, one per point")
        for name, value in (("labels", labels), ("coords", coords), ("masses", masses)):
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.labels)

    def inertia(self) -> float:
        """Mass-weighted sum of squared distances to the centroid."""
        centroid = self.masses @ self.coords / self.masses.sum()
        return float(np.sum(self.masses * np.sum((self.coords - centroid) ** 2, axis=1)))


@dataclass(frozen=True)
class Dendrogram:
    """Merge tree: (left_node, right_node, height, new_node_size) per step."""

    merges: tuple[tuple[int, int, float, int], ...]
    criterion: str  # "ward" or "constrained_complete"
    labels: tuple[str, ...]  # leaf labels in chronological order

    def __post_init__(self) -> None:
        object.__setattr__(self, "merges", tuple(map(tuple, self.merges)))
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.merges) != self.n_leaves - 1:
            raise ValueError(f"{len(self.merges)} merges for {self.n_leaves} leaves")
        if len(set(self.labels)) != self.n_leaves:  # a cut maps each label to one cluster
            raise ValueError("leaf labels must be distinct")
        if self.criterion not in ("ward", "constrained_complete"):
            raise ValueError(f"criterion must be 'ward' or 'constrained_complete', "
                             f"got {self.criterion!r}")
        n = self.n_leaves
        sizes = [1] * (2 * n - 1)  # leaf count of every node
        seen: set[int] = set()
        for step, (left, right, height, size) in enumerate(self.merges):
            if not math.isfinite(height):
                raise ValueError(f"merge {step} has height {height}, which is not finite")
            for child in (left, right):
                if not 0 <= child < n + step:
                    raise ValueError(f"merge {step} joins node {child}, which does not exist yet")
                if child in seen:
                    raise ValueError(f"node {child} merged twice")
                seen.add(child)
            if size != sizes[left] + sizes[right]:
                raise ValueError(f"merge {step} has size {size}, its children {sizes[left] + sizes[right]}")
            sizes[n + step] = size

    @property
    def n_leaves(self) -> int:
        return len(self.labels)

    @property
    def heights(self) -> tuple[float, ...]:
        return tuple(m[2] for m in self.merges)


@dataclass(frozen=True)
class Partition:
    """Assignment label -> cluster id 1..k, ids ordered by earliest member, held as a read-only copy."""

    assignment: Mapping[str, int] = field(hash=False)  # a mapping proxy has no hash
    degenerate: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "assignment", MappingProxyType(dict(self.assignment)))
        if not (ids := set(self.assignment.values())) or ids != set(range(1, len(ids) + 1)):
            raise ValueError("cluster ids must be 1..k with k >= 1")

    @property
    def k(self) -> int:  # the largest cluster id: a cut numbers its clusters 1..k
        return max(self.assignment.values())

    def members(self, cluster_id: int) -> list[str]:
        return [label for label, cid in self.assignment.items() if cid == cluster_id]


def _pair_costs_ward(coords: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """Ward costs m_i m_j / (m_i + m_j) * ||x_i - x_j||^2 in one n x n matrix.

    Element by element the arithmetic is that of the whole-matrix formula
    (sq_i + sq_j - 2 x_i.x_j, symmetrized, clipped at 0, times the mass
    weight).  Row i's upper half reads the gemm's row i and column i, which
    no earlier row has overwritten, and goes into both.
    """
    sq = np.sum(coords**2, axis=1)
    cost = 2.0 * coords @ coords.T
    for i in range(len(sq)):
        s = sq[i] + sq[i:]
        d = (s - cost[i, i:]) + (s - cost[i:, i])  # gemm output is not bitwise symmetric
        d *= 0.5
        np.clip(d, 0.0, None, out=d)
        d *= masses[i] * masses[i:] / (masses[i] + masses[i:])
        cost[i, i:] = cost[i:, i] = d
    return cost


def ward_cluster(cloud: PointCloud) -> Dendrogram:
    """Agglomerate by minimum inertia increase; heights are the increases.

    Ties go to the leftmost row, then the leftmost column, of least cost
    among active slots (a merge keeps the lower slot, so earliest members
    win).  Rows cache their nearest active slot to the right (Muellner 2011):
    O(n^2) memory, O(n) work per merge plus one rescan per stale cache entry.
    """
    n = len(cloud)
    if n < 2:
        raise ValueError("clustering needs at least 2 points")
    cost = _pair_costs_ward(cloud.coords, cloud.masses)
    np.fill_diagonal(cost, np.inf)
    masses = cloud.masses.copy()
    # nn[i] is the leftmost j > i of least cost[i, j] and dmin[i] that cost;
    # merged-away slots have inf rows, columns and dmin, and nn = -1.
    nn = np.full(n, -1)
    dmin = np.full(n, np.inf)

    def rescan(i: int) -> None:
        j = i + 1 + int(np.argmin(cost[i, i + 1:]))
        nn[i], dmin[i] = j, cost[i, j]

    for i in range(n - 1):
        rescan(i)
    node_id = list(range(n))
    sizes = [1] * n
    merges: list[tuple[int, int, float, int]] = []

    for step in range(n - 1):
        a = int(np.argmin(dmin))
        b, best = int(nn[a]), dmin[a]
        ma, mb = masses[a], masses[b]
        merges.append((min(node_id[a], node_id[b]), max(node_id[a], node_id[b]), float(best), sizes[a] + sizes[b]))
        # Lance-Williams update for Ward costs, written into slot a: the same
        # arithmetic per active slot; retired slots and the diagonal stay inf,
        # and so does cost[a, b], which reads cost[b, b].
        cost[a] = ((ma + masses) * cost[a] + (mb + masses) * cost[b] - masses * best) / (ma + mb + masses)
        cost[:, a] = cost[a]
        cost[b] = cost[:, b] = np.inf
        stale = np.flatnonzero((nn == a) | (nn == b))
        nn[b], dmin[b] = -1, np.inf
        # Earlier rows adopt a on a lower cost, or an equal one further left.
        # Exact Ward costs never fall below dmin after a merge; rounded ones can.
        column = cost[:a, a]
        closer = (column < dmin[:a]) | ((column == dmin[:a]) & (nn[:a] > a))
        nn[:a][closer] = a
        dmin[:a][closer] = column[closer]
        for i in stale.tolist():
            rescan(i)
        masses[a] = ma + mb
        sizes[a] += sizes[b]
        node_id[a] = n + step
    return Dendrogram(merges, "ward", cloud.labels)


def _squared_distances(x: np.ndarray, y: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """Write ``np.add.reduce((x - y) ** 2, axis=-1)`` into ``out``, bit for bit.

    ``x - y`` broadcasts to ``out.shape + (d,)``.  Below 8 elements numpy's
    add.reduce sums from left to right, so the sum is built one axis at a
    time: d passes over the pairs instead of one inner loop per pair, with
    ``scratch`` holding one axis.  From 8 elements numpy sums pairwise, and
    ``scratch`` holds every squared difference for one add.reduce.
    """
    d = x.shape[-1]
    if not 0 < d < 8:
        diff = scratch[:out.size * d].reshape(out.shape + (d,))
        np.subtract(x, y, out=diff)
        diff *= diff
        np.add.reduce(diff, axis=-1, out=out)
        return
    np.subtract(x[..., 0], y[..., 0], out=out)
    out *= out
    part = scratch[:out.size].reshape(out.shape)
    for axis in range(1, d):
        np.subtract(x[..., axis], y[..., axis], out=part)
        part *= part
        out += part


def constrained_complete_link(cloud: PointCloud) -> Dendrogram:
    """Complete-link agglomeration restricted to chronologically adjacent pairs.

    The points are in chronological order, as given, and every cluster at
    every stage is an interval of that sequence.  Ties go to the leftmost
    adjacent pair.  Only neighbouring intervals are compared (Murtagh
    1985), and every point pair is measured once, when its intervals first
    touch.  Pairs at most ``_BAND`` positions apart are measured up front
    into an n x ``_BAND`` band, so a merge of short intervals costs a few
    Python operations; wider blocks are measured in row chunks of at most
    ``_PAIR_BLOCK`` pair differences (1 MB), or of one row if that is more.
    Memory is O(n) state, the band and that one buffer.
    """
    n = len(cloud)
    if n < 2:
        raise ValueError("clustering needs at least 2 points")
    coords = cloud.coords
    width = max(coords.shape[1], 1)  # buffer elements per pair, so that d = 0 sizes like d = 1
    # One row of any cross block fits, and so does the largest cross block
    # (at most n^2 / 4 pairs) when it is smaller than _PAIR_BLOCK.
    buffer = np.empty(max(min(_PAIR_BLOCK, n * n // 4 * width), n * width))
    sums = np.empty(len(buffer) // width)
    # near[i * band + k - 1] is the squared distance of points i and i + k,
    # for k = 1 .. band: point pair (i, j) sits at i * (band - 1) + j - 1.
    band = _BAND
    near = np.empty(n * band)
    grid = near.reshape(n, band)
    for k in range(1, min(band, n - 1) + 1):
        _squared_distances(coords[:-k], coords[k:], grid[:n - k, k - 1], buffer)
    flat, skip = memoryview(near), band - 1

    def farthest(i0: int, i1: int, j0: int, j1: int) -> float:
        """Largest distance between a point of [i0, i1) and one of [j0, j1).

        Each distance sums the same contiguous d-vector of squared
        differences as a whole n x n x d tensor would, and sqrt is monotone,
        so the result is bitwise the maximum of those distances.
        """
        if j1 - i0 <= band + 1:  # every pair lies in the band: one slice per row
            return math.sqrt(max(max(flat[i * skip + j0 - 1:i * skip + j1 - 1]) for i in range(i0, i1)))
        cols = j1 - j0
        rows = max(1, _PAIR_BLOCK // (cols * width))
        best = 0.0  # squared distances of finite points are never negative or NaN
        for start in range(i0, i1, rows):
            stop = min(start + rows, i1)
            square = sums[:(stop - start) * cols].reshape(stop - start, cols)
            _squared_distances(coords[start:stop, None, :], coords[None, j0:j1, :], square, buffer)
            best = max(best, square.max())
        return math.sqrt(best)

    # ``starts`` holds the first point of each active interval, left to
    # right, and ``adjacent[t]`` the cost of merging intervals t and t + 1;
    # a merge shifts the live costs after it one place left.
    # A merge of A and B compares only the pairs new to a neighbour:
    # D(L, AB) = max(D(L, A), D(L, B)) and D(AB, R) = max(D(A, R), D(B, R)).
    adjacent = np.sqrt(grid[:n - 1, 0])
    starts = list(range(n + 1))  # the final entry closes the last interval
    node_id = list(range(n))
    merges: list[tuple[int, int, float, int]] = []

    for step in range(n - 1):
        live = n - 1 - step
        t = int(adjacent[:live].argmin())  # argmin returns the leftmost tie
        a0, b0, b1 = starts[t], starts[t + 1], starts[t + 2]
        merges.append((min(node_id[t], node_id[t + 1]), max(node_id[t], node_id[t + 1]),
                       float(adjacent[t]), b1 - a0))
        if t > 0:
            adjacent[t - 1] = max(adjacent[t - 1], farthest(starts[t - 1], a0, b0, b1))
        if t + 1 < live:
            adjacent[t + 1] = max(adjacent[t + 1], farthest(a0, b0, b1, starts[t + 3]))
        adjacent[t:live - 1] = adjacent[t + 1:live]
        del starts[t + 1], node_id[t + 1]
        node_id[t] = n + step
    return Dendrogram(merges, "constrained_complete", cloud.labels)


def _subtrees(dendrogram: Dendrogram, k: int) -> list[list[int]]:
    """Leaves of the ``k`` subtrees left after the first ``n - k`` merges.

    The subtrees come in order of their earliest leaf, each with its
    leaves in the module's leaf order: one pass over the merges orders
    every node's children, and a stack walk lists each subtree.
    """
    n = dendrogram.n_leaves
    first = list(range(n)) + [0] * (n - 1)  # each node's earliest leaf
    children: list[tuple[int, int]] = []
    for step, (left, right, _height, _size) in enumerate(dendrogram.merges):
        if first[right] < first[left]:
            left, right = right, left
        children.append((left, right))
        first[n + step] = first[left]
    merged = {child for pair in children[:n - k] for child in pair}
    roots = sorted((node for node in range(2 * n - k) if node not in merged), key=first.__getitem__)
    subtrees = []
    for root in roots:
        leaves, stack = [], [root]
        while stack:
            node = stack.pop()
            if node < n:
                leaves.append(node)
            else:
                stack.extend(reversed(children[node - n]))
        subtrees.append(leaves)
    return subtrees


def leaf_order(dendrogram: Dendrogram) -> list[int]:
    """Left-to-right leaf order of the whole tree, as the module docstring defines it."""
    return _subtrees(dendrogram, 1)[0]


def cut_k(dendrogram: Dendrogram, k: int) -> Partition:
    """Partition into ``k`` clusters by undoing the last ``k - 1`` merges.

    Cluster ids follow the chronological position of each cluster's
    earliest member.
    """
    n = dendrogram.n_leaves
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    subtrees = _subtrees(dendrogram, k)
    cluster_of = {leaf: cid for cid, leaves in enumerate(subtrees, start=1) for leaf in leaves}
    return Partition({label: cluster_of[i] for i, label in enumerate(dendrogram.labels)})


def cut_max_gap(dendrogram: Dendrogram) -> Partition:
    """Cut where successive merge heights jump the most.

    k maximizes height[n-k+1] - height[n-k] over k = 2..n-1, ties taking
    the smaller k; if all heights are equal the partition is returned at
    k = 2 with the ``degenerate`` flag set.
    """
    n = dendrogram.n_leaves
    if n < 3:
        raise ValueError("max-gap cut needs at least 3 leaves")
    heights = dendrogram.heights
    best_k, best_gap = 2, -np.inf
    for k in range(2, n):
        gap = heights[n - k] - heights[n - k - 1]
        if gap > best_gap:
            best_k, best_gap = k, gap
    if best_gap == 0.0:
        return replace(cut_k(dendrogram, 2), degenerate=True)
    return cut_k(dendrogram, best_k)


def dendrogram_to_text(dendrogram: Dendrogram) -> str:
    """Replayable text form: header, leaf list (labels escaped), then one merge per line."""
    out = io.StringIO()
    out.write(f"criterion {dendrogram.criterion}\n")
    out.write(f"leaves {dendrogram.n_leaves}\n")
    for i, label in enumerate(dendrogram.labels):
        out.write(f"leaf {i} {label.translate(_LABEL_ESCAPES)}\n")
    for left, right, height, size in dendrogram.merges:
        out.write(f"merge {left} {right} {height!r} {size}\n")
    return out.getvalue()


def _fields(line: str, *types: type) -> tuple:
    """The fields after a record's kind, converted by ``types``; an error quotes the line."""
    try:
        return tuple(convert(field) for convert, field in zip(types, line.split()[1:], strict=True))
    except ValueError:
        raise ValueError(f"malformed record: {line!r}") from None


def dendrogram_from_text(text: str) -> Dendrogram:
    """Parse :func:`dendrogram_to_text` output; exact round-trip."""
    header: dict[str, str | int] = {}  # the criterion and leaves records
    labels: list[str] = []
    merges: list[tuple[int, int, float, int]] = []
    for line in text.splitlines():
        kind, _, rest = line.partition(" ")
        if kind in ("criterion", "leaves"):
            if kind in header:
                raise ValueError(f"second {kind} line: {line!r}")
            header[kind] = _fields(line, int)[0] if kind == "leaves" else rest
        elif kind == "leaf":
            index, _, label = rest.partition(" ")
            if index != str(len(labels)):
                raise ValueError(f"expected leaf {len(labels)}, got {line!r}")
            labels.append(_LABEL_ESCAPED.sub(lambda m: chr(int(m[1], 16)), label))
        elif kind == "merge":
            merges.append(_fields(line, int, int, float, int))
        elif line.strip():
            raise ValueError(f"unrecognized dendrogram line: {line!r}")
    if header.get("leaves") != len(labels):
        raise ValueError(f"leaves record {header.get('leaves', 'missing')} for {len(labels)} leaf records")
    return Dendrogram(merges, header.get("criterion", ""), labels)


def partition_to_csv(partition: Partition) -> str:
    """CSV ``label,cluster`` in assignment (chronological) order, labels quoted by csv."""
    return write_csv(["label", "cluster"], partition.assignment.items())
