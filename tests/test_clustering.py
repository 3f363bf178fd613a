"""Hierarchical clustering: oracles, brute-force cross-checks, cuts."""

import csv
import dataclasses
import io
import sys
import tracemalloc

import numpy as np
import pytest

from storyfactors import clustering
from storyfactors.characterize import VTestReport
from storyfactors.clustering import Dendrogram, Partition, PointCloud

from conftest import random_cloud_arrays


def _cloud(xs, masses=None, dim1=True):
    coords = np.asarray(xs, dtype=float)
    if dim1:
        coords = coords[:, None]
    labels = tuple(f"p{i}" for i in range(len(coords)))
    return PointCloud(labels, coords, None if masses is None else np.asarray(masses, float))


def test_point_cloud_inertia_oracle():
    cloud = PointCloud(("a", "b"), np.array([[0.0, 0.0], [2.0, 0.0]]))
    assert cloud.inertia() == pytest.approx(2.0, abs=1e-15)
    weighted = PointCloud(("a", "b"), np.array([[0.0], [3.0]]), np.array([1.0, 2.0]))
    # centroid at 2.0: 1*(2)^2 + 2*(1)^2 = 6
    assert weighted.inertia() == pytest.approx(6.0, abs=1e-12)


def test_point_cloud_validation():
    with pytest.raises(ValueError, match="coords shape"):
        PointCloud(("a", "b"), np.zeros((3, 2)))
    with pytest.raises(ValueError, match="masses"):
        PointCloud(("a", "b"), np.zeros((2, 2)), np.array([1.0, 0.0]))


def test_point_cloud_rejects_non_finite_values():
    for bad in (np.nan, np.inf, -np.inf):
        coords = np.zeros((2, 2))
        coords[1, 0] = bad
        with pytest.raises(ValueError, match="coords must be finite"):
            PointCloud(("a", "b"), coords)
        with pytest.raises(ValueError, match="masses must be finite and positive"):
            PointCloud(("a", "b"), np.zeros((2, 2)), np.array([1.0, bad]))


def test_point_cloud_leaves_caller_arrays_writeable():
    coords, masses = np.zeros((3, 2)), np.ones(3)
    cloud = PointCloud(("a", "b", "c"), coords, masses)
    assert coords.flags.writeable and masses.flags.writeable
    assert not cloud.coords.flags.writeable and not cloud.masses.flags.writeable
    coords[0, 0] = masses[0] = 5.0
    assert cloud.coords[0, 0] == 0.0 and cloud.masses[0] == 1.0


def test_two_point_ward_height():
    # dI = (1*1/2) * |0-2|^2 = 2
    dendrogram = clustering.ward_cluster(_cloud([0.0, 2.0]))
    assert dendrogram.merges == ((0, 1, 2.0, 2),)
    assert dendrogram.criterion == "ward"


def test_ward_tie_breaks_to_earliest_pair():
    dendrogram = clustering.ward_cluster(_cloud([0.0, 1.0, 10.0, 11.0]))
    assert dendrogram.merges[0][:2] == (0, 1)
    assert dendrogram.merges[1][:2] == (2, 3)
    assert dendrogram.merges[2][:2] == (4, 5)


def test_ward_heights_sum_to_cloud_inertia():
    rng = np.random.default_rng(2)
    for _ in range(10):
        labels, coords = random_cloud_arrays(rng, int(rng.integers(2, 15)))
        masses = rng.uniform(0.2, 2.0, size=len(labels))
        for cloud in (PointCloud(labels, coords), PointCloud(labels, coords, masses)):
            dendrogram = clustering.ward_cluster(cloud)
            assert sum(dendrogram.heights) == pytest.approx(cloud.inertia(), abs=1e-9)


def test_constrained_collinear_oracle():
    dendrogram = clustering.constrained_complete_link(_cloud([0.0, 1.0, 2.0]))
    assert dendrogram.merges == ((0, 1, 1.0, 2), (2, 3, 2.0, 3))
    assert dendrogram.criterion == "constrained_complete"


def test_constrained_merges_closest_adjacent_pair_first():
    dendrogram = clustering.constrained_complete_link(_cloud([0.0, 10.0, 11.0]))
    assert dendrogram.merges == ((1, 2, 1.0, 2), (0, 3, 11.0, 3))


def test_minimum_cloud_size():
    single = PointCloud(("a",), np.zeros((1, 2)))
    with pytest.raises(ValueError, match="at least 2"):
        clustering.ward_cluster(single)
    with pytest.raises(ValueError, match="at least 2"):
        clustering.constrained_complete_link(single)


def _brute_ward(coords, masses):
    n = len(coords)
    clusters = [[i] for i in range(n)]
    ids = list(range(n))
    merges = []
    for step in range(n - 1):
        best = None
        for p in range(len(clusters)):
            for q in range(p + 1, len(clusters)):
                A, B = clusters[p], clusters[q]
                ma, mb = masses[A].sum(), masses[B].sum()
                ca = masses[A] @ coords[A] / ma
                cb = masses[B] @ coords[B] / mb
                delta = ma * mb / (ma + mb) * float(np.sum((ca - cb) ** 2))
                key = tuple(sorted((min(A), min(B))))
                if best is None or (delta, key) < best[:2]:
                    best = (delta, key, p, q)
        delta, _, p, q = best
        merges.append(
            (min(ids[p], ids[q]), max(ids[p], ids[q]), delta, len(clusters[p]) + len(clusters[q]))
        )
        clusters[p] = clusters[p] + clusters[q]
        ids[p] = n + step
        del clusters[q], ids[q]
    return merges


def _brute_constrained(coords):
    n = len(coords)
    d = np.sqrt(((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2))
    clusters = [[i] for i in range(n)]
    ids = list(range(n))
    merges = []
    for step in range(n - 1):
        costs = [
            max(d[a, b] for a in clusters[t] for b in clusters[t + 1])
            for t in range(len(clusters) - 1)
        ]
        t = costs.index(min(costs))
        merges.append(
            (min(ids[t], ids[t + 1]), max(ids[t], ids[t + 1]), costs[t],
             len(clusters[t]) + len(clusters[t + 1]))
        )
        clusters[t] = clusters[t] + clusters[t + 1]
        ids[t] = n + step
        del clusters[t + 1], ids[t + 1]
    return merges


def test_ward_matches_brute_force_agglomeration():
    rng = np.random.default_rng(17)
    for _ in range(12):
        n = int(rng.integers(3, 13))
        labels, coords = random_cloud_arrays(rng, n)
        masses = rng.uniform(0.2, 2.0, size=n)
        dendrogram = clustering.ward_cluster(PointCloud(labels, coords, masses))
        expected = _brute_ward(coords, masses)
        for got, want in zip(dendrogram.merges, expected):
            assert got[:2] == want[:2]
            assert got[3] == want[3]
            assert got[2] == pytest.approx(want[2], rel=1e-9, abs=1e-12)


def test_constrained_matches_brute_force_exactly():
    rng = np.random.default_rng(29)
    for trial in range(12):
        n = int(rng.integers(3, 13))
        labels, coords = random_cloud_arrays(rng, n, duplicates=trial % 2 == 0)
        dendrogram = clustering.constrained_complete_link(PointCloud(labels, coords))
        assert list(dendrogram.merges) == _brute_constrained(coords)


def _full_tensor_constrained(coords):
    """Constrained complete link over the whole n x n x d difference tensor.

    Kept as the bitwise reference for the row-blocked distance fill and the
    array of adjacent costs.
    """
    n = len(coords)
    diff = coords[:, None, :] - coords[None, :, :]
    cost = np.sqrt(np.sum(diff**2, axis=2))
    np.fill_diagonal(cost, np.inf)
    chain = list(range(n))
    node_id = list(range(n))
    sizes = [1] * n
    merges = []
    for step in range(n - 1):
        adjacent = [(chain[t], chain[t + 1]) for t in range(len(chain) - 1)]
        costs = np.array([cost[a, b] for a, b in adjacent])
        t = int(np.argmin(costs))
        a, b = adjacent[t]
        merges.append((min(node_id[a], node_id[b]), max(node_id[a], node_id[b]),
                       float(costs[t]), sizes[a] + sizes[b]))
        others = [s for s in chain if s not in (a, b)]
        if others:
            cost[a, others] = np.maximum(cost[a, others], cost[b, others])
            cost[others, a] = cost[a, others]
        chain.pop(t + 1)
        sizes[a] += sizes[b]
        node_id[a] = n + step
    return merges


def test_constrained_matches_full_tensor_across_row_blocks():
    n, d = 300, 100
    assert -(-n // (clustering._PAIR_BLOCK // (n * d))) >= 3
    rng = np.random.default_rng(41)
    gaussian = rng.normal(size=(n, d))
    gaussian[1] = gaussian[0]
    gaussian[150:160] = gaussian[149]
    tied = rng.integers(0, 2, size=(n, d)).astype(float)  # many equal distances
    tied[200:] = tied[:100]
    for coords in (gaussian, tied):
        labels = tuple(f"p{i}" for i in range(n))
        dendrogram = clustering.constrained_complete_link(PointCloud(labels, coords))
        assert list(dendrogram.merges) == _full_tensor_constrained(coords)


def test_constrained_memory_is_bounded_by_one_row_block():
    rng = np.random.default_rng(43)
    cloud = PointCloud(tuple(f"p{i}" for i in range(400)), rng.normal(size=(400, 380)))
    tracemalloc.start()
    try:
        clustering.constrained_complete_link(cloud)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One 1 MiB block of differences, its row sums and the 0.2 MB band of
    # near pairs (about 1.6 MB measured); the n x n x d tensor (490 MB)
    # would exceed this.
    assert peak < 50e6


_MATRIX_ROW_BLOCK = 2**22


def _matrix_constrained(cloud):
    """Constrained complete link over the full n x n cost matrix.

    The algorithm before the interval chain, kept verbatim (its row block
    renamed, its ``order`` option dropped) as the bitwise reference for
    merges and heights.
    """
    n = len(cloud)
    if n < 2:
        raise ValueError("clustering needs at least 2 points")
    coords = cloud.coords

    # Distances in row blocks of at most _PAIR_BLOCK differences (or one row);
    # each sums the same contiguous vector as an n x n x d tensor, bit for bit.
    cost = np.empty((n, n))
    rows = max(1, _MATRIX_ROW_BLOCK // max(n * coords.shape[1], 1))
    for start in range(0, n, rows):
        diff = coords[start:start + rows, None, :] - coords[None, :, :]
        diff *= diff
        cost[start:start + rows] = np.sqrt(np.sum(diff, axis=2))
        del diff  # freed before the next block is allocated
    # ``chain`` holds the active clusters left to right as slot indices and
    # ``adjacent[t]`` the cost of merging chain[t] with chain[t + 1].
    chain = list(range(n))
    adjacent = cost[chain[:-1], chain[1:]]
    node_id = list(range(n))
    sizes = [1] * n
    merges: list[tuple[int, int, float, int]] = []

    for step in range(n - 1):
        t = int(np.argmin(adjacent))  # argmin returns the leftmost tie
        a, b = chain[t], chain[t + 1]
        merges.append((min(node_id[a], node_id[b]), max(node_id[a], node_id[b]), float(adjacent[t]), sizes[a] + sizes[b]))
        np.maximum(cost[a], cost[b], out=cost[a])
        cost[:, a] = cost[a]  # slots merged away go stale and are never read
        del chain[t + 1]
        adjacent = np.delete(adjacent, t)
        if t > 0:
            adjacent[t - 1] = cost[a, chain[t - 1]]
        if t < len(adjacent):
            adjacent[t] = cost[a, chain[t + 1]]
        sizes[a] += sizes[b]
        node_id[a] = n + step
    return Dendrogram(tuple(merges), "constrained_complete", cloud.labels)


@pytest.mark.parametrize("block, band", [(64, 64), (1, 64), (64, 1), (2**17, 2)],
                         ids=["64", "1", "64-band1", "band2"])
def test_constrained_matches_cost_matrix_bitwise(monkeypatch, block, band):
    # Small blocks split most cross blocks into several row chunks (64) or
    # single rows (1); the default block covers the whole-block case.  The
    # band of near pairs holds every pair of the shorter sequences (64),
    # only neighbours (1) or pairs at most two apart (2).
    monkeypatch.setattr(clustering, "_PAIR_BLOCK", block)
    monkeypatch.setattr(clustering, "_BAND", band)
    rng = np.random.default_rng(71 + block)
    # Around the band's edge and past it, with d on both sides of the 8
    # elements where numpy's add.reduce turns from a left-to-right sum to
    # a pairwise one; then random sizes.
    edges = [(n, d, kind) for n in (band - 1, band, band + 1, 2 * band + 1, 300) if n >= 2
             for d in (7, 8) for kind in range(4)]
    randoms = [(int(rng.integers(2, 91)), int(rng.integers(0, 13)), trial % 4) for trial in range(160)]
    for trial, (n, d, kind) in enumerate(edges + randoms):
        if kind == 0:
            coords = rng.normal(size=(n, d))
        elif kind in (1, 2):  # 0/1 and 0/1/2 grids: many equal distances
            coords = rng.integers(0, kind + 1, size=(n, d)).astype(float)
        else:  # the second half repeats the first: zero distances
            coords = rng.normal(size=(n, d))
            coords[n - n // 2:] = coords[:n // 2]
        perm = np.arange(n) if trial % 3 else rng.permutation(n)  # some shuffled sequences
        cloud = PointCloud(tuple(f"p{i}" for i in perm), coords[perm])
        got = clustering.constrained_complete_link(cloud)
        assert got == _matrix_constrained(cloud)


def test_add_reduce_sums_fewer_than_eight_elements_left_to_right():
    # Constrained link builds squared distances of d < 8 axes one axis at a
    # time and relies on this order to match np.add.reduce bit for bit.
    rng = np.random.default_rng(83)
    for d in range(1, 8):
        scaled = rng.random((4000, d)) * 10.0 ** rng.integers(-8, 9, size=(4000, d))
        tied = rng.integers(0, 3, size=(4000, d)) / 3.0
        for values in (scaled, tied, scaled.reshape(40, 100, d)):
            left_to_right = values[..., 0].copy()
            for axis in range(1, d):
                left_to_right += values[..., axis]
            assert np.array_equal(np.add.reduce(values, axis=-1), left_to_right), (
                f"np.add.reduce no longer sums {d} contiguous elements from left to right; "
                "clustering._squared_distances must add axes the way it does")


def test_constrained_matches_cost_matrix_at_scale():
    rng = np.random.default_rng(73)
    for n, d in ((1267, 5), (393, 380)):
        cloud = PointCloud(tuple(f"p{i}" for i in range(n)), rng.normal(size=(n, d)))
        assert clustering.constrained_complete_link(cloud) == _matrix_constrained(cloud)


def test_constrained_memory_is_linear_in_points():
    n = 4000
    rng = np.random.default_rng(79)
    cloud = PointCloud(tuple(f"p{i}" for i in range(n)), rng.normal(size=(n, 5)))
    tracemalloc.start()
    try:
        clustering.constrained_complete_link(cloud)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The 1 MiB difference buffer, its 0.2 MB of row sums and the 2 MB band
    # of near pairs (about 4.7 MB measured); an n x n cost matrix alone is
    # 128 MB.
    assert peak < 32e6


def test_constrained_peak_memory_is_one_small_block():
    rng = np.random.default_rng(73)
    for n, d in ((1267, 5), (393, 380)):
        cloud = PointCloud(tuple(f"p{i}" for i in range(n)), rng.normal(size=(n, d)))
        tracemalloc.start()
        try:
            clustering.constrained_complete_link(cloud)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 2.2 and 1.6 MB measured, the band of near pairs included; an 8 MiB
        # block would add 7-9 MB to each.
        assert peak < 4e6, (n, d)


def _cubic_ward(coords, masses):
    """Ward over the masked n x n cost matrix, rescanned at every merge.

    Kept as the bitwise reference for the nearest-neighbour cache: the
    same Lance-Williams arithmetic, with ties going to the pair whose
    earliest members come first.
    """
    n = len(coords)
    cost = clustering._pair_costs_ward(coords, masses)
    np.fill_diagonal(cost, np.inf)
    masses = masses.copy()
    active = np.ones(n, dtype=bool)
    node_id = list(range(n))
    first = list(range(n))
    sizes = [1] * n
    merges = []
    for step in range(n - 1):
        masked = np.where(active[:, None] & active[None, :], cost, np.inf)
        best = masked.min()
        ii, jj = np.nonzero(masked == best)
        best_key = None
        for a_, b_ in zip(ii.tolist(), jj.tolist()):
            a_, b_ = (a_, b_) if a_ < b_ else (b_, a_)
            key = (first[a_], first[b_]) if first[a_] < first[b_] else (first[b_], first[a_])
            if best_key is None or key < best_key:
                pair, best_key = (a_, b_), key
        a, b = pair
        ma, mb = masses[a], masses[b]
        merges.append((min(node_id[a], node_id[b]), max(node_id[a], node_id[b]),
                       float(best), sizes[a] + sizes[b]))
        other = active.copy()
        other[[a, b]] = False
        mo = masses[other]
        cost[a, other] = (
            (ma + mo) * cost[a, other] + (mb + mo) * cost[b, other] - mo * best
        ) / (ma + mb + mo)
        cost[other, a] = cost[a, other]
        active[b] = False
        masses[a] = ma + mb
        sizes[a] += sizes[b]
        first[a] = min(first[a], first[b])
        node_id[a] = n + step
    return merges


def _near_tie_tetrahedron(seed):
    """Four almost equidistant points of almost equal mass, moved at random.

    Two distances and the masses are off by a few ulps, so merging the
    closest pair can leave an earlier point's least cost tied with, or
    just above, its new cost to the merged cluster.
    """
    rng = np.random.default_rng(seed)
    s = np.sqrt(0.5) * (1 - int(rng.integers(0, 16)) * 2.0**-53)
    coords = np.array([[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0.5, 0.5, 1, s, 0], [0.5, 0.5, 1, -s, 0]])
    coords[1] = coords[0] + (coords[1] - coords[0]) * (1 - int(rng.integers(0, 16)) * 2.0**-53)
    rotation, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    coords = coords @ rotation * rng.uniform(0.1, 10) + rng.normal(size=5)
    return coords, rng.choice([1.0, 1 + 2.0**-52, 1 - 2.0**-53], size=4)


def test_ward_matches_cubic_loop_bitwise():
    rng = np.random.default_rng(53)
    clouds = []
    for trial in range(300):
        n, d = int(rng.integers(2, 121)), int(rng.integers(1, 9))
        kind = trial % 3
        if kind == 0:
            coords = rng.normal(size=(n, d))
        elif kind == 1:  # small-integer grid: many equal costs
            coords = rng.integers(0, 2 + trial % 2, size=(n, d)).astype(float)
        else:  # the second half repeats the first: zero-cost pairs
            coords = rng.normal(size=(n, d))
            coords[n - n // 2:] = coords[:n // 2]
        clouds.append((coords, np.ones(n) if trial % 2 else rng.uniform(0.2, 2.0, size=n)))
    # Seeds where rounding sends an earlier row's cached neighbour to the
    # merged slot, by a tie (2112) or a lower cost (547), found by search
    # with OpenBLAS 0.3.31 (another gemm may round them otherwise); the
    # random clouds above never do.
    clouds += [_near_tie_tetrahedron(seed) for seed in (547, 2112)]
    for coords, masses in clouds:
        labels = tuple(f"p{i}" for i in range(len(coords)))
        dendrogram = clustering.ward_cluster(PointCloud(labels, coords, masses))
        assert list(dendrogram.merges) == _cubic_ward(coords, masses)


def _whole_matrix_pair_costs_ward(coords, masses):
    """The whole-matrix expression the in-place version replaced, kept as the oracle."""
    sq = np.sum(coords**2, axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * coords @ coords.T
    d2 = (d2 + d2.T) * 0.5
    np.clip(d2, 0.0, None, out=d2)
    weight = masses[:, None] * masses[None, :] / (masses[:, None] + masses[None, :])
    return weight * d2


def test_pair_costs_ward_match_whole_matrix_formula_bitwise():
    rng = np.random.default_rng(61)
    for trial in range(120):
        n, d = int(rng.integers(1, 150)), int(rng.integers(1, 9))
        coords = rng.normal(size=(n, d)) * rng.uniform(1e-3, 1e3)
        if trial % 3 == 2:  # duplicates give exact zeros and negative rounding
            coords[n // 2:] = coords[:n - n // 2]
        masses = np.ones(n) if trial % 2 else rng.uniform(0.2, 2.0, size=n)
        assert np.array_equal(clustering._pair_costs_ward(coords, masses),
                              _whole_matrix_pair_costs_ward(coords, masses))
    # Fixed shapes: one point, one pair, and Ward on many axes (d = 40).
    for n in (1, 2, 60):
        for d in (0, 8, 40):
            coords = rng.normal(size=(n, d))
            for duplicated in (False, True):
                if duplicated:
                    coords[n // 2:] = coords[:n - n // 2]
                masses = rng.uniform(0.2, 2.0, size=n)
                assert np.array_equal(clustering._pair_costs_ward(coords, masses),
                                      _whole_matrix_pair_costs_ward(coords, masses))


def test_pair_costs_ward_memory_is_one_cost_matrix():
    n = 1000
    rng = np.random.default_rng(67)
    coords, masses = rng.normal(size=(n, 5)), rng.uniform(0.2, 2.0, size=n)
    tracemalloc.start()
    try:
        clustering._pair_costs_ward(coords, masses)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The result alone, filled a row at a time (1.006 measured); one more
    # n x n buffer would pass 1.25.
    assert peak < 1.25 * n * n * 8


def test_ward_memory_is_bounded_by_the_cost_matrix():
    n = 1000
    rng = np.random.default_rng(59)
    cloud = PointCloud(tuple(f"p{i}" for i in range(n)), rng.normal(size=(n, 5)),
                       rng.uniform(0.2, 2.0, size=n))
    tracemalloc.start()
    try:
        clustering.ward_cluster(cloud)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # The cost matrix sets the peak at about 1.05 cost matrices; one more
    # n x n copy would pass 1.5.
    assert peak < 1.5 * n * n * 8


def test_ward_agrees_with_scipy_linkage():
    hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
    rng = np.random.default_rng(47)
    for _ in range(50):
        n = int(rng.integers(3, 40))
        labels, coords = random_cloud_arrays(rng, n, dim=int(rng.integers(1, 6)))
        dendrogram = clustering.ward_cluster(PointCloud(labels, coords))
        linkage = hierarchy.linkage(coords, "ward")
        # With unit masses scipy's Ward distance is sqrt(2 dI).
        np.testing.assert_allclose(
            np.sort(np.sqrt(2.0 * np.array(dendrogram.heights))),
            np.sort(linkage[:, 2]), rtol=1e-9)
        for k in range(1, n + 1):
            ours = clustering.cut_k(dendrogram, k).assignment
            theirs = hierarchy.fcluster(linkage, k, "maxclust")
            assert _blocks(ours[label] for label in labels) == _blocks(theirs)


def test_ward_agrees_with_scipy_linkage_at_scale():
    hierarchy = pytest.importorskip("scipy.cluster.hierarchy")
    rng = np.random.default_rng(61)
    labels, coords = random_cloud_arrays(rng, 1500, dim=5)
    dendrogram = clustering.ward_cluster(PointCloud(labels, coords))
    linkage = hierarchy.linkage(coords, "ward")
    np.testing.assert_allclose(
        np.sort(np.sqrt(2.0 * np.array(dendrogram.heights))),
        np.sort(linkage[:, 2]), rtol=1e-9)
    for k in (2, 5, 11, 50):
        ours = clustering.cut_k(dendrogram, k).assignment
        theirs = hierarchy.fcluster(linkage, k, "maxclust")
        assert _blocks(ours[label] for label in labels) == _blocks(theirs)


def _blocks(ids):
    groups = {}
    for position, cid in enumerate(ids):
        groups.setdefault(cid, set()).add(position)
    return {frozenset(group) for group in groups.values()}


def test_heights_are_monotone_for_both_criteria():
    rng = np.random.default_rng(5)
    for trial in range(10):
        n = int(rng.integers(4, 20))
        labels, coords = random_cloud_arrays(rng, n, duplicates=trial % 3 == 0)
        for build in (clustering.ward_cluster, clustering.constrained_complete_link):
            heights = build(PointCloud(labels, coords)).heights
            assert all(b >= a - 1e-12 for a, b in zip(heights, heights[1:]))


def test_node_numbering_and_sizes():
    rng = np.random.default_rng(8)
    labels, coords = random_cloud_arrays(rng, 9)
    dendrogram = clustering.ward_cluster(PointCloud(labels, coords))
    assert dendrogram.merges[-1][3] == 9
    used = [child for left, right, _, _ in dendrogram.merges for child in (left, right)]
    assert len(used) == len(set(used))
    assert all(0 <= node < 9 + len(dendrogram.merges) for node in used)


def test_constrained_cuts_are_contiguous_for_every_k():
    rng = np.random.default_rng(14)
    labels, coords = random_cloud_arrays(rng, 11)
    dendrogram = clustering.constrained_complete_link(PointCloud(labels, coords))
    for k in range(1, 12):
        partition = clustering.cut_k(dendrogram, k)
        ids = [partition.assignment[label] for label in dendrogram.labels]
        assert ids == sorted(ids)
        assert set(ids) == set(range(1, k + 1))


def test_ward_cut_ids_follow_earliest_member():
    rng = np.random.default_rng(21)
    labels, coords = random_cloud_arrays(rng, 10)
    dendrogram = clustering.ward_cluster(PointCloud(labels, coords))
    for k in (2, 3, 5):
        partition = clustering.cut_k(dendrogram, k)
        ids = [partition.assignment[label] for label in dendrogram.labels]
        firsts = [ids.index(cid) for cid in range(1, k + 1)]
        assert firsts == sorted(firsts)


def test_cut_k_validates_range():
    dendrogram = clustering.ward_cluster(_cloud([0.0, 1.0, 5.0]))
    with pytest.raises(ValueError, match="k must be"):
        clustering.cut_k(dendrogram, 0)
    with pytest.raises(ValueError, match="k must be"):
        clustering.cut_k(dendrogram, 4)


def _synthetic_dendrogram(heights):
    n = len(heights) + 1
    merges = [(0, 1, heights[0], 2)]
    for step in range(1, n - 1):
        merges.append((n + step - 1, step + 1, heights[step], step + 2))
    return Dendrogram(tuple(merges), "ward", tuple(f"p{i}" for i in range(n)))


def test_cut_max_gap_picks_largest_jump():
    dendrogram = _synthetic_dendrogram([1.0, 1.1, 9.0])
    partition = clustering.cut_max_gap(dendrogram)
    assert partition.k == 2
    assert not partition.degenerate
    assert [partition.assignment[f"p{i}"] for i in range(4)] == [1, 1, 1, 2]


def test_cut_max_gap_tie_takes_smaller_k():
    partition = clustering.cut_max_gap(_synthetic_dendrogram([1.0, 2.0, 3.0]))
    assert partition.k == 2


def test_cut_max_gap_flat_heights_degenerate():
    partition = clustering.cut_max_gap(_synthetic_dendrogram([2.0, 2.0, 2.0]))
    assert partition.k == 2
    assert partition.degenerate
    with pytest.raises(ValueError, match="at least 3"):
        clustering.cut_max_gap(_synthetic_dendrogram([1.0]))


def _components_oracle(dendrogram, n_merges):
    """Leaf lists of the forest after the first ``n_merges`` merges, concatenated at
    every merge and sorted by earliest leaf: the quadratic reference for ``cut_k``."""
    n = dendrogram.n_leaves
    nodes = {i: [i] for i in range(n)}
    for step in range(n_merges):
        left, right, _height, _size = dendrogram.merges[step]
        nodes[n + step] = nodes.pop(left) + nodes.pop(right)
    return sorted(nodes.values(), key=min)


def _cut_k_oracle(dendrogram, k):
    n = dendrogram.n_leaves
    cluster_of = {}
    for cid, component in enumerate(_components_oracle(dendrogram, n - k), start=1):
        for leaf in component:
            cluster_of[leaf] = cid
    return Partition({dendrogram.labels[i]: cluster_of[i] for i in range(n)})


def _leaf_order_oracle(dendrogram):
    """A second walk of the tree, with its own children map: the reference for ``leaf_order``."""
    n = dendrogram.n_leaves
    children = {}
    first = list(range(n)) + [0] * (n - 1)
    for step, (left, right, _, _) in enumerate(dendrogram.merges):
        node = n + step
        a, b = sorted((left, right), key=lambda c: first[c])
        children[node] = (a, b)
        first[node] = first[a]
    order = []
    stack = [2 * n - 2] if n > 1 else [0]
    while stack:
        node = stack.pop()
        if node < n:
            order.append(node)
        else:
            a, b = children[node]
            stack.append(b)
            stack.append(a)
    return order


def _random_trees(seed, trials):
    """Ward and constrained trees of random clouds, some with duplicated points or
    all-tied coordinates, each also with its merges' children in random order."""
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        n = int(rng.integers(1, 26))
        labels, coords = random_cloud_arrays(rng, n, duplicates=trial % 2 == 0)
        if trial % 5 == 4:
            coords = rng.integers(0, 2, size=(n, 1)).astype(float)
        if n == 1:
            yield Dendrogram((), "ward", labels)
            continue
        for build in (clustering.ward_cluster, clustering.constrained_complete_link):
            tree = build(PointCloud(labels, coords))
            yield tree
            swapped = tuple((right, left, h, size) if rng.random() < 0.5 else (left, right, h, size)
                            for left, right, h, size in tree.merges)
            yield Dendrogram(swapped, tree.criterion, labels)


def test_cut_k_and_leaf_order_match_the_leaf_list_oracles():
    for tree in _random_trees(seed=61, trials=60):
        n = tree.n_leaves
        order = clustering.leaf_order(tree)
        assert order == _leaf_order_oracle(tree)
        for k in range(1, n + 1):
            partition = clustering.cut_k(tree, k)
            expected = _cut_k_oracle(tree, k)
            assert partition == expected
            assert list(partition.assignment.items()) == list(expected.assignment.items())
            # every cluster is one run of the leaf order
            ids = [partition.assignment[tree.labels[leaf]] for leaf in order]
            assert sum(a != b for a, b in zip(ids, ids[1:])) == k - 1


def _right_chain(n):
    """Leaf n - 2 joins leaf n - 1, then each earlier leaf joins the subtree made last."""
    merges = [(n - 2, n - 1, 1.0, 2)]
    for step in range(1, n - 1):
        merges.append((n - 2 - step, n + step - 1, 1.0 + step, step + 2))
    return Dendrogram(tuple(merges), "ward", tuple(f"p{i}" for i in range(n)))


def test_cut_and_leaf_order_walk_a_chain_deeper_than_the_recursion_limit():
    n = 20_000
    assert n > sys.getrecursionlimit()
    left = _synthetic_dendrogram([1.0 + step for step in range(n - 1)])
    right = _right_chain(n)
    for tree, second_cluster in ((left, [n - 1]), (right, range(1, n))):
        assert clustering.leaf_order(tree) == list(range(n))
        partition = clustering.cut_k(tree, 2)
        ids = [partition.assignment[f"p{i}"] for i in range(n)]
        assert [i for i, cid in enumerate(ids) if cid == 2] == list(second_cluster)


def test_point_cloud_holds_its_labels_as_a_tuple():
    labels = ["a", "b", "c"]
    cloud = PointCloud(labels, np.zeros((3, 1)))
    labels.append("z")
    assert cloud.labels == ("a", "b", "c") and len(cloud) == 3


def test_point_cloud_takes_a_read_only_view_of_read_only_coordinates_uncopied():
    # What the pipeline hands over: the first axes of a fitted model's
    # read-only coordinates, so clustering copies no coordinate.
    coords = np.arange(12.0).reshape(4, 3).copy()  # owns its data, as fit_ca's arrays do
    coords.setflags(write=False)
    cloud = PointCloud(("a", "b", "c", "d"), coords[:, :2], masses=coords[:, 0] + 1)
    assert cloud.coords.base is coords and not cloud.coords.flags.writeable


def test_dendrogram_holds_tuples_and_hashes():
    labels, merges = ["a", "b", "c"], [[0, 1, 1.0, 2], [2, 3, 2.0, 3]]
    tree = Dendrogram(merges, "ward", labels)
    labels[0], merges[0][2] = "z", 9.0
    merges.append([4, 4, 0.0, 6])
    assert tree.labels == ("a", "b", "c")
    assert tree.merges == ((0, 1, 1.0, 2), (2, 3, 2.0, 3))
    assert hash(tree) == hash(Dendrogram(tree.merges, "ward", tree.labels))
    built = clustering.ward_cluster(PointCloud(["a", "b", "c"], np.array([[0.0], [1.0], [5.0]])))
    assert isinstance(hash(built), int) and built.labels == ("a", "b", "c")


def test_partition_ids_must_be_one_to_k():
    for assignment in ({"a": 1, "b": 3}, {"a": 2}, {"a": 0, "b": 1}, {}):
        with pytest.raises(ValueError, match=r"^cluster ids must be 1\.\.k with k >= 1$"):
            Partition(assignment)
    assert Partition({"a": 2, "b": 1, "c": 2}).k == 2


def test_partition_members():
    partition = Partition({"a": 1, "b": 2, "c": 1})
    assert partition.members(1) == ["a", "c"]
    assert partition.members(2) == ["b"]


def test_partition_holds_a_read_only_copy_of_its_assignment():
    given = {"a": 1, "b": 2}
    partition = Partition(given)
    given["a"] = 7
    with pytest.raises(TypeError):
        partition.assignment["b"] = 7
    assert dict(partition.assignment) == {"a": 1, "b": 2}
    assert partition.members(7) == [] and partition.k == 2
    assert dict(dataclasses.replace(partition, degenerate=True).assignment) == {"a": 1, "b": 2}


def test_equal_partitions_hash_equal():
    a, b = Partition({"a": 1, "b": 2}), Partition({"a": 1, "b": 2})
    assert a == b and hash(a) == hash(b)
    assert a != Partition({"a": 1, "b": 1}) and a != Partition({"a": 1, "b": 2}, degenerate=True)
    assert len({a, b, Partition({"a": 1, "b": 1})}) == 2


def test_partition_k_is_its_largest_cluster_id():
    assert Partition({"a": 1, "b": 3, "c": 2}).k == 3
    assert Partition({"a": 1, "b": 1}).k == 1
    tree = clustering.ward_cluster(_cloud([0.0, 1.0, 5.0, 9.0]))
    for k in range(1, 5):
        assert clustering.cut_k(tree, k).k == k


def test_records_hold_no_field_another_derives():
    assert [f.name for f in dataclasses.fields(Partition)] == ["assignment", "degenerate"]
    assert [f.name for f in dataclasses.fields(Dendrogram)] == ["merges", "criterion", "labels"]
    assert [f.name for f in dataclasses.fields(VTestReport)] == ["entries"]
    assert Dendrogram((), "ward", ("a",)).n_leaves == 1
    assert clustering.ward_cluster(_cloud([0.0, 1.0, 5.0])).n_leaves == 3


def test_dendrogram_reader_checks_the_leaves_record_against_the_leaf_records():
    leaves = "leaf 0 a\nleaf 1 b\nmerge 0 1 1.0 2\n"
    for head, message in [("criterion ward\n", "leaves record missing for 2 leaf records"),
                          ("criterion ward\nleaves 3\n", "leaves record 3 for 2 leaf records"),
                          ("criterion ward\nleaves 1\n", "leaves record 1 for 2 leaf records")]:
        with pytest.raises(ValueError) as info:
            clustering.dendrogram_from_text(head + leaves)
        assert str(info.value) == message
    assert clustering.dendrogram_from_text("criterion ward\nleaves 2\n" + leaves).n_leaves == 2


def test_dendrogram_validation():
    with pytest.raises(ValueError, match="merges"):
        Dendrogram((), "ward", ("a", "b", "c"))
    with pytest.raises(ValueError, match="merged twice"):
        Dendrogram(((0, 1, 1.0, 2), (0, 2, 2.0, 3)), "ward", ("a", "b", "c"))
    with pytest.raises(ValueError, match="^1 merges for 1 leaves$"):
        Dendrogram(((0, 1, 1.0, 2),), "ward", ("a",))
    tree = "criterion ward\nleaves 2\nleaf 0 a\nleaf 1 b\nmerge 0 1 1.0 2\n"
    for text, message in [
        (tree.replace("leaf 0 a\nleaf 1 b", "leaf 1 a\nleaf 0 b"), "expected leaf 0, got 'leaf 1 a'"),
        (tree.replace("leaf 1 b", "leaf 0 b"), "expected leaf 1, got 'leaf 0 b'"),
        (tree.replace("leaf 1 b", "leaf 2 b"), "expected leaf 1, got 'leaf 2 b'"),
        (tree + "criterion constrained_complete\n",
         "second criterion line: 'criterion constrained_complete'"),
        (tree.replace("leaves 2\n", "leaves 2\nleaves 2\n"), "second leaves line: 'leaves 2'"),
        (tree.replace("leaves 2", "leaves x"), "malformed record: 'leaves x'"),
        (tree.replace("merge 0 1 1.0 2", "merge 0 1 1.0"), "malformed record: 'merge 0 1 1.0'"),
        (tree.replace("merge 0 1 1.0 2", "merge 0 1 1.0 2 9"),
         "malformed record: 'merge 0 1 1.0 2 9'"),
        (tree.replace("merge 0 1 1.0 2", "merge 0 1 x 2"), "malformed record: 'merge 0 1 x 2'"),
    ]:
        with pytest.raises(ValueError) as info:
            clustering.dendrogram_from_text(text)
        assert str(info.value) == message
    assert clustering.dendrogram_from_text(tree).labels == ("a", "b")


def test_dendrogram_rejects_unknown_criterion_and_heights_that_are_not_finite():
    with pytest.raises(ValueError, match="criterion must be 'ward' or 'constrained_complete', got ''"):
        clustering.dendrogram_from_text("leaves 2\nleaf 0 a\nleaf 1 b\nmerge 0 1 nan 2\n")
    for height in ("nan", "inf", "-inf"):
        with pytest.raises(ValueError, match=f"merge 0 has height {height}, which is not finite"):
            clustering.dendrogram_from_text(
                f"criterion ward\nleaves 2\nleaf 0 a\nleaf 1 b\nmerge 0 1 {height} 2\n")
    with pytest.raises(ValueError, match="got 'complete'"):
        Dendrogram(((0, 1, 1.0, 2),), "complete", ("a", "b"))


def test_dendrogram_rejects_unknown_nodes_and_wrong_sizes():
    head = "criterion ward\nleaves 3\nleaf 0 a\nleaf 1 b\nleaf 2 c\n"
    # Node 4 is the second merge's own node; node 3 exists only after merge 0.
    for merges in ("merge 0 4 1.0 2\nmerge 1 2 2.0 3\n", "merge 0 1 1.0 2\nmerge 2 4 2.0 3\n",
                   "merge 0 -1 1.0 2\nmerge 1 2 2.0 3\n"):
        with pytest.raises(ValueError, match="merge [01] joins node -?[14], which does not exist"):
            clustering.dendrogram_from_text(head + merges)
    with pytest.raises(ValueError, match="merge 1 has size 2, its children 3"):
        clustering.dendrogram_from_text(head + "merge 0 1 1.0 2\nmerge 2 3 2.0 2\n")
    with pytest.raises(ValueError, match="merge 0 has size 1, its children 2"):
        clustering.dendrogram_from_text(head + "merge 0 1 1.0 1\nmerge 2 3 2.0 2\n")
    assert clustering.dendrogram_from_text(head + "merge 1 2 1.0 2\nmerge 0 3 2.0 3\n").n_leaves == 3


def test_dendrogram_rejects_duplicate_leaf_labels():
    # A partition maps each label to one cluster: a repeated label would
    # drop a point from it, as cut_k gave {'a': 2, 'b': 1} for three points.
    cloud = PointCloud(("a", "b", "a"), [[0.0], [1.0], [5.0]])
    for build in (clustering.constrained_complete_link, clustering.ward_cluster):
        with pytest.raises(ValueError, match="^leaf labels must be distinct$"):
            build(cloud)
    with pytest.raises(ValueError, match="^leaf labels must be distinct$"):
        clustering.dendrogram_from_text("criterion ward\nleaves 2\nleaf 0 a\nleaf 1 a\nmerge 0 1 1.0 2\n")


def test_dendrogram_text_round_trip():
    rng = np.random.default_rng(33)
    labels, coords = random_cloud_arrays(rng, 7)
    for build in (clustering.ward_cluster, clustering.constrained_complete_link):
        dendrogram = build(PointCloud(labels, coords))
        text = clustering.dendrogram_to_text(dendrogram)
        assert clustering.dendrogram_from_text(text) == dendrogram
    with pytest.raises(ValueError, match="unrecognized"):
        clustering.dendrogram_from_text("criterion ward\nleaves 2\nleaf 0 a\nleaf 1 b\nsplit 0 1\n")



def test_dendrogram_text_round_trips_labels_with_line_breaks():
    labels = ("x\ny", "p\rq", "p\x85q", "p\u2028q", "back\\slash", "é", "",
              "a\r\nb\v\f\x1c\x1d\x1e\u2029", "\\u000a", "plain label")
    coords = np.random.default_rng(5).normal(size=(len(labels), 2))
    dendrogram = clustering.constrained_complete_link(PointCloud(labels, coords))
    text = clustering.dendrogram_to_text(dendrogram)
    assert len(text.splitlines()) == 2 + 2 * len(labels) - 1  # one record per line
    assert clustering.dendrogram_from_text(text) == dendrogram
    # Labels without a backslash or line break keep their bytes.
    assert "leaf 5 é\n" in text and "leaf 6 \n" in text and "leaf 9 plain label\n" in text

def test_partition_csv_layout():
    partition = Partition({"s1": 1, "s2": 1, "s3": 2})
    assert clustering.partition_to_csv(partition) == (
        "label,cluster\ns1,1\ns2,1\ns3,2\n"
    )


def test_partition_csv_quotes_labels():
    labels = ["a,b", 'say "hi"', "x\ny", ""]
    partition = Partition({label: 1 + i // 2 for i, label in enumerate(labels)})
    rows = list(csv.reader(io.StringIO(clustering.partition_to_csv(partition))))
    assert rows[0] == ["label", "cluster"]
    assert [(label, int(cid)) for label, cid in rows[1:]] == list(partition.assignment.items())
