"""Cluster characterization by over-represented words (v-test).

The v-test compares a cluster's mean of some per-document value against
the global mean, standardized by the sampling variance of a mean of n_q
documents drawn without replacement from the N available:

    v = (mean_q - mean) / sqrt( ((N - n_q)/(N - 1)) * s^2 / n_q )

with s^2 the population variance.  |v| is mapped to a two-sided normal
p-value via the complementary error function, which stays accurate for
the very small p-values (~1e-13) that concentrated words produce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._formats import format_float, write_csv
from .clustering import Partition
from .corpus import CellCounts


@dataclass(frozen=True)
class VTestEntry:
    cluster_id: int
    word: str
    v: float
    p: float
    cluster_mean: float
    global_mean: float


@dataclass(frozen=True)
class VTestReport:
    entries: tuple[VTestEntry, ...]  # by (cluster_id, p, -|v| where p is 0, word)

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))


def _v_scores(values: np.ndarray, mask: np.ndarray, cluster_id: int,
              global_means: np.ndarray, variances: np.ndarray):
    """v, two-sided p and cluster mean of every column of ``values``.

    ``mask`` selects the cluster's rows.  A cluster spanning every row, or
    a column of constant values, scores v = 0 and p = 1.
    """
    N = len(values)
    n_q = int(mask.sum())
    if n_q == 0:
        raise ValueError(f"cluster {cluster_id} is empty")
    cluster_means = values[mask].mean(axis=0)
    if n_q == N:
        v_all = np.zeros(values.shape[1])
    else:
        scale = np.sqrt(((N - n_q) / (N - 1)) * variances / n_q)
        with np.errstate(divide="ignore", invalid="ignore"):
            v_all = np.where(scale > 0, (cluster_means - global_means) / scale, 0.0)
    v_list = v_all.tolist()
    p_list = [math.erfc(abs(v) / math.sqrt(2.0)) if v != 0.0 else 1.0 for v in v_list]
    return v_list, p_list, cluster_means


def v_test(values, partition: Partition, cluster_id: int) -> tuple[float, float]:
    """v statistic and two-sided p-value for one cluster of a partition.

    ``values`` are per-document numbers in the partition's label order.
    Degenerate cases (cluster = everything, or constant values) return
    (0, 1).
    """
    values = np.asarray(values, dtype=float)[:, None]
    N = len(values)
    if len(partition.assignment) != N:
        raise ValueError(f"{N} values for {len(partition.assignment)} documents")
    mask = np.array([cid == cluster_id for cid in partition.assignment.values()])
    v, p, _ = _v_scores(values, mask, cluster_id, values.mean(axis=0), values.var(axis=0))
    return v[0], p[0]


def characterize_clusters(
    table: CellCounts,
    partition: Partition,
    alpha: float,
) -> VTestReport:
    """v-test every (cluster, word) pair; keep entries with p < alpha."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if set(partition.assignment) != set(table.row_labels):
        missing = set(table.row_labels) - set(partition.assignment)
        extra = set(partition.assignment) - set(table.row_labels)
        raise ValueError(f"partition does not cover table rows (missing {sorted(missing)[:3]}, extra {sorted(extra)[:3]})")

    cluster_ids = np.array([partition.assignment[label] for label in table.row_labels])
    values = table.dense().astype(float)
    global_means = values.mean(axis=0)
    variances = values.var(axis=0)

    entries: list[VTestEntry] = []
    for cid in range(1, partition.k + 1):
        v_list, p_list, cluster_means = _v_scores(
            values, cluster_ids == cid, cid, global_means, variances)
        for j, word in enumerate(table.col_labels):
            if p_list[j] < alpha:
                entries.append(VTestEntry(cid, word, v_list[j], p_list[j],
                                          float(cluster_means[j]), float(global_means[j])))
    # Past erfc's underflow (|v| above about 38.6) p reads 0: larger |v| first there.
    entries.sort(key=lambda e: (e.cluster_id, e.p, -abs(e.v) if e.p == 0.0 else 0.0, e.word))
    return VTestReport(entries)


def report_to_csv(report: VTestReport) -> str:
    """CSV ``cluster,word,v,p,cluster_mean,global_mean`` with p as 1.234567e-08."""
    return write_csv(["cluster", "word", "v", "p", "cluster_mean", "global_mean"], (
        [e.cluster_id, e.word, format_float(e.v), format(e.p, ".6e"),
         format_float(e.cluster_mean), format_float(e.global_mean)]
        for e in report.entries))
