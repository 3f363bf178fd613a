"""Chronological text analytics on document-term contingency tables.

The library takes a raw narrative text through sentence segmentation,
tokenization, table building and filtering (`textprep`, `corpus`),
Correspondence Analysis in chi-squared geometry (`ca`), Ward and
contiguity-constrained hierarchical clustering of the factor-space
points (`clustering`), v-test description of the resulting clusters
(`characterize`), static SVG output (`plots`), and a config-driven batch
pipeline with a CLI (`pipeline`, `cli`).

Importing the package before numpy runs BLAS on one thread, unless the
user has set one of ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` or
``MKL_NUM_THREADS``: a second thread buys no wall time at this library's
table sizes, spins idle between calls, and changes the last bits of the
CA output with the core count.
"""

import importlib
import os
import sys

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# BLAS reads these once, as numpy loads it; unset them again afterwards so
# that os.environ, and the environment of any subprocess, stay the user's.
if "numpy" not in sys.modules and not any(name in os.environ for name in _BLAS_THREAD_VARS):
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        importlib.import_module("numpy")
    finally:
        for name in _BLAS_THREAD_VARS:
            os.environ.pop(name, None)

from .ca import (
    CAModel,
    chi2_row_distance,
    cumulative_inertia,
    fit_ca,
    project_supplementary,
    top_contributors,
)
from .characterize import VTestEntry, VTestReport, characterize_clusters, v_test
from .clustering import (
    Dendrogram,
    Partition,
    PointCloud,
    constrained_complete_link,
    cut_k,
    cut_max_gap,
    ward_cluster,
)
from .corpus import (
    CellCounts,
    CorpusFilter,
    aggregate,
    apply_filter,
    count_cells,
    load_word_list,
)
from .pipeline import PipelineConfig, PipelineResult, StageError, parse_config, run_pipeline
from .plots import render_dendrogram, render_factor_plane
from .textprep import SentenceRecord, TokenList, segment_text, tokenize, tokenize_text

__version__ = "0.1.0"

__all__ = [
    "CAModel",
    "CellCounts",
    "CorpusFilter",
    "Dendrogram",
    "Partition",
    "PipelineConfig",
    "PipelineResult",
    "PointCloud",
    "SentenceRecord",
    "StageError",
    "TokenList",
    "VTestEntry",
    "VTestReport",
    "aggregate",
    "apply_filter",
    "characterize_clusters",
    "chi2_row_distance",
    "constrained_complete_link",
    "count_cells",
    "cumulative_inertia",
    "cut_k",
    "cut_max_gap",
    "fit_ca",
    "load_word_list",
    "parse_config",
    "project_supplementary",
    "render_dendrogram",
    "render_factor_plane",
    "run_pipeline",
    "segment_text",
    "tokenize",
    "tokenize_text",
    "top_contributors",
    "v_test",
    "ward_cluster",
]
