"""Output checks for one finished run.

A run passes when it wrote exactly the artifact set its config implies,
every artifact is byte-identical to the workload's warm-up run, and the
warm-up's artifacts pass the structural checks below.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from pathlib import Path

_ALWAYS = (
    "sentences.csv", "table.csv", "inertia.csv",
    "row_coordinates.csv", "col_coordinates.csv",
    "row_contributions.csv", "col_contributions.csv",
    "dendrogram.txt", "partition.csv", "vtest.csv",
    "factor_plane_words.svg", "dendrogram.svg",
)
_SEGMENTED = ("table_segments.csv", "factor_plane_segments.svg")


def expected_files(config_keys: dict) -> frozenset[str]:
    segmented = "segment_sizes" in config_keys or "segment_file" in config_keys
    return frozenset(_ALWAYS + (_SEGMENTED if segmented else ()))


def digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every file in ``out_dir``, by file name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.is_file()}


def check_set(found: dict[str, str], expected: frozenset[str],
              reference: dict[str, str] | None) -> list[str]:
    """Problems with a run's artifact set and its bytes against the reference."""
    problems = []
    missing = expected - found.keys()
    if missing:
        problems.append(f"missing artifacts {sorted(missing)}")
    extra = found.keys() - expected
    if extra:
        problems.append(f"unexpected artifacts {sorted(extra)}")
    if reference is not None:
        changed = sorted(n for n in found.keys() & reference.keys() if found[n] != reference[n])
        if changed:
            problems.append(f"artifacts differ from the warm-up run: {changed}")
    return problems


def _rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))


def check_structure(out_dir: Path, segmented: bool, clustering) -> list[str]:
    """Structural checks on one run's artifacts.

    ``clustering`` is the program's own clustering module, whose
    ``dendrogram_from_text`` must parse the written tree.
    """
    problems = []
    read = lambda name: (out_dir / name).read_text(encoding="utf-8")  # noqa: E731
    table = _rows(read("table_segments.csv" if segmented else "table.csv"))
    rows = [r[0] for r in table[1:]]
    n_cols = len(table[0]) - 1

    tree = clustering.dendrogram_from_text(read("dendrogram.txt"))
    heights = tree.heights
    if tree.n_leaves != len(rows) or len(heights) != len(rows) - 1:
        problems.append(f"dendrogram has {len(heights)} merges over {tree.n_leaves} "
                        f"leaves for {len(rows)} table rows")
    # Same tolerance as the test suite: Ward's Lance-Williams update can
    # invert two near-equal heights in the last bit.
    if any(b < a - 1e-12 for a, b in zip(heights, heights[1:])):
        problems.append("dendrogram merge heights are not monotone")

    partition = _rows(read("partition.csv"))
    if [r[0] for r in partition[1:]] != rows:
        problems.append("partition.csv does not cover exactly the table rows")

    inertia = _rows(read("inertia.csv"))[1:]
    if not inertia or not math.isclose(float(inertia[-1][4]), 100.0, abs_tol=1e-6):
        problems.append("inertia.csv does not end at 100 cumulative percent")
    axes = len(inertia)
    for name, labels in (("row_coordinates.csv", len(rows)), ("col_coordinates.csv", n_cols)):
        grid = _rows(read(name))
        if len(grid) != labels + 1 or any(len(r) != axes + 1 for r in grid):
            problems.append(f"{name} is not {labels} x {axes}")
    for name in ("factor_plane_words.svg", "dendrogram.svg"):
        if not read(name).rstrip().endswith("</svg>"):
            problems.append(f"{name} is not a complete SVG document")
    return problems
