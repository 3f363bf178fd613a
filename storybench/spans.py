"""In-process layer tracing from outside the program.

``run_pipeline`` calls every layer through a module attribute
(``ca.fit_ca(table)``, ``clustering.ward_cluster(cloud)``, ...), so
replacing the public functions of each layer module with timing wrappers
records one span per call without touching the program.  A span's self
time is its duration minus its direct child spans.  Public functions that
belong to one reported metric share a group name (``ca.export_csv`` is
the four CSV writers of the CA model).

With ``memory=True`` each span also records the tracemalloc peak above
its entry level.  tracemalloc slows allocation-heavy code several times
over, so timings and memory peaks come from separate passes.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field

MiB = float(1 << 20)

LAYERS = ("textprep", "corpus", "ca", "clustering", "characterize", "plots")

# function -> reported group; other public functions report as themselves.
GROUPS = {
    "textprep.tokenize_text": "textprep.tokenize",
    "ca.inertia_table_csv": "ca.export_csv",
    "ca.coordinates_csv": "ca.export_csv",
    "ca.contributions_csv": "ca.export_csv",
    "ca.cumulative_inertia": "ca.export_csv",
    "clustering.cut_k": "clustering.cut",
    "clustering.cut_max_gap": "clustering.cut",
    "plots.render_factor_plane": "plots.render",
    "plots.render_dendrogram": "plots.render",
}


def _cloud_counts(counts, args, result):
    n, d = args[0].coords.shape
    counts["clustering.leaves"] = n
    counts["clustering.dims"] = d


def _constrained_counts(counts, args, result):
    _cloud_counts(counts, args, result)
    n, d = args[0].coords.shape
    counts["clustering.pair_tensor_mb"] = n * n * d * 8 / MiB


def _fit_counts(counts, args, result):
    n, m = len(result.row_labels), len(result.col_labels)
    counts["ca.axes"] = result.n_axes
    counts["ca.csv_cells"] = 2 * (n + m) * result.n_axes


def _add(key, measure):
    def hook(counts, args, result):
        counts[key] += measure(args, result)
    return hook


def _set(**measures):
    def hook(counts, args, result):
        for key, measure in measures.items():
            counts[key] = measure(args, result)
    return hook


# Work counts taken at the layer boundary, from a call's arguments and result.
COUNTS = {
    "textprep.segment_text": _set(
        **{"textprep.sentences": lambda a, r: len(r),
           "textprep.paragraphs": lambda a, r: max(s.paragraph_id for s in r)}),
    "textprep.tokenize": _add("textprep.tokens", lambda a, r: len(r.tokens)),
    "corpus.apply_filter": _set(
        **{"corpus.rows": lambda a, r: r.shape[0], "corpus.cols": lambda a, r: r.shape[1]}),
    "corpus.table_to_csv": _add("corpus.cells", lambda a, r: a[0].shape[0] * a[0].shape[1]),
    "ca.fit_ca": _fit_counts,
    "clustering.ward_cluster": _cloud_counts,
    "clustering.constrained_complete_link": _constrained_counts,
    "characterize.characterize_clusters": _set(
        **{"characterize.tests": lambda a, r: a[1].k * len(a[0].col_labels),
           "characterize.entries": lambda a, r: len(r.entries)}),
    "plots.render_factor_plane": _add("plots.svg_bytes", lambda a, r: len(r.encode())),
    "plots.render_dendrogram": _add("plots.svg_bytes", lambda a, r: len(r.encode())),
    "pipeline.run_pipeline": _set(
        **{"pipeline.output_bytes": lambda a, r: sum(p.stat().st_size for p in r.files.values())}),
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    child_s: float = 0.0
    base_bytes: int = 0  # traced memory at entry
    max_bytes: int = 0  # highest traced memory seen while open

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.child_s

    @property
    def peak_mb(self) -> float:
        return (self.max_bytes - self.base_bytes) / MiB


@dataclass
class Tracer:
    memory: bool = False
    spans: list[Span] = field(default_factory=list)
    counts: dict = field(default_factory=lambda: defaultdict(int))
    _stack: list[Span] = field(default_factory=list)

    def wrap(self, name, fn):
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(GROUPS.get(name, name))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced

    def _open(self, name: str) -> Span:
        span = Span(name, 0.0)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:
                outer = self._stack[-1]
                outer.max_bytes = max(outer.max_bytes, peak)
            tracemalloc.reset_peak()
            span.base_bytes = span.max_bytes = current
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if self.memory:
            span.max_bytes = max(span.max_bytes, tracemalloc.get_traced_memory()[1])
        if self._stack:
            outer = self._stack[-1]
            outer.child_s += span.seconds
            outer.max_bytes = max(outer.max_bytes, span.max_bytes)
        self.spans.append(span)

    def self_seconds(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span.name] += span.self_s
        return dict(totals)

    def peaks_mb(self) -> dict[str, float]:
        peaks: dict[str, float] = defaultdict(float)
        for span in self.spans:
            peaks[span.name] = max(peaks[span.name], span.peak_mb)
        return dict(peaks)


@contextlib.contextmanager
def installed(tracer: Tracer, package):
    """Wrap every public function of the layer modules while the block runs."""
    saved = []
    try:
        for layer in LAYERS:
            module = getattr(package, layer)
            for name, obj in list(vars(module).items()):
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    saved.append((module, name, obj))
                    setattr(module, name, tracer.wrap(f"{layer}.{name}", obj))
        yield tracer
    finally:
        for module, name, obj in reversed(saved):
            setattr(module, name, obj)
