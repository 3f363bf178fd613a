"""End-to-end batch pipeline: config file in, CSV tables and SVG plots out.

A run is the stage table at the end of this module, executed in order:
segment -> tokenize -> build -> filter -> (aggregate) -> fit_ca ->
cluster -> cut -> v-test -> plot, where the aggregate stage only runs
when the config defines a segmentation.  Each stage reads and fills the
:class:`PipelineResult` and returns its line of counts for the run
summary; any failure is re-raised as a :class:`StageError` naming the
stage.  The table passes between stages as its non-zero cells
(:class:`corpus.CellCounts`); ``fit_ca`` and the v-test build the dense
array they need themselves.  What no later stage reads is dropped: the
token lists once built, the built table once filtered.  A run first
removes every artifact a previous run may have left in the output
directory, and a failed or interrupted run removes what it wrote, so the
directory holds exactly one run's artifacts or none.  All outputs are pure
functions of the config and input files, so two runs over the same
inputs are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Container, Iterable

import numpy as np

from . import ca, characterize, clustering, corpus, plots, textprep
from ._formats import lines, read_text

_UNITS = ("sentence", "paragraph")
_CRITERIA = ("ward", "constrained")
_PATH_KEYS = ("input_text", "abbreviations", "stopwords", "lexicon",
              "speakers", "segment_file")

# Result key -> artifact file name; every name a run can write.
_ARTIFACTS = {
    "sentences": "sentences.csv",
    "table": "table.csv",
    "segments": "table_segments.csv",
    "inertia": "inertia.csv",
    "row_coords": "row_coordinates.csv",
    "col_coords": "col_coordinates.csv",
    "row_contrib": "row_contributions.csv",
    "col_contrib": "col_contributions.csv",
    "dendrogram": "dendrogram.txt",
    "partition": "partition.csv",
    "vtest": "vtest.csv",
    "plane_rows": "factor_plane_segments.svg",
    "plane_cols": "factor_plane_words.svg",
    "tree": "dendrogram.svg",
}


class StageError(RuntimeError):
    """A pipeline stage failed: ``stage`` names it, ``__cause__`` holds the original error."""

    def __init__(self, stage: str, cause: Exception) -> None:
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage


@dataclass(frozen=True)
class PipelineConfig:
    """Flat, file-loadable description of one batch run, checked when built."""

    input_text: Path
    abbreviations: Path | None = None
    stopwords: Path | None = None
    lexicon: Path | None = None
    speakers: Path | None = None
    unit: str = "sentence"
    min_total_count: int = 1
    min_doc_count: int = 1
    min_word_length: int = 1
    segment_sizes: tuple[int, ...] | None = None
    segment_by: str = "paragraph"
    segment_file: Path | None = None
    axes: int = 0  # retained axes for the clustering embedding; 0 = all
    cluster: str = "constrained"
    cut: str = "max-gap"  # "max-gap" or an integer k
    vtest_alpha: float = 0.05
    plot_axes: tuple[int, int] = (1, 2)
    plot_top_k: int = 20
    out_dir: Path | None = None

    def __post_init__(self) -> None:
        for name in _PATH_KEYS:
            path = getattr(self, name)
            if path is not None and not Path(path).is_file():
                raise ValueError(f"{name} file not found: {path}")
        if self.unit not in _UNITS:
            raise ValueError(f"unit must be one of {_UNITS}, got {self.unit!r}")
        for name in ("min_total_count", "min_doc_count", "min_word_length"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")
        if self.segment_sizes is not None:
            if self.segment_file is not None:
                raise ValueError("give segment sizes/ranges or a segment file, not both")
            if not self.segment_sizes:
                raise ValueError("segment_sizes must name at least one segment")
            if any(s < 1 for s in self.segment_sizes):
                raise ValueError("segment sizes must be positive")
        if self.segment_by not in ("paragraph", "row"):
            raise ValueError(f"segment_by must be 'paragraph' or 'row', got {self.segment_by!r}")
        if self.axes < 0:
            raise ValueError("axes must be >= 0 (0 selects the full factor space)")
        if self.cluster not in _CRITERIA:
            raise ValueError(f"cluster must be one of {_CRITERIA}, got {self.cluster!r}")
        if self.cut != "max-gap":
            try:
                k = int(self.cut)
            except ValueError:
                raise ValueError(f"cut must be 'max-gap' or an integer, got {self.cut!r}") from None
            if k < 1:
                raise ValueError("cut k must be >= 1")
        if not 0.0 < self.vtest_alpha < 1.0:
            raise ValueError("vtest_alpha must lie strictly between 0 and 1")
        if len(self.plot_axes) != 2 or min(self.plot_axes) < 1 or self.plot_axes[0] == self.plot_axes[1]:
            raise ValueError(f"plot_axes must name two distinct axes, got {self.plot_axes}")
        if self.plot_top_k < 1:
            raise ValueError("plot_top_k must be >= 1")


def _parse_ranges(ranges: str) -> tuple[int, ...]:
    """Turn '1-19,20-45,...' into segment sizes, checking the partition."""
    sizes = []
    expected = 1
    for piece in ranges.split(","):
        lo_s, dash, hi_s = piece.strip().partition("-")
        lo, hi = int(lo_s), int(hi_s if dash else lo_s)
        if lo != expected or hi < lo:
            raise ValueError(
                f"segment ranges must partition 1..N contiguously; "
                f"expected a range starting at {expected}, got {piece.strip()!r}")
        sizes.append(hi - lo + 1)
        expected = hi + 1
    return tuple(sizes)


# Config key -> conversion of its text value ("segment_ranges" sets segment_sizes).
_CONVERSIONS = {
    **dict.fromkeys(("min_total_count", "min_doc_count", "min_word_length", "axes",
                     "plot_top_k"), int),
    **dict.fromkeys(("unit", "segment_by", "cluster", "cut"), str),
    "segment_sizes": lambda value: tuple(int(v) for v in value.split(",")),
    "segment_ranges": _parse_ranges,
    "vtest_alpha": float,
    "plot_axes": lambda value: tuple(int(v) for v in value.partition(",")[::2]),
    "out_dir": Path,
}


def parse_config(path: str | Path) -> PipelineConfig:
    """Read a flat ``key = value`` config file.

    ``#`` starts a comment; blank lines are skipped; unknown keys are an
    error, and a value that does not convert is reported with its line.
    Input-file paths are resolved relative to the config file's
    directory; ``out_dir`` is kept as written (relative to the working
    directory, and overridable from the CLI).
    """
    path = Path(path)
    base = path.parent
    raw: dict[str, tuple[int, str]] = {}
    for lineno, line in lines(path):
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        if key in raw:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = lineno, value

    kwargs: dict = {}
    for key, (lineno, value) in raw.items():
        if key in _PATH_KEYS:
            kwargs[key] = (base / value).resolve()
            continue
        if key not in _CONVERSIONS:
            raise ValueError(f"{path}: unknown config key {key!r}")
        name = "segment_sizes" if key == "segment_ranges" else key
        if name in kwargs:  # only segment_sizes can be reached by two keys
            raise ValueError(f"{path}:{lineno}: give segment_sizes or segment_ranges, not both")
        try:
            value = _CONVERSIONS[key](value)
        except ValueError as err:
            raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {err}") from None
        kwargs[name] = value
    if "input_text" not in kwargs:
        raise ValueError(f"{path}: missing required key 'input_text'")
    return PipelineConfig(**kwargs)


@dataclass
class PipelineResult:
    """Artifacts of one run: file paths, stage summary, and live objects;
    ``tokens`` share one string per distinct word, and go back to ``None``
    once the build stage has counted them.  ``table`` is the built table,
    then the filtered one, then the aggregated one."""

    out_dir: Path
    files: dict[str, Path] = field(default_factory=dict)
    summary: list[str] = field(default_factory=list)
    sentences: list[textprep.SentenceRecord] | None = None
    tokens: list[textprep.TokenList] | None = None
    table: corpus.CellCounts | None = None
    model: ca.CAModel | None = None
    dendrogram: clustering.Dendrogram | None = None
    partition: clustering.Partition | None = None
    report: characterize.VTestReport | None = None


def _write(result: PipelineResult, key: str, content: str | Iterable[str]) -> None:
    """Write an artifact given whole or as chunks, such as a table's CSV lines.

    Each chunk is written as it comes, so a table given as an iterator
    over its CSV lines is never held as text or bytes all at once."""
    path = result.out_dir / _ARTIFACTS[key]
    with path.open("w", encoding="utf-8") as out:
        out.writelines([content] if isinstance(content, str) else content)
    result.files[key] = path


def _remove_artifacts(directory: Path) -> None:
    for filename in _ARTIFACTS.values():
        (directory / filename).unlink(missing_ok=True)


def _read_segment_file(path: Path, built: Container[str],
                       row_labels: tuple[str, ...]) -> tuple[np.ndarray, int]:
    """The given rows' segment ids, and the number of segments the file gives.

    Every label must name a row of the built table, one of ``built``; rows
    that the filter emptied still count, so their labels may stay in the file."""
    assignment = {}
    for lineno, line in lines(path):
        label, _, segment = line.partition(",")
        label = label.strip()
        try:
            segment = int(segment)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: expected 'label,segment', got {line!r}") from None
        if label in assignment:
            raise ValueError(f"{path}:{lineno}: duplicate label {label!r}")
        if label not in built:
            raise ValueError(f"{path}:{lineno}: label {label!r} names no row of the built table")
        assignment[label] = segment
    ids = sorted(set(assignment.values()))
    if ids != list(range(1, len(ids) + 1)):
        raise ValueError(f"{path}: segment ids must be 1..k, got {len(ids)} ids "
                         f"from {ids[0]} to {ids[-1]}")
    missing = [label for label in row_labels if label not in assignment]
    if missing:
        raise ValueError(f"{path}: row {missing[0]!r} has no segment")
    return np.array([assignment[label] for label in row_labels], dtype=np.int64), len(ids)


def _segment_ids(config: PipelineConfig, result: PipelineResult) -> tuple[np.ndarray, int]:
    """One segment id per row of the table, and the number of segments declared.

    Segment sizes count table rows or paragraphs; a row's id is the first
    segment whose cumulative size reaches the row's position or paragraph."""
    labels = result.table.row_labels
    key = "paragraph_id" if config.unit == "paragraph" else "sentence_id"  # what a row label names
    # Its keys are the built table's row labels: every sentence id, or every paragraph id.
    paragraph_of = {str(getattr(r, key)): r.paragraph_id for r in result.sentences}
    if config.segment_file is not None:
        return _read_segment_file(config.segment_file, paragraph_of.keys(), labels)
    ends = np.cumsum(config.segment_sizes, dtype=object)  # exact: int64 sums can wrap
    covered = ends[-1]
    if config.segment_by == "row":
        if covered != len(labels):
            raise ValueError(f"segment sizes sum to {covered}, expected {len(labels)}")
        units = np.arange(1, len(labels) + 1)
    else:
        units = np.array([paragraph_of[label] for label in labels])
        if covered < units.max():
            raise ValueError(f"segment sizes cover paragraphs 1..{covered} but the "
                             f"table reaches paragraph {units.max()}")
    return np.searchsorted(ends, units) + 1, len(ends)


# Stages.  Each reads and fills ``result`` and returns its summary line, or
# None when it does not apply to the config.  They call every layer through
# its module attribute at call time, so wrappers installed on a layer module
# (as storybench/spans.py installs them) see every call.

def _segment(config: PipelineConfig, result: PipelineResult) -> str:
    text = read_text(config.input_text)
    abbreviations = (corpus.load_word_list(config.abbreviations)
                     if config.abbreviations else frozenset())
    records = textprep.segment_text(text, abbreviations=abbreviations)
    if not records:
        raise ValueError(f"{config.input_text} holds no sentences")
    if config.speakers is not None:
        speaker_map = textprep.load_speaker_map(config.speakers)
        records = textprep.annotate_speakers(records, speaker_map)
    result.sentences = records
    _write(result, "sentences", textprep.sentences_to_csv(records))
    return f"segment: {len(records)} sentences, {records[-1].paragraph_id} paragraphs"


def _tokenize(config: PipelineConfig, result: PipelineResult) -> str:
    words: dict[str, str] = {}  # one string per distinct word; each sentence's copies die with it
    token_lists = result.tokens = [
        textprep.TokenList(tl.sentence_id, tuple(map(words.setdefault, tl.tokens, tl.tokens)))
        for tl in map(textprep.tokenize, result.sentences)]
    occurrences = sum(len(tl.tokens) for tl in token_lists)
    return f"tokenize: {len(words)} distinct words, {occurrences} occurrences"


def _build(config: PipelineConfig, result: PipelineResult) -> str:
    row_ids = ([r.paragraph_id for r in result.sentences]
               if config.unit == "paragraph" else None)  # None: one row per sentence
    built = result.table = corpus.count_cells(result.tokens, row_ids)
    result.tokens = None  # no later stage reads them
    return f"build: {built.shape[0]} {config.unit} rows x {built.shape[1]} words"


def _filter(config: PipelineConfig, result: PipelineResult) -> str:
    stopwords = (corpus.load_word_list(config.stopwords)
                 if config.stopwords else frozenset())
    lexicon = corpus.load_word_list(config.lexicon) if config.lexicon else None
    filt = corpus.CorpusFilter(
        min_total_count=config.min_total_count,
        min_doc_count=config.min_doc_count,
        min_word_length=config.min_word_length,
        stopwords=stopwords,
        lexicon=lexicon,
    )
    built_rows = result.table.shape[0]
    table = result.table = corpus.apply_filter(result.table, filt)  # the built table goes
    _write(result, "table", corpus.table_csv_rows(table))
    return (f"filter: {table.shape[1]} words, {table.total} occurrences, "
            f"{table.shape[0]} non-empty rows, {built_rows - table.shape[0]} emptied")


def _aggregate(config: PipelineConfig, result: PipelineResult) -> str | None:
    if config.segment_sizes is None and config.segment_file is None:
        return None
    ids, k = _segment_ids(config, result)
    empty = np.setdiff1d(np.arange(1, k + 1), ids)
    if empty.size:
        raise ValueError(f"segment {empty[0]} of {k} has no rows after filtering")
    table = result.table = corpus.aggregate(result.table, ids)
    _write(result, "segments", corpus.table_csv_rows(table))
    return f"aggregate: {table.shape[0]} segments"


def _fit_ca(config: PipelineConfig, result: PipelineResult) -> str:
    model = result.model = ca.fit_ca(result.table)
    # One matrix, and of it one block of rows, at a time: only that block's text is alive.
    _write(result, "inertia", ca.inertia_table_csv(model))
    _write(result, "row_coords", ca.coordinates_csv(model, "row"))
    _write(result, "col_coords", ca.coordinates_csv(model, "col"))
    _write(result, "row_contrib", ca.contributions_csv(model, "row"))
    _write(result, "col_contrib", ca.contributions_csv(model, "col"))
    return f"fit_ca: {model.n_axes} axes, total inertia {model.total_inertia:.6g}"


def _cluster(config: PipelineConfig, result: PipelineResult) -> str:
    model, labels = result.model, result.table.row_labels
    n_axes = min(config.axes or model.n_axes, model.n_axes)
    coords = model.row_coords[:, :n_axes]
    if config.cluster == "ward":
        cloud = clustering.PointCloud(labels, coords, masses=model.row_masses)
        dendrogram = clustering.ward_cluster(cloud)
    else:
        cloud = clustering.PointCloud(labels, coords)
        dendrogram = clustering.constrained_complete_link(cloud)
    result.dendrogram = dendrogram
    _write(result, "dendrogram", clustering.dendrogram_to_text(dendrogram))
    return f"cluster: {config.cluster} tree over {len(labels)} rows ({n_axes} axes)"


def _cut(config: PipelineConfig, result: PipelineResult) -> str:
    if config.cut == "max-gap":
        partition = clustering.cut_max_gap(result.dendrogram)
    else:
        partition = clustering.cut_k(result.dendrogram, int(config.cut))
    result.partition = partition
    _write(result, "partition", clustering.partition_to_csv(partition))
    sizes = "/".join(str(len(partition.members(c + 1))) for c in range(partition.k))
    return f"cut: {partition.k} clusters (sizes {sizes})"


def _vtest(config: PipelineConfig, result: PipelineResult) -> str:
    report = result.report = characterize.characterize_clusters(
        result.table, result.partition, alpha=config.vtest_alpha)
    _write(result, "vtest", characterize.report_to_csv(report))
    return (f"vtest: {len(report.entries)} significant word/cluster pairs "
            f"at alpha {config.vtest_alpha:g}")


def _plot(config: PipelineConfig, result: PipelineResult) -> str:
    model, table = result.model, result.table
    ax, ay = (min(axis, model.n_axes) for axis in config.plot_axes)
    if ax == ay:
        raise ValueError(
            f"cannot draw a plane: axes {config.plot_axes} collapse onto "
            f"axis {ax} in a model with {model.n_axes} fitted axes")
    aggregated = "segments" in result.files
    if aggregated:
        _write(result, "plane_rows", plots.render_factor_plane(
            model, ax, ay, side="row", labels=table.row_labels,
            trajectory=True, title="segment trajectory"))
    top_k = min(config.plot_top_k, len(table.col_labels))
    words = [word for word, _ in ca.top_contributors(model, (ax, ay), top_k, side="col")]
    _write(result, "plane_cols", plots.render_factor_plane(
        model, ax, ay, side="col", labels=words, title=f"top {top_k} contributing words"))
    _write(result, "tree", plots.render_dendrogram(
        result.dendrogram, cut=result.partition.k, title=f"{config.cluster} dendrogram"))
    return f"plot: {3 if aggregated else 2} SVG files"


# The run, in order; CLI subcommands stop after the stage mapped in cli.py.
_STAGE_TABLE = (
    ("segment", _segment),
    ("tokenize", _tokenize),
    ("build", _build),
    ("filter", _filter),
    ("aggregate", _aggregate),
    ("fit_ca", _fit_ca),
    ("cluster", _cluster),
    ("cut", _cut),
    ("vtest", _vtest),
    ("plot", _plot),
)
STAGES = tuple(name for name, _ in _STAGE_TABLE)


def run_pipeline(
    config: PipelineConfig,
    out_dir: str | Path | None = None,
    upto: str = "plot",
) -> PipelineResult:
    """Execute the pipeline through stage ``upto`` and write its artifacts.

    Every artifact name is first deleted from the output directory, so it
    ends up holding this run's artifacts only.  Returns a
    :class:`PipelineResult`; raises :class:`StageError` on any failure
    after deleting the files this run had already written, and deletes
    them before an interrupt such as ``KeyboardInterrupt`` propagates.
    """
    if upto not in STAGES:
        raise ValueError(f"unknown stage {upto!r}; expected one of {STAGES}")
    directory = out_dir if out_dir is not None else config.out_dir
    if directory is None:
        raise ValueError("no output directory: set out_dir in the config or pass --out")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    _remove_artifacts(directory)
    result = PipelineResult(out_dir=directory)
    try:
        for stage, run_stage in _STAGE_TABLE:
            line = run_stage(config, result)
            if line is not None:
                result.summary.append(line)
            if stage == upto:
                break
    except BaseException as exc:  # an interrupt, too, leaves no partial artifact
        _remove_artifacts(directory)
        if isinstance(exc, Exception):
            raise StageError(stage, exc) from exc
        raise
    return result
