"""Config parsing, staged execution, artifact consistency, CLI behavior."""

import dataclasses
import hashlib
import re
import tracemalloc
import warnings
import weakref
import xml.etree.ElementTree as ET

import pytest

from storyfactors import ca, cli, corpus, pipeline

STORY = """\
The letter hides in the room. The police search the room. The police search again.

The minister smiles at the police. The minister holds the letter. A poet sees the minister.

The poet finds the letter. The poet returns the letter. The room stays quiet.
"""

# After stopwords + thresholds 2/2 the vocabulary is six engineered words.
VOCAB = ("letter", "room", "police", "search", "minister", "poet")

FULL_RUN_FILES = {
    "sentences.csv", "table.csv", "inertia.csv",
    "row_coordinates.csv", "col_coordinates.csv",
    "row_contributions.csv", "col_contributions.csv",
    "dendrogram.txt", "partition.csv", "vtest.csv",
    "factor_plane_words.svg", "dendrogram.svg",
}


@pytest.fixture()
def mini(tmp_path):
    (tmp_path / "story.txt").write_text(STORY, encoding="utf-8")
    (tmp_path / "stop.txt").write_text("the\nin\nat\na\nagain\n", encoding="utf-8")

    def write_config(name="mini.cfg", drop=(), **overrides):
        options = {
            "input_text": "story.txt",
            "stopwords": "stop.txt",
            "min_total_count": 2,
            "min_doc_count": 2,
            "min_word_length": 2,
            "cluster": "constrained",
            "cut": 3,
            "vtest_alpha": 0.5,
            "plot_top_k": 6,
        }
        options.update(overrides)
        for key in drop:
            options.pop(key, None)
        path = tmp_path / name
        path.write_text("".join(f"{k} = {v}\n" for k, v in options.items()), encoding="utf-8")
        return path

    return tmp_path, write_config


def test_parse_config_resolves_paths_and_keeps_out_dir(mini):
    root, write_config = mini
    config = pipeline.parse_config(write_config(out_dir="artifacts"))
    assert config.input_text == (root / "story.txt").resolve()
    assert config.stopwords == (root / "stop.txt").resolve()
    assert str(config.out_dir) == "artifacts"  # not resolved: CLI overridable
    assert config.unit == "sentence"
    assert config.cut == "3"
    assert config.axes == 0


def test_parse_config_rejects_bad_input(mini):
    root, write_config = mini
    with pytest.raises(ValueError, match="unknown config key"):
        pipeline.parse_config(write_config(colour="red"))
    duplicated = root / "dup.cfg"
    duplicated.write_text("input_text = story.txt\ninput_text = story.txt\n", encoding="utf-8")
    with pytest.raises(ValueError, match="duplicate key"):
        pipeline.parse_config(duplicated)
    bare = root / "bare.cfg"
    bare.write_text("just some words\n", encoding="utf-8")
    with pytest.raises(ValueError, match="key = value"):
        pipeline.parse_config(bare)
    with pytest.raises(ValueError, match="missing required key"):
        pipeline.parse_config(write_config(drop=("input_text",)))
    with pytest.raises(ValueError, match="stopwords file not found"):
        pipeline.parse_config(write_config(stopwords="missing.txt"))


def test_parse_config_validates_segment_ranges(mini):
    _, write_config = mini
    good = pipeline.parse_config(write_config(segment_ranges="1-3,4-6,7-9"))
    assert good.segment_sizes == (3, 3, 3)
    for ranges in ("2-3,4-5", "1-3,3-4", "1-3,5-6", "3-2"):
        with pytest.raises(ValueError, match="contiguous"):
            pipeline.parse_config(write_config(segment_ranges=ranges))
    with pytest.raises(ValueError, match="not both"):
        pipeline.parse_config(
            write_config(segment_sizes="3,3,3", segment_file="stop.txt")
        )


def test_parse_config_rejects_segment_sizes_with_segment_ranges(mini):
    root, _ = mini
    for first, second in (("segment_sizes = 1,1", "segment_ranges = 1-5"),
                          ("segment_ranges = 1-5", "segment_sizes = 1,1")):
        path = root / "both.cfg"
        path.write_text(f"input_text = story.txt\n{first}\n# a comment\n{second}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}:4: give segment_sizes or segment_ranges, not both")):
            pipeline.parse_config(path)


@pytest.mark.parametrize("key, value", [
    ("min_total_count", "abc"),
    ("segment_ranges", "1-3,"),
    ("segment_ranges", "1-1,2-"),
    ("plot_axes", "1"),
    ("plot_axes", "1,2,3"),
    ("segment_sizes", "3,,4"),
    ("vtest_alpha", "x"),
])
def test_parse_config_names_key_and_line_of_bad_value(mini, key, value):
    root, _ = mini
    path = root / "bad_value.cfg"
    path.write_text(f"input_text = story.txt\n# a comment\n{key} = {value}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: bad value for {key!r}: ")):
        pipeline.parse_config(path)


# (config key, its text in a config file, the message of the check that rejects it)
_BAD_VALUES = [
    ("unit", "chapter", "unit must be one of ('sentence', 'paragraph'), got 'chapter'"),
    ("cluster", "kmeans", "cluster must be one of ('ward', 'constrained'), got 'kmeans'"),
    ("cut", "soft", "cut must be 'max-gap' or an integer, got 'soft'"),
    ("cut", "0", "cut k must be >= 1"),
    ("segment_by", "chapter", "segment_by must be 'paragraph' or 'row', got 'chapter'"),
    ("vtest_alpha", "1.5", "vtest_alpha must lie strictly between 0 and 1"),
    ("plot_axes", "2,2", "plot_axes must name two distinct axes, got (2, 2)"),
    ("axes", "-1", "axes must be >= 0 (0 selects the full factor space)"),
    ("min_doc_count", "0", "min_doc_count must be a positive integer"),
    ("plot_top_k", "0", "plot_top_k must be >= 1"),
]
# (a change no config file can express, the message of the check that rejects it)
_BAD_TUPLES = [
    ({"segment_sizes": ()}, "segment_sizes must name at least one segment"),
    ({"plot_axes": (1,)}, "plot_axes must name two distinct axes, got (1,)"),
    ({"plot_axes": (1, 2, 3)}, "plot_axes must name two distinct axes, got (1, 2, 3)"),
]


def _assert_every_construction_rejects(config, change, message):
    """Direct construction and dataclasses.replace both raise exactly ``message``."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        pipeline.PipelineConfig(**{**dataclasses.asdict(config), **change})
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        dataclasses.replace(config, **change)


def test_config_validate_catches_bad_values(mini):
    _, write_config = mini
    for key, value, message in _BAD_VALUES:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            pipeline.parse_config(write_config(**{key: value}))


def test_config_validate_names_the_key_of_a_library_caller_tuple(mini):
    _, write_config = mini
    config = pipeline.parse_config(write_config())
    for change, message in _BAD_TUPLES:
        _assert_every_construction_rejects(config, change, message)


def test_config_checks_itself_when_built(mini):
    # A config is checked once, when it is built: parse_config, a direct
    # construction and dataclasses.replace give the same messages.
    _, write_config = mini
    config = pipeline.parse_config(write_config())
    assert pipeline.PipelineConfig(**dataclasses.asdict(config)) == config
    for key, value, message in _BAD_VALUES:
        change = {key: pipeline._CONVERSIONS[key](value)}
        _assert_every_construction_rejects(config, change, message)
    missing = config.input_text.with_name("nope.txt")
    _assert_every_construction_rejects(config, {"stopwords": missing},
                                       f"stopwords file not found: {missing}")


def test_full_run_artifacts_and_objects(mini):
    root, write_config = mini
    config = pipeline.parse_config(write_config())
    result = pipeline.run_pipeline(config, out_dir=root / "out")
    assert {p.name for p in result.files.values()} == FULL_RUN_FILES
    assert all(path.is_file() for path in result.files.values())
    assert {p.name for p in (root / "out").iterdir()} == FULL_RUN_FILES

    assert len(result.sentences) == 9
    assert result.table.col_labels == VOCAB
    assert result.table.shape == (9, 6)
    assert result.model.n_axes >= 2
    assert result.partition.k == 3
    assert result.report is not None
    # Constrained partitions are contiguous over the sentence sequence.
    ids = [result.partition.assignment[str(i)] for i in range(1, 10)]
    assert ids == sorted(ids)


def test_summary_counts_match_artifacts(mini):
    root, write_config = mini
    config = pipeline.parse_config(write_config())
    result = pipeline.run_pipeline(config, out_dir=root / "out")
    summary = {line.split(":")[0]: line for line in result.summary}

    n_sentences = int(re.search(r"segment: (\d+) sentences", summary["segment"])[1])
    assert n_sentences == len(result.files["sentences"].read_text(encoding="utf-8").splitlines()) - 1

    words, occurrences, rows = map(int, re.match(
        r"filter: (\d+) words, (\d+) occurrences, (\d+) non-empty rows",
        summary["filter"]).groups())
    table = corpus.table_from_csv(result.files["table"].read_text(encoding="utf-8"))
    assert (words, rows) == (table.shape[1], table.shape[0])
    assert occurrences == table.total

    sizes = [int(s) for s in re.search(r"sizes ([\d/]+)", summary["cut"])[1].split("/")]
    partition_rows = result.files["partition"].read_text(encoding="utf-8").splitlines()[1:]
    counts = {}
    for line in partition_rows:
        counts[line.split(",")[1]] = counts.get(line.split(",")[1], 0) + 1
    assert sizes == [counts[str(c)] for c in range(1, len(sizes) + 1)]

    n_pairs = int(re.search(r"vtest: (\d+) significant", summary["vtest"])[1])
    assert n_pairs == len(result.files["vtest"].read_text(encoding="utf-8").splitlines()) - 1


def test_filter_summary_counts_emptied_rows(mini):
    root, write_config = mini
    for thresholds in (2, 4):  # 4 keeps only "letter" and empties most sentences
        config = pipeline.parse_config(write_config(
            min_total_count=thresholds, min_doc_count=thresholds))
        result = pipeline.run_pipeline(config, out_dir=root / f"t{thresholds}", upto="filter")
        built = int(re.search(r"build: (\d+) sentence rows", result.summary[2])[1])
        rows, emptied = map(int, re.search(
            r"filter: \d+ words, \d+ occurrences, (\d+) non-empty rows, (\d+) emptied$",
            result.summary[3]).groups())
        assert rows == result.table.shape[0]
        assert emptied == built - rows
    assert emptied > 0


# sha256 of the bundled configs' artifacts that no BLAS call touches: text
# preparation, counting, filtering and aggregation must reproduce them exactly.
GOLDEN = {
    "sections.cfg": {
        "sentences.csv": "9be010529a184e0bff1f0570402871f2144fd179dc448d3eade143e1e5d82a8c",
        "table.csv": "d4a918b78294ce51862d1415bdac163f91535f1874afbc8651a2d38152a2bd4f",
        "table_segments.csv": "ca21a4b3ad76bdd49e0e745f4ed4b22ef26041d6ab816f7f8bb38213b23a7da0",
    },
    "nouns.cfg": {
        "sentences.csv": "9be010529a184e0bff1f0570402871f2144fd179dc448d3eade143e1e5d82a8c",
        "table.csv": "8e7511e2d44281af1e6dc8068ad012bf4920d24c8c0176769afc66a8cd482584",
    },
    # One row per paragraph, as in the sections_long workload.
    "sections.cfg unit=paragraph": {
        "table.csv": "254056b27f3ecb9c90a448ac4f8dbee22354ed396dae9d3e2b244ebd61a90ea4",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_bundled_configs_reproduce_golden_tables(name, data_dir, tmp_path):
    file, *overrides = name.split()  # a config file, then key=value overrides
    config = dataclasses.replace(pipeline.parse_config(data_dir / "configs" / file),
                                 **dict(override.split("=") for override in overrides))
    result = pipeline.run_pipeline(config, out_dir=tmp_path, upto="aggregate")
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in result.files.values()}
    assert {file: digests.get(file) for file in GOLDEN[name]} == GOLDEN[name]


# The run summary of each bundled config, as the CLI prints it.
SUMMARIES = {
    "sections.cfg": [
        "segment: 321 sentences, 123 paragraphs",
        "tokenize: 1738 distinct words, 7098 occurrences",
        "build: 321 sentence rows x 1738 words",
        "filter: 275 words, 1541 occurrences, 308 non-empty rows, 13 emptied",
        "aggregate: 8 segments",
        "fit_ca: 7 axes, total inertia 1.90805",
        "cluster: constrained tree over 8 rows (7 axes)",
        "cut: 6 clusters (sizes 1/2/1/1/2/1)",
        "vtest: 76 significant word/cluster pairs at alpha 0.05",
        "plot: 3 SVG files",
    ],
    "nouns.cfg": [
        "segment: 321 sentences, 123 paragraphs",
        "tokenize: 1738 distinct words, 7098 occurrences",
        "build: 321 sentence rows x 1738 words",
        "filter: 48 words, 423 occurrences, 211 non-empty rows, 110 emptied",
        "fit_ca: 47 axes, total inertia 22.6433",
        "cluster: constrained tree over 211 rows (5 axes)",
        "cut: 3 clusters (sizes 53/97/61)",
        "vtest: 12 significant word/cluster pairs at alpha 0.05",
        "plot: 2 SVG files",
    ],
}


def test_bundled_config_summaries(data_dir, tmp_path):
    for name, summary in SUMMARIES.items():
        config = pipeline.parse_config(data_dir / "configs" / name)
        assert pipeline.run_pipeline(config, out_dir=tmp_path / name).summary == summary


def test_tokens_share_one_string_per_distinct_word(data_dir, tmp_path):
    config = pipeline.parse_config(data_dir / "configs" / "sections.cfg")
    tokens = pipeline.run_pipeline(config, out_dir=tmp_path, upto="tokenize").tokens
    distinct = {t for tl in tokens for t in tl.tokens}
    assert len(distinct) < sum(len(tl.tokens) for tl in tokens)
    assert len({id(t) for tl in tokens for t in tl.tokens}) == len(distinct)


def test_rerun_is_byte_identical(mini):
    root, write_config = mini
    config = pipeline.parse_config(write_config())
    first = pipeline.run_pipeline(config, out_dir=root / "a")
    second = pipeline.run_pipeline(config, out_dir=root / "b")
    assert set(first.files) == set(second.files)
    for name, path in first.files.items():
        assert path.read_bytes() == second.files[name].read_bytes(), name
    assert first.summary == second.summary


def test_upto_stops_after_each_stage(mini):
    root, write_config = mini
    config = pipeline.parse_config(write_config())
    expected = {
        "tokenize": {"sentences.csv"},
        "filter": {"sentences.csv", "table.csv"},
        "fit_ca": {"sentences.csv", "table.csv", "inertia.csv",
                   "row_coordinates.csv", "col_coordinates.csv",
                   "row_contributions.csv", "col_contributions.csv"},
        "cut": {"sentences.csv", "table.csv", "inertia.csv",
                "row_coordinates.csv", "col_coordinates.csv",
                "row_contributions.csv", "col_contributions.csv",
                "dendrogram.txt", "partition.csv"},
    }
    for stage, names in expected.items():
        out = root / f"upto_{stage}"
        result = pipeline.run_pipeline(config, out_dir=out, upto=stage)
        assert {p.name for p in out.iterdir()} == names
        assert result.summary[-1].startswith(f"{stage}:")
    with pytest.raises(ValueError, match="unknown stage"):
        pipeline.run_pipeline(config, out_dir=root / "x", upto="polish")


def test_stage_error_names_stage_and_removes_outputs(mini):
    root, write_config = mini
    config = pipeline.parse_config(write_config(min_total_count=999))
    out = root / "broken"
    with pytest.raises(pipeline.StageError) as excinfo:
        pipeline.run_pipeline(config, out_dir=out)
    assert excinfo.value.stage == "filter"
    assert str(excinfo.value).startswith("[filter] ")
    assert isinstance(excinfo.value.__cause__, ValueError)
    # The partial sentences.csv was cleaned up.
    assert list(out.iterdir()) == []


def test_rerun_with_fewer_stages_leaves_only_its_own_artifacts(mini):
    root, write_config = mini
    out = root / "out"
    pipeline.run_pipeline(pipeline.parse_config(write_config()), out_dir=out)
    (out / "notes.txt").write_text("not an artifact", encoding="utf-8")
    assert cli.main(["cluster", "--config", str(write_config("k4.cfg", cut=4)),
                     "--out", str(out)]) == 0
    assert {p.name for p in out.iterdir()} == {
        "sentences.csv", "table.csv", "inertia.csv",
        "row_coordinates.csv", "col_coordinates.csv",
        "row_contributions.csv", "col_contributions.csv",
        "dendrogram.txt", "partition.csv", "notes.txt"}
    rows = (out / "partition.csv").read_text(encoding="utf-8").splitlines()[1:]
    clusters = {line.split(",")[1] for line in rows}
    assert clusters == {"1", "2", "3", "4"}


def test_failed_rerun_leaves_no_artifacts_of_the_previous_run(mini):
    root, write_config = mini
    out = root / "out"
    pipeline.run_pipeline(pipeline.parse_config(write_config()), out_dir=out)
    assert {p.name for p in out.iterdir()} == FULL_RUN_FILES
    with pytest.raises(pipeline.StageError) as excinfo:
        pipeline.run_pipeline(pipeline.parse_config(write_config(cut=999)), out_dir=out)
    assert excinfo.value.stage == "cut"
    assert list(out.iterdir()) == []


def test_empty_text_is_a_segment_error(mini):
    root, write_config = mini
    for name, text in (("empty.txt", ""), ("blank.txt", "  \n\n\t\n")):
        (root / name).write_text(text, encoding="utf-8")
        config = pipeline.parse_config(write_config(input_text=name))
        with pytest.raises(pipeline.StageError) as excinfo:
            pipeline.run_pipeline(config, out_dir=root / "out")
        assert excinfo.value.stage == "segment"
        assert str(excinfo.value) == f"[segment] {root / name} holds no sentences"


def test_run_requires_an_output_directory(mini):
    _, write_config = mini
    config = pipeline.parse_config(write_config())
    with pytest.raises(ValueError, match="output directory"):
        pipeline.run_pipeline(config)


def test_aggregated_run_adds_segment_artifacts(mini):
    root, write_config = mini
    config = pipeline.parse_config(write_config(
        segment_ranges="1-1,2-2,3-3", cluster="ward", cut="max-gap",
    ))
    result = pipeline.run_pipeline(config, out_dir=root / "out")
    names = {p.name for p in result.files.values()}
    assert names == FULL_RUN_FILES | {"table_segments.csv", "factor_plane_segments.svg"}
    assert result.table.shape[0] == 3
    assert any(line.startswith("aggregate: 3 segments") for line in result.summary)
    trajectory = result.files["plane_rows"].read_text(encoding="utf-8")
    assert trajectory.count('marker-end="url(#arrow)"') == 2
    segments = corpus.table_from_csv(result.files["segments"].read_text(encoding="utf-8"))
    assert segments.row_labels == ("1", "2", "3")
    assert segments.total == result.table.total


def test_segment_variants_produce_identical_tables(mini):
    root, write_config = mini
    (root / "seg.csv").write_text(
        "".join(f"{i},{(i - 1) // 3 + 1}\n" for i in range(1, 10)), encoding="utf-8")
    configs = {
        "by_paragraph": write_config("p.cfg", segment_ranges="1-1,2-2,3-3"),
        "by_row": write_config("r.cfg", segment_ranges="1-3,4-6,7-9",
                               segment_by="row"),
        "by_file": write_config("f.cfg", segment_file="seg.csv"),
    }
    tables = {}
    for name, path in configs.items():
        result = pipeline.run_pipeline(
            pipeline.parse_config(path), out_dir=root / name, upto="aggregate"
        )
        tables[name] = result.files["segments"].read_bytes()
    assert tables["by_paragraph"] == tables["by_row"] == tables["by_file"]


def test_segment_size_mismatch_is_a_stage_error(mini):
    root, write_config = mini
    config = pipeline.parse_config(
        write_config(segment_ranges="1-4,5-9", segment_by="row")
    )
    ok = pipeline.run_pipeline(config, out_dir=root / "ok", upto="aggregate")
    assert ok.table.shape[0] == 2
    bad = pipeline.parse_config(
        write_config("bad.cfg", segment_ranges="1-4,5-8", segment_by="row")
    )
    with pytest.raises(pipeline.StageError, match=r"\[aggregate\]"):
        pipeline.run_pipeline(bad, out_dir=root / "bad")
    seg_file = root / "seg.csv"
    seg_file.write_text("1,1\n# comment\nnolabel\n", encoding="utf-8")
    malformed = pipeline.parse_config(write_config("file.cfg", segment_file="seg.csv"))
    with pytest.raises(pipeline.StageError,
                       match=rf"\[aggregate\] {re.escape(str(seg_file))}:3: expected 'label,segment'"):
        pipeline.run_pipeline(malformed, out_dir=root / "file")


def test_segment_file_duplicate_label_is_a_stage_error(mini):
    root, write_config = mini
    seg_file = root / "seg.csv"
    seg_file.write_text("1,1\n3,2\n# comment\n3,1\n", encoding="utf-8")
    config = pipeline.parse_config(write_config(segment_file="seg.csv"))
    with pytest.raises(pipeline.StageError,
                       match=rf"\[aggregate\] {re.escape(str(seg_file))}:4: duplicate label '3'$"):
        pipeline.run_pipeline(config, out_dir=root / "out")


# A paragraph whose words the mini config's stopwords and thresholds all remove.
FILTERED_PARAGRAPH = "The end came at night.\n"


def _aggregate_error(root, config_path):
    with pytest.raises(pipeline.StageError) as excinfo:
        pipeline.run_pipeline(pipeline.parse_config(config_path), out_dir=root / "out")
    assert excinfo.value.stage == "aggregate"
    assert not (root / "out" / "table_segments.csv").exists()
    return str(excinfo.value)


def test_trailing_segment_the_filter_empties_is_a_stage_error(mini):
    root, write_config = mini
    (root / "story.txt").write_text(STORY + "\n" + FILTERED_PARAGRAPH, encoding="utf-8")
    config = write_config(segment_sizes="1,1,1,1")
    assert _aggregate_error(root, config) == \
        "[aggregate] segment 4 of 4 has no rows after filtering"


def test_segments_past_the_last_paragraph_are_a_stage_error(mini):
    root, write_config = mini
    config = write_config(segment_sizes="1,1,1,1,5")
    assert _aggregate_error(root, config) == \
        "[aggregate] segment 4 of 5 has no rows after filtering"


def test_middle_segment_the_filter_empties_is_a_stage_error(mini):
    root, write_config = mini
    first, rest = STORY.split("\n\n", 1)
    (root / "story.txt").write_text(f"{first}\n\n{FILTERED_PARAGRAPH}\n{rest}", encoding="utf-8")
    assert _aggregate_error(root, write_config(segment_sizes="1,1,1,1")) == \
        "[aggregate] segment 2 of 4 has no rows after filtering"
    # The same segment declared by a segment file: sentence 4 is the emptied one.
    seg_file = root / "seg.csv"
    seg_file.write_text("".join(f"{i},{1 if i < 4 else 2 if i == 4 else 3}\n"
                                for i in range(1, 11)), encoding="utf-8")
    assert _aggregate_error(root, write_config(segment_file="seg.csv")) == \
        "[aggregate] segment 2 of 3 has no rows after filtering"
    # A file whose own ids skip one is rejected as such.
    seg_file.write_text("".join(f"{i},{1 if i < 4 else 3}\n" for i in range(1, 11)), encoding="utf-8")
    assert _aggregate_error(root, write_config(segment_file="seg.csv")) == \
        f"[aggregate] {seg_file}: segment ids must be 1..k, got 2 ids from 1 to 3"


def test_segment_file_label_must_name_a_built_row(mini):
    root, write_config = mini
    (root / "story.txt").write_text(STORY + "\n" + FILTERED_PARAGRAPH, encoding="utf-8")
    # Sentence 10 is built, then emptied by the filter: its label is allowed.
    sentences = "".join(f"{i},{min((i - 1) // 3 + 1, 3)}\n" for i in range(1, 11))
    seg_file = root / "seg.csv"
    seg_file.write_text(sentences, encoding="utf-8")
    config = write_config(segment_file="seg.csv")
    built = pipeline.run_pipeline(pipeline.parse_config(config), out_dir=root / "ok", upto="build")
    assert built.table.row_labels[-1] == "10"
    result = pipeline.run_pipeline(pipeline.parse_config(config), out_dir=root / "ok",
                                   upto="aggregate")
    assert result.summary[-1].startswith("aggregate: 3 segments")
    for bad in ("99,3", "sentence 4,2"):
        seg_file.write_text(f"{sentences}# typo\n{bad}\n", encoding="utf-8")
        label = bad.partition(",")[0]
        assert _aggregate_error(root, config) == \
            f"[aggregate] {seg_file}:12: label {label!r} names no row of the built table"


def test_segment_file_must_give_every_kept_row_a_segment(mini):
    root, write_config = mini
    seg_file = root / "seg.csv"
    seg_file.write_text("".join(f"{i},{(i - 1) // 3 + 1}\n" for i in range(1, 10) if i != 5), encoding="utf-8")
    assert _aggregate_error(root, write_config(segment_file="seg.csv")) == \
        f"[aggregate] {seg_file}: row '5' has no segment"


def test_segment_file_ids_must_not_fall_in_row_order(mini):
    root, write_config = mini
    seg_file = root / "seg.csv"
    seg_file.write_text("".join(f"{i},{(1, 2, 1)[(i - 1) // 3]}\n" for i in range(1, 10)), encoding="utf-8")
    assert _aggregate_error(root, write_config(segment_file="seg.csv")) == \
        "[aggregate] segment ids are not contiguous in row order"


def test_segment_sizes_must_sum_to_the_rows_and_be_positive(mini):
    root, write_config = mini
    assert _aggregate_error(root, write_config(segment_sizes="4,4", segment_by="row")) == \
        "[aggregate] segment sizes sum to 8, expected 9"
    assert _aggregate_error(root, write_config(segment_sizes="1,1")) == \
        "[aggregate] segment sizes cover paragraphs 1..2 but the table reaches paragraph 3"
    with pytest.raises(ValueError, match="^segment sizes must be positive$"):
        pipeline.parse_config(write_config(segment_sizes="9,0", segment_by="row"))


def test_segment_sizes_are_summed_without_overflow(mini):
    # Three sizes of 2**63 - 1 wrap an int64 running total to a negative.
    root, write_config = mini
    huge = ",".join([str(2**63 - 1)] * 3)
    assert _aggregate_error(root, write_config(segment_sizes=f"1,1,1,{huge}")) == \
        "[aggregate] segment 4 of 6 has no rows after filtering"
    assert _aggregate_error(root, write_config(segment_sizes=f"4,5,{huge}", segment_by="row")) == \
        f"[aggregate] segment sizes sum to {9 + 3 * (2**63 - 1)}, expected 9"

def test_segment_range_far_past_the_text_costs_no_memory_per_paragraph(data_dir, tmp_path):
    # The bundled text has 123 paragraphs; a last range that declares
    # 200,000 must not cost memory that grows with the declared paragraphs.
    template = (data_dir / "configs" / "sections.cfg").read_text(encoding="utf-8")
    assert "118-123\n" in template

    def traced_peak(last_range):
        config = tmp_path / f"{last_range}.cfg"
        config.write_text(template.replace("../", f"{data_dir}/")
                          .replace("118-123\n", f"{last_range}\n"), encoding="utf-8")
        tracemalloc.start()
        try:
            result = pipeline.run_pipeline(pipeline.parse_config(config),
                                           out_dir=tmp_path / last_range, upto="aggregate")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.summary[-1] == "aggregate: 8 segments"
        return peak

    assert traced_peak("118-200000") < 2 * traced_peak("118-123")


def test_write_encodes_a_table_a_line_at_a_time(tmp_path):
    result = pipeline.PipelineResult(out_dir=tmp_path)
    text = "r1,0.123456789012,-4.5e-07\n" * 300_000  # 8.1 MB
    lines = text.splitlines(keepends=True)  # as the CA writers give a table
    tracemalloc.start()
    try:
        pipeline._write(result, "row_coords", lines)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.files["row_coords"].read_bytes() == text.encode()
    # A line at a time and the file's buffer; encoding all the text at once copies 8 MB.
    assert peak < 3e6
    # Characters of two and three UTF-8 bytes, in a text given whole.
    text = "caf\u00e9,\u2014,1\n" * 13_107
    pipeline._write(result, "col_coords", text)
    assert result.files["col_coords"].read_bytes() == text.encode()


def test_token_lists_are_released_once_counted(mini):
    root, write_config = mini
    config = pipeline.parse_config(write_config())
    tokenized = pipeline.run_pipeline(config, out_dir=root / "out", upto="tokenize")
    assert len(tokenized.tokens) == len(tokenized.sentences)
    built = pipeline.run_pipeline(config, out_dir=root / "out", upto="build")
    assert built.tokens is None
    assert built.table.total == sum(len(tl.tokens) for tl in tokenized.tokens)


@pytest.mark.parametrize("overrides", [{}, {"segment_sizes": "1,1,1"}],
                         ids=["no_aggregate", "aggregate"])
def test_built_table_is_released_once_filtered(mini, monkeypatch, overrides):
    # The filter replaces the built table with its own: the filtered table
    # is written, and aggregated, with the built one already gone.
    root, write_config = mini
    count_cells = corpus.count_cells
    built, alive = [], []

    def counting(*args):
        cells = count_cells(*args)
        built.append(weakref.ref(cells))
        return cells

    def watching(name):
        function = getattr(corpus, name)
        return lambda *args: alive.append((name, built[0]() is not None)) or function(*args)

    monkeypatch.setattr(corpus, "count_cells", counting)
    for name in ("aggregate", "table_csv_rows"):
        monkeypatch.setattr(corpus, name, watching(name))
    result = pipeline.run_pipeline(pipeline.parse_config(write_config(**overrides)),
                                   out_dir=root / "out")
    calls = [("table_csv_rows", False)]
    if overrides:
        calls += [("aggregate", False), ("table_csv_rows", False)]
    assert alive == calls
    assert result.model is not None


def test_paragraph_unit_runs_end_to_end(mini):
    root, write_config = mini
    config = pipeline.parse_config(write_config(unit="paragraph", cut=2))
    result = pipeline.run_pipeline(config, out_dir=root / "out")
    # Per-paragraph document frequencies drop "search" and "minister".
    assert result.table.row_labels == ("1", "2", "3")
    assert result.table.col_labels == ("letter", "room", "police", "poet")
    assert result.partition.k == 2
    # Segment sizes count the paragraph rows themselves.
    segmented = pipeline.run_pipeline(
        pipeline.parse_config(write_config("s.cfg", unit="paragraph", segment_sizes="1,2", cut=2)),
        out_dir=root / "segments", upto="aggregate")
    assert segmented.summary[-1] == "aggregate: 2 segments"
    assert segmented.files["segments"].read_text(encoding="utf-8") == \
        "".join(corpus.table_csv_rows(corpus.aggregate(result.table, [1, 2, 2])))
    assert _aggregate_error(root, write_config("short.cfg", unit="paragraph", segment_sizes="1,1")) \
        == "[aggregate] segment sizes cover paragraphs 1..2 but the table reaches paragraph 3"


def test_word_plane_draws_the_top_contributors(mini):
    root, write_config = mini
    config = pipeline.parse_config(write_config(plot_top_k=3))
    result = pipeline.run_pipeline(config, out_dir=root / "out")
    svg = ET.fromstring(result.files["plane_cols"].read_text(encoding="utf-8"))
    drawn = [text.text for text in svg.iter("{http://www.w3.org/2000/svg}text")
             if text.get("fill") == "#d62728"]  # the word points' colour
    top = [word for word, _ in ca.top_contributors(result.model, (1, 2), 3, side="col")]
    assert len(drawn) == 3 and sorted(drawn) == sorted(top)
    assert "top 3 contributing words" in result.files["plane_cols"].read_text(encoding="utf-8")


def test_plot_axes_that_collapse_are_a_plot_error(mini):
    root, write_config = mini
    # Three segments give two fitted axes: axes 2 and 3 both clamp to axis 2.
    config = pipeline.parse_config(write_config(segment_ranges="1-1,2-2,3-3", cut=2,
                                                plot_axes="2,3"))
    with pytest.raises(pipeline.StageError) as excinfo:
        pipeline.run_pipeline(config, out_dir=root / "out")
    assert excinfo.value.stage == "plot"
    assert str(excinfo.value) == ("[plot] cannot draw a plane: axes (2, 3) collapse onto "
                                  "axis 2 in a model with 2 fitted axes")
    assert list((root / "out").iterdir()) == []


@pytest.mark.parametrize("kind", ["config", "story.txt", "stop.txt", "lexicon.txt",
                                  "abbreviations.txt", "speakers.csv", "seg.csv"])
def test_byte_order_mark_changes_no_result(mini, kind):
    # Some editors start a UTF-8 file with U+FEFF; every input reads the same with it.
    root, write_config = mini
    (root / "story.txt").write_text(STORY.replace("A poet sees", "Mr. Poe sees"), encoding="utf-8")
    (root / "stop.txt").write_text("poet\nthe\n", encoding="utf-8")  # each list's first entry counts
    (root / "lexicon.txt").write_text("\n".join(VOCAB) + "\n", encoding="utf-8")
    (root / "abbreviations.txt").write_text("Mr\n", encoding="utf-8")
    (root / "speakers.csv").write_text("paragraph_id,label\n1,NARRATOR\n2,G\n3,DUPIN\n", encoding="utf-8")
    (root / "seg.csv").write_text("".join(f"{i},{(i - 1) // 3 + 1}\n" for i in range(1, 10)), encoding="utf-8")
    config = write_config(lexicon="lexicon.txt", abbreviations="abbreviations.txt",
                          speakers="speakers.csv", segment_file="seg.csv", cut=2)

    def run(out):
        result = pipeline.run_pipeline(pipeline.parse_config(config), out_dir=root / out)
        return result.summary, {p.name: p.read_bytes() for p in (root / out).iterdir()}

    plain = run("plain")
    path = config if kind == "config" else root / kind
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert run("bom") == plain


def test_speaker_annotation_flows_into_sentences_csv(mini):
    root, write_config = mini
    (root / "speakers.csv").write_text(
        "paragraph_id,label\n1,NARRATOR\n2,DUPIN\n3,PREFECT\n", encoding="utf-8")
    config = pipeline.parse_config(write_config(speakers="speakers.csv"))
    result = pipeline.run_pipeline(config, out_dir=root / "out", upto="tokenize")
    assert {r.speaker for r in result.sentences} == {"NARRATOR", "DUPIN", "PREFECT"}
    lines = result.files["sentences"].read_text(encoding="utf-8").splitlines()
    assert lines[1].split(",")[2] == "NARRATOR"
    assert lines[-1].split(",")[2] == "PREFECT"


def test_cli_run_prints_summary_and_writes_files(mini, capsys):
    root, write_config = mini
    out = root / "cli_out"
    rc = cli.main(["run", "--config", str(write_config()), "--out", str(out)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "segment: 9 sentences, 3 paragraphs" in captured.out
    assert f"wrote {len(FULL_RUN_FILES)} files to {out}" in captured.out
    assert {p.name for p in out.iterdir()} == FULL_RUN_FILES


def test_cli_subcommands_stop_at_their_stage(mini):
    root, write_config = mini
    config_path = write_config()
    for command, names in {
        "prep": {"sentences.csv"},
        "corpus": {"sentences.csv", "table.csv"},
        "cluster": {"sentences.csv", "table.csv", "inertia.csv",
                    "row_coordinates.csv", "col_coordinates.csv",
                    "row_contributions.csv", "col_contributions.csv",
                    "dendrogram.txt", "partition.csv"},
    }.items():
        out = root / f"cli_{command}"
        assert cli.main([command, "--config", str(config_path), "--out", str(out)]) == 0
        assert {p.name for p in out.iterdir()} == names


def test_cli_out_overrides_config_out_dir(mini, capsys):
    root, write_config = mini
    config_path = write_config(out_dir=str(root / "from_config"))
    override = root / "from_flag"
    assert cli.main(["prep", "--config", str(config_path), "--out", str(override)]) == 0
    capsys.readouterr()
    assert (override / "sentences.csv").is_file()
    assert not (root / "from_config").exists()


def test_cli_reports_stage_errors_on_stderr(mini, capsys):
    root, write_config = mini
    bad = write_config(min_total_count=999)
    rc = cli.main(["run", "--config", str(bad), "--out", str(root / "out")])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error [filter]")


def test_cli_reports_config_errors(mini, capsys):
    root, _ = mini
    rc = cli.main(["run", "--config", str(root / "absent.cfg"), "--out", str(root / "o")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("key, stage", [
    ("input_text", "segment"), ("abbreviations", "segment"), ("speakers", "segment"),
    ("stopwords", "filter"), ("lexicon", "filter"), ("segment_file", "aggregate"),
    (None, None),  # the config itself
])
def test_cli_names_an_input_file_that_is_not_utf8(mini, capsys, key, stage):
    root, write_config = mini
    bad = root / "latin1.txt"
    bad.write_bytes("caf\u00e9\n".encode("latin-1"))
    if key is None:
        config, prefix = bad, "error: "
    else:
        config, prefix = write_config(**{key: bad.name}), f"error [{stage}] "
        bad = bad.resolve()  # config paths are resolved
    assert cli.main(["run", "--config", str(config), "--out", str(root / "out")]) == 1
    assert capsys.readouterr().err == f"{prefix}{bad}: not UTF-8: invalid continuation byte at byte 3\n"


CA_FILES = {"row_coords": ("coordinates_csv", "row"), "col_coords": ("coordinates_csv", "col"),
            "row_contrib": ("contributions_csv", "row"),
            "col_contrib": ("contributions_csv", "col")}


def test_ca_export_equals_the_ca_writers(mini):
    root, write_config = mini
    result = pipeline.run_pipeline(pipeline.parse_config(write_config()),
                                   out_dir=root / "out", upto="fit_ca")
    assert list(result.files)[-5:] == ["inertia", *CA_FILES]
    for key, (writer, side) in CA_FILES.items():
        expected = "".join(getattr(ca, writer)(result.model, side))
        assert result.files[key].read_text(encoding="utf-8") == expected


@pytest.mark.parametrize("writer", ["coordinates_csv", "contributions_csv"])
def test_failing_ca_writer_is_a_fit_ca_stage_error(mini, monkeypatch, writer):
    root, write_config = mini
    error = ValueError(f"no row {writer.partition('_')[0]}")

    def broken(model, side="row"):
        raise error

    monkeypatch.setattr(ca, writer, broken)
    out = root / "out"
    with pytest.raises(pipeline.StageError) as excinfo:
        pipeline.run_pipeline(pipeline.parse_config(write_config()), out_dir=out)
    assert str(excinfo.value) == f"[fit_ca] {error}"
    assert excinfo.value.__cause__ is error
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("module, writer, failing_call, stage", [
    (ca, "coordinates_csv", 1, "fit_ca"),
    (corpus, "table_csv_rows", 1, "filter"),  # table.csv
    (corpus, "table_csv_rows", 2, "aggregate"),  # table_segments.csv
], ids=["fit_ca", "filter", "aggregate"])
def test_writer_failing_after_its_header_leaves_no_file(mini, monkeypatch, module, writer,
                                                        failing_call, stage):
    # The tables' lines are formatted while the stage writes them, so a
    # writer can fail with its file half written; the run removes it.
    root, write_config = mini
    error = ValueError("no row block")
    real, calls = getattr(module, writer), []

    def failing(*args):
        calls.append(args)
        lines = real(*args)
        yield next(lines)  # the header
        if len(calls) < failing_call:
            yield from lines
        else:
            raise error

    monkeypatch.setattr(module, writer, failing)
    out = root / "out"
    config = pipeline.parse_config(write_config(segment_ranges="1-1,2-2,3-3"))
    with pytest.raises(pipeline.StageError) as excinfo:
        pipeline.run_pipeline(config, out_dir=out)
    assert str(excinfo.value) == f"[{stage}] {error}"
    assert excinfo.value.__cause__ is error
    assert list(out.iterdir()) == []


def test_interrupted_run_leaves_no_file(mini, monkeypatch):
    # An interrupt in the middle of a table is not a stage error: it goes on
    # as it was raised, and the run's files, the half-written one too, go.
    root, write_config = mini
    real = ca.contributions_csv

    def interrupted(model, side="row"):
        lines = real(model, side)
        yield next(lines)
        yield next(lines)
        raise KeyboardInterrupt

    monkeypatch.setattr(ca, "contributions_csv", interrupted)
    out = root / "out"
    with pytest.raises(KeyboardInterrupt):
        pipeline.run_pipeline(pipeline.parse_config(write_config()), out_dir=out)
    assert list(out.iterdir()) == []


def test_cli_run_prints_its_summary_once(mini, capfd):
    root, write_config = mini
    out = root / "out"
    assert cli.main(["run", "--config", str(write_config()), "--out", str(out)]) == 0
    captured = capfd.readouterr()
    lines = captured.out.splitlines()
    # Nine stage lines (no aggregate) and the closing line, none repeated.
    assert [line.partition(":")[0] for line in lines[:-1]] == [
        stage for stage in pipeline.STAGES if stage != "aggregate"]
    assert lines[-1] == f"wrote {len(FULL_RUN_FILES)} files to {out}"
    assert captured.err == ""


def test_full_run_raises_no_warning(mini):
    root, write_config = mini
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pipeline.run_pipeline(pipeline.parse_config(write_config()), out_dir=root / "out")
