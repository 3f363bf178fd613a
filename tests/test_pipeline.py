"""Config parsing, staged execution, artifact consistency, CLI behavior."""

import hashlib
import os
import re
import time
import warnings

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
    (tmp_path / "story.txt").write_text(STORY)
    (tmp_path / "stop.txt").write_text("the\nin\nat\na\nagain\n")

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
        path.write_text("".join(f"{k} = {v}\n" for k, v in options.items()))
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
    duplicated.write_text("input_text = story.txt\ninput_text = story.txt\n")
    with pytest.raises(ValueError, match="duplicate key"):
        pipeline.parse_config(duplicated)
    bare = root / "bare.cfg"
    bare.write_text("just some words\n")
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
        path.write_text(f"input_text = story.txt\n{first}\n# a comment\n{second}\n")
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
    path.write_text(f"input_text = story.txt\n# a comment\n{key} = {value}\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: bad value for {key!r}: ")):
        pipeline.parse_config(path)

def test_config_validate_catches_bad_values(mini):
    _, write_config = mini
    cases = {
        "unit": "chapter",
        "cluster": "kmeans",
        "cut": "soft",
        "vtest_alpha": "1.5",
        "plot_axes": "2,2",
        "axes": "-1",
        "min_doc_count": "0",
        "plot_top_k": "0",
    }
    for key, value in cases.items():
        with pytest.raises(ValueError):
            pipeline.parse_config(write_config(**{key: value}))


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
    assert n_sentences == len(result.files["sentences"].read_text().splitlines()) - 1

    words, occurrences, rows = map(int, re.match(
        r"filter: (\d+) words, (\d+) occurrences, (\d+) non-empty rows",
        summary["filter"]).groups())
    table = corpus.table_from_csv(result.files["table"].read_text())
    assert (words, rows) == (table.shape[1], table.shape[0])
    assert occurrences == table.total

    sizes = [int(s) for s in re.search(r"sizes ([\d/]+)", summary["cut"])[1].split("/")]
    partition_rows = result.files["partition"].read_text().splitlines()[1:]
    counts = {}
    for line in partition_rows:
        counts[line.split(",")[1]] = counts.get(line.split(",")[1], 0) + 1
    assert sizes == [counts[str(c)] for c in range(1, len(sizes) + 1)]

    n_pairs = int(re.search(r"vtest: (\d+) significant", summary["vtest"])[1])
    assert n_pairs == len(result.files["vtest"].read_text().splitlines()) - 1


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
        "table.csv": "8e7511e2d44281af1e6dc8068ad012bf4920d24c8c0176769afc66a8cd482584",
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_bundled_configs_reproduce_golden_tables(name, data_dir, tmp_path):
    config = pipeline.parse_config(data_dir / "configs" / name)
    result = pipeline.run_pipeline(config, out_dir=tmp_path, upto="aggregate")
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in result.files.values()}
    assert {file: digests.get(file) for file in GOLDEN[name]} == GOLDEN[name]


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
    assert isinstance(excinfo.value.cause, ValueError)
    # The partial sentences.csv was cleaned up.
    assert list(out.iterdir()) == []


def test_rerun_with_fewer_stages_leaves_only_its_own_artifacts(mini):
    root, write_config = mini
    out = root / "out"
    pipeline.run_pipeline(pipeline.parse_config(write_config()), out_dir=out)
    (out / "notes.txt").write_text("not an artifact")
    assert cli.main(["cluster", "--config", str(write_config("k4.cfg", cut=4)),
                     "--out", str(out)]) == 0
    assert {p.name for p in out.iterdir()} == {
        "sentences.csv", "table.csv", "inertia.csv",
        "row_coordinates.csv", "col_coordinates.csv",
        "row_contributions.csv", "col_contributions.csv",
        "dendrogram.txt", "partition.csv", "notes.txt"}
    clusters = {line.split(",")[1] for line in (out / "partition.csv").read_text().splitlines()[1:]}
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
        (root / name).write_text(text)
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
    trajectory = result.files["plane_rows"].read_text()
    assert trajectory.count('marker-end="url(#arrow)"') == 2
    segments = corpus.table_from_csv(result.files["segments"].read_text())
    assert segments.row_labels == ("1", "2", "3")
    assert segments.total == result.table.total


def test_segment_variants_produce_identical_tables(mini):
    root, write_config = mini
    (root / "seg.csv").write_text(
        "".join(f"{i},{(i - 1) // 3 + 1}\n" for i in range(1, 10))
    )
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
    seg_file.write_text("1,1\n# comment\nnolabel\n")
    malformed = pipeline.parse_config(write_config("file.cfg", segment_file="seg.csv"))
    with pytest.raises(pipeline.StageError,
                       match=rf"\[aggregate\] {re.escape(str(seg_file))}:3: expected 'label,segment'"):
        pipeline.run_pipeline(malformed, out_dir=root / "file")


def test_segment_file_duplicate_label_is_a_stage_error(mini):
    root, write_config = mini
    seg_file = root / "seg.csv"
    seg_file.write_text("1,1\n3,2\n# comment\n3,1\n")
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
    (root / "story.txt").write_text(STORY + "\n" + FILTERED_PARAGRAPH)
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
    (root / "story.txt").write_text(f"{first}\n\n{FILTERED_PARAGRAPH}\n{rest}")
    assert _aggregate_error(root, write_config(segment_sizes="1,1,1,1")) == \
        "[aggregate] segment 2 of 4 has no rows after filtering"
    # The same segment declared by a segment file: sentence 4 is the emptied one.
    seg_file = root / "seg.csv"
    seg_file.write_text("".join(f"{i},{1 if i < 4 else 2 if i == 4 else 3}\n"
                                for i in range(1, 11)))
    assert _aggregate_error(root, write_config(segment_file="seg.csv")) == \
        "[aggregate] segment 2 of 3 has no rows after filtering"
    # A file whose own ids skip one is rejected as such.
    seg_file.write_text("".join(f"{i},{1 if i < 4 else 3}\n" for i in range(1, 11)))
    assert _aggregate_error(root, write_config(segment_file="seg.csv")) == \
        f"[aggregate] {seg_file}: segment ids must be 1..k, got 2 ids from 1 to 3"


def test_segment_file_label_must_name_a_built_row(mini):
    root, write_config = mini
    (root / "story.txt").write_text(STORY + "\n" + FILTERED_PARAGRAPH)
    # Sentence 10 is built, then emptied by the filter: its label is allowed.
    sentences = "".join(f"{i},{min((i - 1) // 3 + 1, 3)}\n" for i in range(1, 11))
    seg_file = root / "seg.csv"
    seg_file.write_text(sentences)
    config = write_config(segment_file="seg.csv")
    result = pipeline.run_pipeline(pipeline.parse_config(config), out_dir=root / "ok",
                                   upto="aggregate")
    assert result.cells.row_labels[-1] == "10"
    assert result.summary[-1].startswith("aggregate: 3 segments")
    for bad in ("99,3", "sentence 4,2"):
        seg_file.write_text(f"{sentences}# typo\n{bad}\n")
        label = bad.partition(",")[0]
        assert _aggregate_error(root, config) == \
            f"[aggregate] {seg_file}:12: label {label!r} names no row of the built table"


def test_paragraph_unit_runs_end_to_end(mini):
    root, write_config = mini
    config = pipeline.parse_config(write_config(unit="paragraph", cut=2))
    result = pipeline.run_pipeline(config, out_dir=root / "out")
    # Per-paragraph document frequencies drop "search" and "minister".
    assert result.table.row_labels == ("1", "2", "3")
    assert result.table.col_labels == ("letter", "room", "police", "poet")
    assert result.partition.k == 2


def test_speaker_annotation_flows_into_sentences_csv(mini):
    root, write_config = mini
    (root / "speakers.csv").write_text(
        "paragraph_id,label\n1,NARRATOR\n2,DUPIN\n3,PREFECT\n"
    )
    config = pipeline.parse_config(write_config(speakers="speakers.csv"))
    result = pipeline.run_pipeline(config, out_dir=root / "out", upto="tokenize")
    assert {r.speaker for r in result.sentences} == {"NARRATOR", "DUPIN", "PREFECT"}
    lines = result.files["sentences"].read_text().splitlines()
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


# The fit_ca stage writes the two contribution files in a forked child.
needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="platform has no os.fork")
CA_FILES = {"row_coords": ("coordinates_csv", "row"), "col_coords": ("coordinates_csv", "col"),
            "row_contrib": ("contributions_csv", "row"),
            "col_contrib": ("contributions_csv", "col")}


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@needs_fork
def test_forked_export_equals_in_process_writers(mini):
    root, write_config = mini
    result = pipeline.run_pipeline(pipeline.parse_config(write_config()),
                                   out_dir=root / "out", upto="fit_ca")
    _assert_no_child_left()
    assert list(result.files)[-5:] == ["inertia", *CA_FILES]
    for key, (writer, side) in CA_FILES.items():
        expected = getattr(ca, writer)(result.model, side)
        assert result.files[key].read_text(encoding="utf-8") == expected


def test_export_without_fork_is_byte_identical(mini, monkeypatch):
    root, write_config = mini
    config = pipeline.parse_config(write_config())
    forked = pipeline.run_pipeline(config, out_dir=root / "forked")
    monkeypatch.delattr(os, "fork", raising=False)
    inline = pipeline.run_pipeline(config, out_dir=root / "inline")
    assert list(inline.files) == list(forked.files)
    for key, path in forked.files.items():
        assert inline.files[key].read_bytes() == path.read_bytes()


@needs_fork
def test_child_failure_is_a_fit_ca_stage_error(mini, monkeypatch):
    root, write_config = mini

    def broken(model, side="row"):
        raise ValueError(f"no {side} contributions")

    monkeypatch.setattr(ca, "contributions_csv", broken)
    out = root / "out"
    with pytest.raises(pipeline.StageError) as excinfo:
        pipeline.run_pipeline(pipeline.parse_config(write_config()), out_dir=out)
    assert excinfo.value.stage == "fit_ca"
    assert str(excinfo.value) == "[fit_ca] ValueError: no row contributions"
    _assert_no_child_left()
    assert list(out.iterdir()) == []


@needs_fork
def test_parent_failure_reaps_the_child_before_cleanup(mini, monkeypatch):
    root, write_config = mini
    contributions_csv = ca.contributions_csv

    def slow(model, side="row"):  # still writing when the parent fails
        time.sleep(0.3)
        return contributions_csv(model, side)

    def broken(model, side="row"):
        raise ValueError("no coordinates")

    monkeypatch.setattr(ca, "contributions_csv", slow)
    monkeypatch.setattr(ca, "coordinates_csv", broken)
    out = root / "out"
    with pytest.raises(pipeline.StageError) as excinfo:
        pipeline.run_pipeline(pipeline.parse_config(write_config()), out_dir=out)
    assert excinfo.value.stage == "fit_ca"
    assert str(excinfo.value) == "[fit_ca] no coordinates"
    _assert_no_child_left()
    assert list(out.iterdir()) == []


@needs_fork
def test_failed_fork_is_a_fit_ca_stage_error(mini, monkeypatch):
    root, write_config = mini

    def no_fork():
        raise BlockingIOError("fork: resource temporarily unavailable")

    config = pipeline.parse_config(write_config())
    open_fds = len(os.listdir("/dev/fd"))
    monkeypatch.setattr(os, "fork", no_fork)
    out = root / "out"
    with pytest.raises(pipeline.StageError) as excinfo:
        pipeline.run_pipeline(config, out_dir=out)
    assert excinfo.value.stage == "fit_ca"
    assert isinstance(excinfo.value.cause, BlockingIOError)
    assert len(os.listdir("/dev/fd")) == open_fds  # the pipe was closed
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
    # CPython 3.12+ warns when a process with threads forks.
    root, write_config = mini
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pipeline.run_pipeline(pipeline.parse_config(write_config()), out_dir=root / "out")
