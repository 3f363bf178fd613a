"""The README's config table and library example match the package."""

import dataclasses
import re
import shutil
from pathlib import Path

from storyfactors import pipeline

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def _config_table() -> dict[str, str]:
    """Key -> default text of the ``| key | default | meaning |`` table."""
    section = README.split("| key | default | meaning |", 1)[1]
    rows = {}
    for line in section.splitlines()[2:]:  # past the |---| rule
        if not line.startswith("|"):
            break
        key, default = (cell.strip().strip("`") for cell in line.split("|")[1:3])
        rows[key] = default
    return rows


def test_readme_config_table_matches_pipeline_config():
    table = _config_table()
    fields = {f.name: f for f in dataclasses.fields(pipeline.PipelineConfig)}
    assert set(table) == set(fields) | {"segment_ranges"}
    for key, text in table.items():
        field = fields["segment_sizes" if key == "segment_ranges" else key]
        if text == "required":
            assert field.default is dataclasses.MISSING, key
        elif text == "none":
            assert field.default is None, key
        else:  # written as the config file would give the value
            assert pipeline._CONVERSIONS[key](text) == field.default, key


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys, data_dir):
    (code,) = re.findall(r"```python\n(.*?)```", README, flags=re.DOTALL)
    shutil.copy(data_dir / "purloined_letter.txt", tmp_path / "story.txt")
    monkeypatch.chdir(tmp_path)
    exec(code, {})
    assert len(capsys.readouterr().out.splitlines()) == 5
