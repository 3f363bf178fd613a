"""pyproject.toml's package data matches the files the package holds."""

from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "storyfactors"


def test_package_data_globs_match_the_data_files():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(ROOT / "pyproject.toml", "rb") as handle:
        globs = tomllib.load(handle)["tool"]["setuptools"]["package-data"]["storyfactors"]
    matched = {glob: set(PACKAGE.glob(glob)) for glob in globs}
    assert [glob for glob, files in matched.items() if not files] == []
    data_files = {path for path in (PACKAGE / "data").rglob("*") if path.is_file()}
    assert sorted(data_files - set().union(*matched.values())) == []
