"""Shared fixtures: bundled data paths, the full bundled-text run, helpers."""

from pathlib import Path

# Before numpy: the package pins BLAS to one thread only if it loads numpy first.
from storyfactors import corpus, textprep  # isort: skip

import numpy as np
import pytest

DATA = Path(textprep.__file__).parent / "data"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA


@pytest.fixture(scope="session")
def poe():
    """Segmented, tokenized bundled text plus its unfiltered sentence cells."""
    text = (DATA / "purloined_letter.txt").read_text(encoding="utf-8")
    abbreviations = corpus.load_word_list(DATA / "abbreviations.txt")
    records = textprep.segment_text(text, abbreviations=abbreviations)
    tokens = [textprep.tokenize(r) for r in records]
    cells = corpus.count_cells(tokens)
    return {"records": records, "tokens": tokens, "cells": cells}


@pytest.fixture(scope="session")
def stopwords():
    return corpus.load_word_list(DATA / "stopwords_english.txt")


@pytest.fixture(scope="session")
def noun_lexicon():
    return corpus.load_word_list(DATA / "nouns_lexicon.txt")


def random_table(rng: np.random.Generator, max_rows: int = 9, max_cols: int = 9,
                 high: int = 9) -> corpus.ContingencyTable:
    """Random contingency table with no zero row or column margins."""
    n = int(rng.integers(2, max_rows + 1))
    m = int(rng.integers(2, max_cols + 1))
    counts = rng.integers(0, high, size=(n, m))
    counts[counts.sum(axis=1) == 0, 0] += 1
    counts[0, counts.sum(axis=0) == 0] += 1
    return corpus.ContingencyTable(
        tuple(f"r{i}" for i in range(n)),
        tuple(f"c{j}" for j in range(m)),
        counts,
    )


def random_cloud_arrays(rng: np.random.Generator, n: int, dim: int = 3,
                        duplicates: bool = False):
    """Coordinates (optionally with duplicated points) and labels."""
    coords = rng.normal(size=(n, dim))
    if duplicates and n >= 4:
        coords[1] = coords[0]
        coords[n // 2] = coords[n // 2 - 1]
    labels = tuple(f"p{i}" for i in range(n))
    return labels, coords
