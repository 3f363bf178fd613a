"""Seeded workload generator: a perturbed, scaled copy of the bundled story.

The generator walks the story's paragraphs in chronological order, as
often as the workload's length needs, and replaces each lowercase word
with probability ``REPLACE_P`` by a draw from the story's own stream of
lowercase words.  Capitalised words and abbreviations are never replaced
or drawn, so segmentation, sentence lengths, quotes and chronology stay
those of the real text.  Plain repeated copies would give duplicate
table rows and a flat CA rank (most Ward merges would be zero-height
ties); the perturbation keeps the rows distinct.

The program under test only ever sees the generated text and config.
"""

from __future__ import annotations

import random
import re
import shutil
from dataclasses import dataclass
from pathlib import Path

REPLACE_P = 0.3
STORY_PARAGRAPHS = 123

_LETTERS = re.compile(r"[^\W\d_]+")
_LOWER_ASCII = re.compile(r"[a-z]+")

# Shared vocabulary filter of the bundled sentence-level configs.
_STANDARD_FILTER = {
    "stopwords": "stopwords_english.txt",
    "min_total_count": 3,
    "min_doc_count": 3,
    "min_word_length": 2,
}


@dataclass(frozen=True)
class Workload:
    name: str
    paragraphs: int  # generated length, in story paragraphs
    keys: dict  # config keys besides input_text and abbreviations
    overwrite: bool = False  # every run writes into the same output directory


def _section_sizes(paragraphs: int, sections: int) -> str:
    base, extra = divmod(paragraphs, sections)
    return ",".join(str(base + (i < extra)) for i in range(sections))


WORKLOADS = {
    w.name: w
    for w in (
        # Ward's merge loop and the full-K CA CSV export dominate; constrained
        # link never runs.  Scaled sentence_classes demo.
        Workload(
            "sentences_ward", 2 * STORY_PARAGRAPHS,
            {**_STANDARD_FILTER, "unit": "sentence", "axes": 5,
             "cluster": "ward", "cut": 11}),
        # Pipeline defaults: the n*n*d pair tensor of constrained complete
        # link sets peak memory.
        Workload(
            "constrained_allaxes", STORY_PARAGRAPHS + 39,
            {**_STANDARD_FILTER, "unit": "sentence", "axes": 0,
             "cluster": "constrained", "cut": "max-gap"}),
        # Scaled sections.cfg: text prep and table building dominate, CA and
        # clustering of 16 rows are trivial; every run overwrites the last.
        Workload(
            "sections_long", 24 * STORY_PARAGRAPHS,
            {**_STANDARD_FILTER, "unit": "paragraph", "segment_by": "paragraph",
             "segment_sizes": _section_sizes(24 * STORY_PARAGRAPHS, 16),
             "cluster": "constrained", "cut": "max-gap"},
            overwrite=True),
        # Scaled nouns.cfg: constrained link's per-merge loop over ~1,265 rows
        # bounds time, not memory; CA fits the transposed (rows > cols) table.
        Workload(
            "nouns_long", 6 * STORY_PARAGRAPHS,
            {"stopwords": "stopwords_english.txt", "lexicon": "nouns_lexicon.txt",
             "unit": "sentence", "min_total_count": 5, "min_doc_count": 5,
             "min_word_length": 2, "axes": 5, "cluster": "constrained", "cut": 3}),
    )
}


def _paragraphs(text: str) -> list[str]:
    """Blank-line separated blocks, each kept with its own line breaks."""
    return [block.strip("\n") for block in re.split(r"\n\s*\n", text) if block.strip()]


def _abbreviations(path: Path) -> frozenset[str]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return frozenset(e for e in (line.split("#", 1)[0].strip() for line in lines) if e)


def generate_text(story: str, paragraphs: int, seed: int,
                  abbreviations: frozenset[str]) -> str:
    """Perturbed text of ``paragraphs`` paragraphs; same seed, same text."""
    source = _paragraphs(story)

    def replaceable(word: str) -> bool:
        return _LOWER_ASCII.fullmatch(word) is not None and word not in abbreviations

    stream = [w for w in _LETTERS.findall(story) if replaceable(w)]
    rng = random.Random(seed)

    def perturb(match: re.Match) -> str:
        word = match.group(0)
        if replaceable(word) and rng.random() < REPLACE_P:
            return rng.choice(stream)
        return word

    out = [_LETTERS.sub(perturb, source[i % len(source)]) for i in range(paragraphs)]
    return "\n\n".join(out) + "\n"


def write_inputs(workload: Workload, seed: int, data_dir: Path, into: Path) -> Path:
    """Write the workload's text, word lists and config; return the config path."""
    into.mkdir(parents=True, exist_ok=True)
    abbreviations = data_dir / "abbreviations.txt"
    story = (data_dir / "purloined_letter.txt").read_text(encoding="utf-8")
    text = generate_text(story, workload.paragraphs, seed, _abbreviations(abbreviations))
    (into / "story.txt").write_text(text, encoding="utf-8")
    keys = {"input_text": "story.txt", "abbreviations": "abbreviations.txt", **workload.keys}
    for key in ("abbreviations", "stopwords", "lexicon"):
        if key in keys:
            shutil.copyfile(data_dir / keys[key], into / keys[key])
    config = into / f"{workload.name}.cfg"
    config.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()), encoding="utf-8")
    return config
