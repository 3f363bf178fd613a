"""Sentence and paragraph segmentation, speaker annotation, tokenization.

The segmenter is deliberately small and deterministic: paragraphs are
blank-line separated blocks, sentences end at ``.``, ``!`` or ``?`` unless
the period terminates a listed abbreviation.  Runs of terminators count as
one boundary, and closing quotes directly after a terminator stay with the
sentence they close.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Mapping

from ._formats import read_csv, write_csv

# A run of terminators, then any closing punctuation that belongs to the
# sentence it ends: all of the run, and only when the run is followed by
# a space, a tab or the end of the paragraph.
_BOUNDARY = re.compile(r"""([.!?]+)(?:['"’”)\]]+(?=[ \t]|\Z))?""")
_WORD_CHARS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789")


@dataclass(frozen=True)
class SentenceRecord:
    """One segmented sentence with its position in the document."""

    sentence_id: int
    paragraph_id: int
    speaker: str | None
    text: str


@dataclass(frozen=True)
class TokenList:
    """Tokens of one sentence, in text order."""

    sentence_id: int
    tokens: tuple[str, ...]


def _split_paragraphs(raw_text: str) -> list[str]:
    paragraphs: list[str] = []
    block: list[str] = []
    for line in raw_text.splitlines():
        if line.strip():
            block.append(line.strip())
        elif block:
            paragraphs.append(" ".join(block))
            block = []
    if block:
        paragraphs.append(" ".join(block))
    return paragraphs


def _word_before(text: str, index: int) -> str:
    """Maximal run of word characters immediately left of ``index``."""
    start = index
    while start > 0 and text[start - 1] in _WORD_CHARS:
        start -= 1
    return text[start:index]


def _split_sentences(paragraph: str, abbreviations: frozenset[str]) -> list[str]:
    sentences: list[str] = []
    start = 0
    for match in _BOUNDARY.finditer(paragraph):
        # A period after a listed abbreviation ends nothing; the run is a
        # boundary from its first terminator that is not such a period.
        i, run_end = match.start(), match.end(1)
        while i < run_end and paragraph[i] == "." and _word_before(paragraph, i) in abbreviations:
            i += 1
        if i == run_end:
            continue
        sentence = paragraph[start:match.end()].strip()
        if sentence:
            sentences.append(sentence)
        start = match.end()
    tail = paragraph[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


def segment_text(raw_text: str, abbreviations: frozenset[str] = frozenset()) -> list[SentenceRecord]:
    """Segment ``raw_text`` into sentence records.

    Paragraphs are separated by one or more blank lines; line breaks inside
    a paragraph count as spaces.  Sentence and paragraph ids are 1-based
    and increase in text order.  ``abbreviations`` (for instance read with
    ``corpus.load_word_list``) are matched case-sensitively against the
    word before a period, so ``No`` and ``no`` are distinct entries.
    Speakers are left unset; see :func:`annotate_speakers`.
    """
    records: list[SentenceRecord] = []
    sentence_id = 1
    for paragraph_id, paragraph in enumerate(_split_paragraphs(raw_text), start=1):
        for sentence in _split_sentences(paragraph, abbreviations):
            records.append(SentenceRecord(sentence_id, paragraph_id, None, sentence))
            sentence_id += 1
    return records


def load_speaker_map(path: str | Path) -> dict[int, str]:
    """Read a ``paragraph_id,label`` CSV into a dict."""
    with open(path, newline="", encoding="utf-8") as handle:
        header, rows = read_csv(handle.read())
    if header != ["paragraph_id", "label"]:
        raise ValueError(f"speaker map header must be paragraph_id,label, got {header!r}")
    mapping: dict[int, str] = {}
    for lineno, row in rows:
        try:
            paragraph_id, label = int(row[0]), row[1].strip()
        except (IndexError, ValueError):
            raise ValueError(f"{path}:{lineno}: expected 'paragraph_id,label', "
                             f"got {','.join(row)!r}") from None
        if paragraph_id in mapping:
            raise ValueError(f"{path}:{lineno}: duplicate paragraph id {paragraph_id}")
        mapping[paragraph_id] = label
    return mapping


def annotate_speakers(
    records: Iterable[SentenceRecord], speaker_map: Mapping[int, str]
) -> list[SentenceRecord]:
    """Attach a speaker label to every sentence via its paragraph id.

    The map must cover exactly the paragraph ids present in ``records``;
    anything missing or unknown raises ``ValueError`` naming the id.
    """
    records = list(records)
    present = {record.paragraph_id for record in records}
    for paragraph_id in sorted(present):
        if paragraph_id not in speaker_map:
            raise ValueError(f"no speaker for paragraph id {paragraph_id}")
    for paragraph_id in sorted(speaker_map):
        if paragraph_id not in present:
            raise ValueError(f"unknown paragraph id {paragraph_id} in speaker map")
    return [replace(record, speaker=speaker_map[record.paragraph_id]) for record in records]


class _Fold(dict):
    """Code point -> what :func:`tokenize_text` makes of it, filled on first sight.

    Combining marks and characters whose lowercase is a digit vanish,
    lowercase a-z stays, and anything else becomes a separator.  The
    entries depend on the code point alone, so one table serves every text.
    """

    def __missing__(self, code: int) -> str:
        ch = chr(code)
        lower = ch.lower()
        if unicodedata.combining(ch) or lower.isdigit():
            folded = ""
        else:
            folded = lower if "a" <= lower <= "z" else " "
        self[code] = folded
        return folded


_FOLD = _Fold()


def tokenize_text(text: str) -> tuple[str, ...]:
    """Normalize ``text`` to lowercase a-z tokens.

    Accents fold to their base letter, digits vanish, and apostrophes along
    with every other punctuation mark act as separators, so ``"It's D--"``
    yields ``(it, s, d)``.  After NFKD normalization each code point is
    folded on its own (see ``_Fold``), so a text's tokens are those of the
    concatenation of its per-character folds.
    """
    return tuple(unicodedata.normalize("NFKD", text).translate(_FOLD).split())


def tokenize(record: SentenceRecord) -> TokenList:
    """Tokenize one sentence record."""
    return TokenList(record.sentence_id, tokenize_text(record.text))


def sentences_to_csv(records: Iterable[SentenceRecord]) -> str:
    """Serialize sentence records to CSV with RFC-4180 quoting."""
    return write_csv(["sentence_id", "paragraph_id", "speaker", "text"],
                     ([r.sentence_id, r.paragraph_id, r.speaker or "", r.text] for r in records))


def sentences_from_csv(data: str) -> list[SentenceRecord]:
    """Parse the output of :func:`sentences_to_csv`; exact round-trip."""
    header, rows = read_csv(data)
    if header != ["sentence_id", "paragraph_id", "speaker", "text"]:
        raise ValueError(f"unexpected sentence CSV header: {header!r}")
    return [SentenceRecord(int(sentence_id), int(paragraph_id), speaker or None, text)
            for _, (sentence_id, paragraph_id, speaker, text) in rows]
