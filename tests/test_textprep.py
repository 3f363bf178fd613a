"""Segmentation and tokenization behavior on small synthetic texts."""

import re
import unicodedata

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from storyfactors import corpus, textprep

SIMPLE = """First sentence. Second one!

Third, alone?
Fourth spans
two lines.
"""


def test_segment_ids_and_paragraphs():
    records = textprep.segment_text(SIMPLE)
    assert [r.sentence_id for r in records] == [1, 2, 3, 4]
    assert [r.paragraph_id for r in records] == [1, 1, 2, 2]
    assert records[3].text == "Fourth spans two lines."
    assert all(r.speaker is None for r in records)


def test_blank_line_runs_separate_paragraphs_once():
    records = textprep.segment_text("One.\n\n\n\nTwo.")
    assert [r.paragraph_id for r in records] == [1, 2]


def test_abbreviation_blocks_split():
    text = "Mr. Smith arrived. He sat."
    plain = textprep.segment_text(text)
    assert [r.text for r in plain] == ["Mr.", "Smith arrived.", "He sat."]
    with_abbrev = textprep.segment_text(text, abbreviations=frozenset({"Mr"}))
    assert [r.text for r in with_abbrev] == ["Mr. Smith arrived.", "He sat."]


def test_abbreviations_match_case_sensitively():
    text = "See no. 4 now."
    assert len(textprep.segment_text(text, abbreviations=frozenset({"No"}))) == 2
    assert len(textprep.segment_text(text, abbreviations=frozenset({"no"}))) == 1


def test_terminator_run_is_one_boundary():
    records = textprep.segment_text("Wait!!! Stop?! Go.")
    assert [r.text for r in records] == ["Wait!!!", "Stop?!", "Go."]


def test_closing_quote_stays_with_sentence():
    records = textprep.segment_text('He said "stop." Then he left.')
    assert [r.text for r in records] == ['He said "stop."', "Then he left."]


def test_quote_run_not_closing_is_next_sentence():
    # The quote opens the following sentence, so it must not be absorbed.
    records = textprep.segment_text('She nodded."Fine," he said.')
    assert [r.text for r in records] == ["She nodded.", '"Fine," he said.']


def test_sentence_without_final_terminator_is_kept():
    records = textprep.segment_text("Complete. And a trailing fragment")
    assert [r.text for r in records] == ["Complete.", "And a trailing fragment"]


def test_segmentation_is_deterministic():
    once = textprep.segment_text(SIMPLE)
    again = textprep.segment_text(SIMPLE)
    assert once == again


@given(st.text(max_size=400))
@settings(max_examples=60, deadline=None)
def test_paragraph_ids_cover_prefix(raw):
    records = textprep.segment_text(raw)
    ids = [r.sentence_id for r in records]
    assert ids == list(range(1, len(records) + 1))
    paragraph_ids = [r.paragraph_id for r in records]
    assert paragraph_ids == sorted(paragraph_ids)
    if records:
        assert set(paragraph_ids) == set(range(1, max(paragraph_ids) + 1))


def test_tokenize_text_folds_accents_and_digits():
    assert textprep.tokenize_text("Café élite, naïve 42 times") == (
        "cafe", "elite", "naive", "times",
    )


def test_tokenize_text_splits_on_apostrophes_and_dashes():
    assert textprep.tokenize_text("It's D--") == ("it", "s", "d")


def test_tokenize_record_keeps_sentence_id():
    record = textprep.SentenceRecord(7, 2, None, "A b c.")
    assert textprep.tokenize(record) == textprep.TokenList(7, ("a", "b", "c"))


@given(st.text(max_size=200))
@settings(max_examples=80, deadline=None)
def test_tokens_are_lowercase_ascii_words(raw):
    for token in textprep.tokenize_text(raw):
        assert token
        assert all("a" <= ch <= "z" for ch in token)


def _reference_tokenize_text(text):
    """The per-character loop the translate table replaced, kept as the oracle."""
    folded = unicodedata.normalize("NFKD", text)
    out = []
    for ch in folded:
        if unicodedata.combining(ch):
            continue
        lower = ch.lower()
        if lower.isdigit():
            continue
        out.append(lower if "a" <= lower <= "z" else " ")
    return tuple("".join(out).split())


# Letters that decompose, fold or case-map to more than one character,
# digits outside ASCII, and combining marks on their own.
_AWKWARD = "İıﬁﬂ²³½٣۷ẞßÆæŒœǅǈÅåéÉñÑ\u0301\u0308\u0327\u200b\u00a0Σσς'-.,9 aZ"


@given(st.text(alphabet=st.one_of(st.sampled_from(_AWKWARD), st.characters()), max_size=60))
@settings(max_examples=300, deadline=None)
@example("İstanbul ﬁne x² ٣ ẞtraße Cafe\u0301 naï\u0308ve")
def test_tokenize_text_matches_per_character_loop(raw):
    assert textprep.tokenize_text(raw) == _reference_tokenize_text(raw)


_REFERENCE_TERMINATORS = frozenset(".!?")
_REFERENCE_TRAILERS = frozenset("'\"’”)]")


def _reference_split_sentences(paragraph, abbreviations):
    """The per-character loop the boundary regex replaced, kept as the oracle."""
    sentences = []
    start = 0
    i = 0
    n = len(paragraph)
    while i < n:
        ch = paragraph[i]
        if ch not in _REFERENCE_TERMINATORS:
            i += 1
            continue
        if ch == "." and textprep._word_before(paragraph, i) in abbreviations:
            i += 1
            continue
        # Collapse a run of terminators into one boundary.
        while i < n and paragraph[i] in _REFERENCE_TERMINATORS:
            i += 1
        # Closing quotes stay with the sentence only when the whole run of
        # them really closes it (end of paragraph or followed by whitespace).
        run_end = i
        while run_end < n and paragraph[run_end] in _REFERENCE_TRAILERS:
            run_end += 1
        if run_end > i and (run_end == n or paragraph[run_end] in " \t"):
            i = run_end
        sentence = paragraph[start:i].strip()
        if sentence:
            sentences.append(sentence)
        start = i
    tail = paragraph[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


# Words (some listed as abbreviations), terminators, closing quotes and
# brackets, opening brackets, spaces, tabs and line breaks.
_SENTENCE_PIECES = ["Mr", "No", "no", "e", "a1", "x", ".", ".", "!", "?", "'", '"', "’", "”",
                    ")", "]", "(", "[", " ", " ", "\t", "\n", "\n\n", "\u00a0", "é"]


@given(st.lists(st.sampled_from(_SENTENCE_PIECES) | st.characters(), max_size=40).map("".join),
       st.frozensets(st.sampled_from(["Mr", "No", "e", "a1", ""])))
@settings(max_examples=500, deadline=None)
@example("Mr.. Smith left. No.! Stop?!\" Then \"go.\")x Mr.'\n\nEnd.]", frozenset({"Mr", "No"}))
@example("Mr.! Mr.. e.) .\t. ...", frozenset({"Mr", ""}))
@example('Stop."\tGo.)\tNow!”x End', frozenset())
def test_split_sentences_matches_per_character_loop(raw, abbreviations):
    for paragraph in textprep._split_paragraphs(raw):
        assert (textprep._split_sentences(paragraph, abbreviations)
                == _reference_split_sentences(paragraph, abbreviations))


def test_load_abbreviations_strips_comments(tmp_path):
    path = tmp_path / "abbrev.txt"
    path.write_text("Mr\nDr  # honorific\n# whole-line comment\n\nSt\n")
    assert corpus.load_word_list(path) == frozenset({"Mr", "Dr", "St"})


def test_sentences_csv_round_trip_with_quoting():
    records = [
        textprep.SentenceRecord(1, 1, None, 'He said, "go, now."'),
        textprep.SentenceRecord(2, 1, "DUPIN", "Plain text"),
    ]
    data = textprep.sentences_to_csv(records)
    lines = data.splitlines()
    assert lines[0] == "sentence_id,paragraph_id,speaker,text"
    assert textprep.sentences_from_csv(data) == records


def test_sentences_from_csv_rejects_wrong_header():
    with pytest.raises(ValueError, match="header"):
        textprep.sentences_from_csv("id,text\n1,x\n")


def test_annotate_speakers_assigns_by_paragraph():
    records = textprep.segment_text("One. Two.\n\nThree.")
    annotated = textprep.annotate_speakers(records, {1: "NARRATOR", 2: "DUPIN"})
    assert [r.speaker for r in annotated] == ["NARRATOR", "NARRATOR", "DUPIN"]
    # Originals are untouched.
    assert all(r.speaker is None for r in records)


def test_annotate_speakers_requires_exact_cover():
    records = textprep.segment_text("One.\n\nTwo.")
    with pytest.raises(ValueError, match="no speaker for paragraph id 2"):
        textprep.annotate_speakers(records, {1: "A"})
    with pytest.raises(ValueError, match="unknown paragraph id 3"):
        textprep.annotate_speakers(records, {1: "A", 2: "B", 3: "C"})


def test_load_speaker_map_validates(tmp_path):
    good = tmp_path / "speakers.csv"
    good.write_text("paragraph_id,label\n1,NARRATOR\n2,DUPIN\n")
    assert textprep.load_speaker_map(good) == {1: "NARRATOR", 2: "DUPIN"}

    bad_header = tmp_path / "bad.csv"
    bad_header.write_text("paragraph,label\n1,X\n")
    with pytest.raises(ValueError, match="header"):
        textprep.load_speaker_map(bad_header)

    duplicate = tmp_path / "dup.csv"
    duplicate.write_text("paragraph_id,label\n1,X\n1,Y\n")
    with pytest.raises(ValueError, match="duplicate"):
        textprep.load_speaker_map(duplicate)

    bad_id = tmp_path / "bad_id.csv"
    bad_id.write_text("paragraph_id,label\n1,X\nx,Y\n")
    with pytest.raises(ValueError, match=rf"{re.escape(str(bad_id))}:3: expected 'paragraph_id,label'"):
        textprep.load_speaker_map(bad_id)

    no_label = tmp_path / "no_label.csv"
    no_label.write_text("paragraph_id,label\n1\n")
    with pytest.raises(ValueError, match=rf"{re.escape(str(no_label))}:2: expected"):
        textprep.load_speaker_map(no_label)


def test_load_speaker_map_reports_duplicate_with_path_and_line(tmp_path):
    # A blank row before the repeat, so the line number counts file lines.
    duplicate = tmp_path / "dup.csv"
    duplicate.write_text("paragraph_id,label\n1,X\n\n2,Y\n1,Z\n")
    with pytest.raises(ValueError, match=rf"^{re.escape(str(duplicate))}:5: duplicate paragraph id 1$"):
        textprep.load_speaker_map(duplicate)
