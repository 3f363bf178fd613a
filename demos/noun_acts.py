"""
Three acts from a noun lexicon
==============================

Restricts the vocabulary to a 48-noun lexicon, embeds the sentences by
correspondence analysis, and lets the chronology-constrained clustering
cut the story into three contiguous acts.  Each act is then described by
how its nouns are distributed.
"""

from pathlib import Path

import numpy as np

import storyfactors
from storyfactors import (
    PointCloud,
    constrained_complete_link,
    cut_k,
    fit_ca,
    segment_text,
    tokenize,
)
from storyfactors import corpus

DATA = Path(storyfactors.__file__).parent / "data"

# Segment and tokenize the bundled text.
text = (DATA / "purloined_letter.txt").read_text(encoding="utf-8")
abbreviations = corpus.load_word_list(DATA / "abbreviations.txt")
records = segment_text(text, abbreviations=abbreviations)
tokens = [tokenize(r) for r in records]
print(f"{len(records)} sentences, {max(r.paragraph_id for r in records)} paragraphs")

# Keep only lexicon nouns occurring at least 5 times in 5 sentences.
lexicon = corpus.load_word_list(DATA / "nouns_lexicon.txt")
nouns = corpus.apply_filter(corpus.count_cells(tokens), min_total_count=5, min_doc_count=5,
                           min_word_length=2, lexicon=lexicon)
print(f"noun table: {nouns.shape[0]} sentences x {nouns.shape[1]} nouns, "
      f"{nouns.total} occurrences")

# Embed the sentences, then cluster under the chronology constraint: only
# adjacent sentences may merge, so every cluster is a contiguous run.
model = fit_ca(nouns)
cloud = PointCloud(nouns.row_labels, model.row_coords[:, :5])
acts = cut_k(constrained_complete_link(cloud), 3)

print("\nacts (contiguous runs of the kept sentences):")
for act in (1, 2, 3):
    members = acts.members(act)
    print(f"  act {act}: {len(members)} sentences "
          f"(text sentences {members[0]}..{members[-1]})")

# Distribution of the most frequent nouns across the acts: the story's
# props enter and leave the stage act by act.
act_of = np.array([acts.assignment[label] for label in nouns.row_labels])
counts = nouns.dense()
totals = nouns.column_totals()
top = np.argsort(-totals, kind="stable")[:11]
print("\nnoun            act1  act2  act3")
for j in top:
    word = nouns.col_labels[j]
    per_act = [int(counts[act_of == a, j].sum()) for a in (1, 2, 3)]
    print(f"{word:<14}  {per_act[0]:4d}  {per_act[1]:4d}  {per_act[2]:4d}")
