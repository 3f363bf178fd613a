"""
Sentence classes and the words that mark them
=============================================

Clusters all sentences (full filtered vocabulary, Ward criterion, no
chronology constraint) into eleven classes and asks the v-test which
words are significantly over-represented in each: the standardized gap
between a word's in-class mean and its global mean, mapped to a normal
p-value.
"""

from pathlib import Path

import storyfactors
from storyfactors import PointCloud, characterize_clusters, cut_k, fit_ca, ward_cluster
from storyfactors import corpus, textprep

DATA = Path(storyfactors.__file__).parent / "data"

# Sentence-by-word table with the standard filter: stopwords out, at
# least 3 occurrences in at least 3 sentences, words of 2+ letters.
text = (DATA / "purloined_letter.txt").read_text(encoding="utf-8")
records = textprep.segment_text(
    text, abbreviations=corpus.load_word_list(DATA / "abbreviations.txt"))
cells = corpus.count_cells([textprep.tokenize(r) for r in records])
table = corpus.apply_filter(
    cells, min_total_count=3, min_doc_count=3, min_word_length=2,
    stopwords=corpus.load_word_list(DATA / "stopwords_english.txt"))
print(f"table: {table.shape[0]} sentences x {table.shape[1]} words")

# Embed on the first five factor axes and cluster with Ward, weighting
# each sentence by its share of the corpus (the CA row masses).
model = fit_ca(table)
cloud = PointCloud(table.row_labels, model.row_coords[:, :5], masses=model.row_masses)
partition = cut_k(ward_cluster(cloud), 11)
sizes = [len(partition.members(c)) for c in range(1, 12)]
print(f"11 sentence classes, sizes {'/'.join(map(str, sizes))}")

# v-test at a strict threshold; entries arrive sorted by significance
# within each class.
report = characterize_clusters(table, partition, alpha=0.005)
print(f"{len(report.entries)} significant word/class pairs at alpha 0.005\n")

for cid in range(1, 12):
    entries = [e for e in report.entries if e.cluster_id == cid][:4]
    if not entries:
        continue
    marks = ", ".join(f"{e.word} (v={e.v:+.1f}, p={e.p:.1e})" for e in entries)
    print(f"class {cid:2d} ({sizes[cid - 1]:3d} sentences): {marks}")
