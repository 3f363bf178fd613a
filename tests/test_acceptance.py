"""Acceptance gate over the bundled text: one verdict line per criterion.

Each test prints ``criterion N PASS/FAIL`` with the measured numbers (so a
plain pytest run shows the whole scoreboard) and then asserts.  Window
sizes are fixed: exact where the quantity is discrete and structural,
±3%/±5% where it depends on the stopword list, ±1.5 percentage points for
the section inertia profile, ±3 positions for act boundaries.
"""

import math

import numpy as np
import pytest

from storyfactors import ca, characterize, clustering, corpus, pipeline

from conftest import DATA, random_table
from test_clustering import _brute_constrained, _brute_ward

RANGES = "1-19,20-45,46-73,74-87,88-93,94-109,110-117,118-123"
SECTION_TARGET = (20.2, 38.1, 54.2, 68.8, 81.5, 92.9, 100.0)
CLAIMS = (
    {"boy", "school"},
    {"individual", "microscope", "doubt"},
    {"letter", "prefect", "dupin", "minister", "document"},
    {"paper", "power", "secret"},
    {"poet", "mathematician"},
    {"design", "reason"},
)


def _verdict(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"criterion {number:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def _within(value, target, relative):
    return abs(value - target) <= relative * target


@pytest.fixture(scope="module")
def t3(poe, stopwords):
    filt = corpus.CorpusFilter(min_total_count=3, min_doc_count=3,
                               min_word_length=2, stopwords=stopwords)
    return corpus.apply_filter(poe["cells"], filt)


@pytest.fixture(scope="module")
def t4(poe, stopwords):
    filt = corpus.CorpusFilter(min_total_count=3, min_doc_count=3,
                               min_word_length=5, stopwords=stopwords)
    return corpus.apply_filter(poe["cells"], filt)


@pytest.fixture(scope="module")
def t5(poe, noun_lexicon):
    filt = corpus.CorpusFilter(min_total_count=5, min_doc_count=5,
                               min_word_length=2, lexicon=noun_lexicon)
    return corpus.apply_filter(poe["cells"], filt)


@pytest.fixture(scope="module")
def noun_model(t5):
    return ca.fit_ca(t5)


def test_criterion_01_segmentation(poe, capsys):
    records = poe["records"]
    sentences = len(records)
    paragraphs = max(r.paragraph_id for r in records)
    ok = sentences == 321 and paragraphs == 123
    _verdict(capsys, 1, ok,
             f"{sentences} sentences (need 321), {paragraphs} paragraphs (need 123)")


def test_criterion_02_raw_vocabulary(poe, capsys):
    tokens = [tok for tl in poe["tokens"] for tok in tl.tokens]
    distinct, occurrences = len(set(tokens)), len(tokens)
    ok = abs(distinct - 1742) <= 5 and abs(occurrences - 7089) <= 20
    _verdict(capsys, 2, ok,
             f"{distinct} distinct words (1742 +/- 5), "
             f"{occurrences} occurrences (7089 +/- 20)")


def test_criterion_03_filtered_corpus(t3, capsys):
    words, occurrences, rows = t3.shape[1], t3.total, t3.shape[0]
    ok = (_within(words, 276, 0.03) and _within(occurrences, 1546, 0.03)
          and _within(rows, 310, 0.03))
    _verdict(capsys, 3, ok,
             f"{words} words (276 +/- 3%), {occurrences} occurrences (1546 +/- 3%), "
             f"{rows} rows (310 +/- 3%)")


def test_criterion_04_length_five_variant(t4, capsys):
    words, occurrences, rows = t4.shape[1], t4.total, t4.shape[0]
    ok = (_within(words, 205, 0.03) and _within(occurrences, 1087, 0.03)
          and _within(rows, 293, 0.03))
    _verdict(capsys, 4, ok,
             f"{words} words (205 +/- 3%), {occurrences} occurrences (1087 +/- 3%), "
             f"{rows} rows (293 +/- 3%)")


def test_criterion_05_noun_pipeline(t5, noun_model, capsys):
    words, occurrences, rows = t5.shape[1], t5.total, t5.shape[0]
    eigen = noun_model.singular_values**2
    share = float(100.0 * eigen[:5].sum() / eigen.sum())
    ok = (_within(words, 48, 0.05) and _within(occurrences, 424, 0.05)
          and _within(rows, 213, 0.05) and abs(share - 17.75) <= 1.0)
    _verdict(capsys, 5, ok,
             f"{words} nouns (48 +/- 5%), {occurrences} occurrences (424 +/- 5%), "
             f"{rows} rows (213 +/- 5%), top-5 share {share:.2f}% (17.75 +/- 1.0)")


def test_criterion_06_section_inertia_profile(poe, t3, capsys):
    paragraph_of = {str(r.sentence_id): r.paragraph_id for r in poe["records"]}
    edges = np.cumsum(pipeline._parse_ranges(RANGES))
    segment_ids = [
        int(np.searchsorted(edges, paragraph_of[label])) + 1
        for label in t3.row_labels
    ]
    sections = corpus.aggregate(t3, segment_ids)
    model = ca.fit_ca(sections)
    cumulative = ca.cumulative_inertia(model)
    deviation = (float(np.abs(cumulative - SECTION_TARGET).max())
                 if model.n_axes == 7 else math.inf)
    ok = model.n_axes == 7 and deviation <= 1.5 and cumulative[-1] == 100.0
    profile = ", ".join(f"{v:.1f}" for v in cumulative)
    _verdict(capsys, 6, ok,
             f"{model.n_axes} axes (need 7), cumulative ({profile}), "
             f"max deviation {deviation:.2f}pp (limit 1.5)")


def test_criterion_07_act_boundaries(noun_model, capsys):
    cloud = clustering.PointCloud(noun_model.row_labels,
                                  noun_model.row_coords[:, :5])
    dendrogram = clustering.constrained_complete_link(cloud)
    partition = clustering.cut_k(dendrogram, 3)
    sizes = [len(partition.members(c)) for c in (1, 2, 3)]
    b1, b2 = sizes[0], sizes[0] + sizes[1]
    ok = abs(b1 - 53) <= 3 and abs(b2 - 151) <= 3
    _verdict(capsys, 7, ok,
             f"act boundaries at kept-sentence positions {b1} and {b2} "
             f"(need 53 +/- 3 and 151 +/- 3; act sizes {sizes[0]}/{sizes[1]}/{sizes[2]})")


def test_criterion_08_word_communities(noun_model, capsys):
    cloud = clustering.PointCloud(noun_model.col_labels, noun_model.col_coords)
    partition = clustering.cut_k(clustering.ward_cluster(cloud), 10)
    held = []
    for claim in CLAIMS:
        ids = {partition.assignment[word] for word in claim if word in partition.assignment}
        held.append(len(ids) == 1 and len(claim & set(partition.assignment)) == len(claim))
    ok = sum(held) >= 4
    joined = ", ".join(
        f"{'+'.join(sorted(claim))}={'yes' if h else 'no'}"
        for claim, h in zip(CLAIMS, held)
    )
    _verdict(capsys, 8, ok, f"{sum(held)}/6 co-membership claims hold (need >= 4): {joined}")


def test_criterion_09_vtest_sentinel_words(t3, capsys):
    model = ca.fit_ca(t3)
    cloud = clustering.PointCloud(t3.row_labels, model.row_coords[:, :5],
                                  masses=model.row_masses.copy())
    partition = clustering.cut_k(clustering.ward_cluster(cloud), 11)
    report = characterize.characterize_clusters(t3, partition, alpha=0.005)
    best = {}
    for entry in report.entries:
        if entry.word in ("puff", "abernethy", "probed", "looked"):
            best[entry.word] = min(best.get(entry.word, 1.0), entry.p)
    significant = all(word in best for word in ("puff", "abernethy", "probed", "looked"))
    orders = (math.log10(best["looked"]) - math.log10(best["puff"])
              if significant else 0.0)
    ok = significant and orders >= 6.0
    found = ", ".join(f"{w}={best[w]:.3e}" if w in best else f"{w}=n.s."
                      for w in ("puff", "abernethy", "probed", "looked"))
    _verdict(capsys, 9, ok,
             f"p-values at alpha 0.005: {found}; puff/looked separation "
             f"{orders:.1f} orders (need >= 6)")


def _profile_to_centroid_sq(table, i):
    counts = table.dense()
    c = counts.sum(axis=0) / table.total
    profile = counts[i] / counts[i].sum()
    return float(np.sum((profile - c) ** 2 / c))


def test_criterion_10_property_suite(tmp_path, capsys):
    failures = []
    rng = np.random.default_rng(2024)

    # CA identities on 100 random tables.
    for trial in range(100):
        table = random_table(rng)
        model = ca.fit_ca(table)
        r, c = model.row_masses, model.col_masses
        F, G = model.row_coords, model.col_coords
        sigma_sq = model.singular_values**2
        if np.abs(r @ F).max(initial=0.0) > 1e-10 or np.abs(c @ G).max(initial=0.0) > 1e-10:
            failures.append(f"centering (trial {trial})")
        if not (np.allclose(r @ F**2, sigma_sq, atol=1e-10)
                and np.allclose(c @ G**2, sigma_sq, atol=1e-10)):
            failures.append(f"axis inertia (trial {trial})")
        if model.n_axes and not (
                np.allclose(model.contributions("row").sum(axis=0), 1.0, atol=1e-10)
                and np.allclose(model.contributions("col").sum(axis=0), 1.0, atol=1e-10)):
            failures.append(f"contribution sums (trial {trial})")
        if abs(float(r @ np.sum(F**2, axis=1)) - model.total_inertia) > 1e-10:
            failures.append(f"parseval (trial {trial})")
        for i in range(len(table.row_labels) - 1):
            direct = ca.chi2_row_distance(table, i, i + 1)
            if abs(float(np.linalg.norm(F[i] - F[i + 1])) - direct) > 1e-10:
                failures.append(f"chi2 distance (trial {trial})")
                break
        if trial % 10 == 0 and model.n_axes:
            supplementary = ca.project_supplementary(model, table.dense()[0], "row")
            if np.abs(supplementary - F[0]).max() > 1e-10:
                failures.append(f"supplementary duplicate (trial {trial})")

    # Clustering invariants and brute-force equivalence.
    for trial in range(8):
        n = int(rng.integers(3, 13))
        coords = rng.normal(size=(n, 3))
        masses = rng.uniform(0.2, 2.0, size=n)
        labels = tuple(f"p{i}" for i in range(n))
        unit = clustering.PointCloud(labels, coords)
        ward = clustering.ward_cluster(unit)
        if abs(sum(ward.heights) - unit.inertia()) > 1e-9:
            failures.append(f"ward height sum (trial {trial})")
        constrained = clustering.constrained_complete_link(unit)
        for dendrogram in (ward, constrained):
            hs = dendrogram.heights
            if any(b < a - 1e-12 for a, b in zip(hs, hs[1:])):
                failures.append(f"height inversion (trial {trial})")
        for k in range(1, n + 1):
            ids = [clustering.cut_k(constrained, k).assignment[lab] for lab in labels]
            if ids != sorted(ids):
                failures.append(f"contiguity (trial {trial}, k={k})")
                break
        weighted = clustering.ward_cluster(clustering.PointCloud(labels, coords, masses))
        expected = _brute_ward(coords, masses)
        for got, want in zip(weighted.merges, expected):
            if got[:2] != want[:2] or abs(got[2] - want[2]) > 1e-9 * max(1.0, want[2]):
                failures.append(f"ward brute force (trial {trial})")
                break
        if list(constrained.merges) != _brute_constrained(coords):
            failures.append(f"constrained brute force (trial {trial})")

    # v-test hand oracle: values 1..6, first two form the cluster.
    partition = clustering.Partition({str(i): 1 if i < 2 else 2 for i in range(6)})
    v, p = characterize.v_test([1, 2, 3, 4, 5, 6], partition, 1)
    if abs(v - (-2.0 * math.sqrt(6.0 / 7.0))) > 1e-12:
        failures.append("v-test statistic oracle")
    if abs(p - math.erfc(2.0 * math.sqrt(6.0 / 7.0) / math.sqrt(2.0))) > 1e-15:
        failures.append("v-test p oracle")

    # Two identical runs of the bundled section analysis, byte for byte.
    config = pipeline.parse_config(DATA / "configs" / "sections.cfg")
    first = pipeline.run_pipeline(config, out_dir=tmp_path / "a")
    second = pipeline.run_pipeline(config, out_dir=tmp_path / "b")
    for name, path in first.files.items():
        if path.read_bytes() != second.files[name].read_bytes():
            failures.append(f"pipeline rerun differs: {name}")

    ok = not failures
    detail = ("all identities and reruns hold" if ok
              else "failed: " + "; ".join(sorted(set(failures))))
    _verdict(capsys, 10, ok, detail)
