"""SVG renderers: well-formedness, the labels drawn, layout invariants."""

import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from storyfactors import ca, clustering, plots
from storyfactors.corpus import CellCounts

from conftest import random_table


def _model(rows=12, cols=60, seed=4):
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 7, size=(rows, cols))
    counts += 1
    table = CellCounts.of(
        tuple(f"s{i}" for i in range(rows)),
        tuple(f"word{j:02d}" for j in range(cols)),
        counts,
    )
    return ca.fit_ca(table)


def _top(model, k, axes=(1, 2), side="col"):
    """The labels of the k points contributing most to ``axes``, as the word plane gets them."""
    return [label for label, _ in ca.top_contributors(model, axes, k, side)]


def _constrained_dendrogram(n=10, seed=6):
    rng = np.random.default_rng(seed)
    coords = np.cumsum(rng.uniform(0.5, 2.0, size=(n, 2)), axis=0)
    cloud = clustering.PointCloud(tuple(f"s{i}" for i in range(n)), coords)
    return clustering.constrained_complete_link(cloud)


def test_factor_plane_is_well_formed_xml():
    model = _model()
    svg = plots.render_factor_plane(model, labels=_top(model, 20), title="plane & <test>")
    root = ET.fromstring(svg)
    assert root.tag == "{http://www.w3.org/2000/svg}svg"


def test_factor_plane_has_no_external_references():
    model = _model()
    svg = plots.render_factor_plane(model, labels=_top(model, 20))
    assert svg.count("http") == 1  # only the xmlns declaration
    assert "href" not in svg
    assert "url(#arrow)" not in svg  # no trajectory, no arrows


def test_top_k_selection_draws_k_points():
    model = _model()
    svg = plots.render_factor_plane(model, labels=_top(model, 40))
    assert svg.count("<circle") == 40
    # 40 point labels plus the two axis annotations.
    assert svg.count("<text") == 42


def test_top_k_larger_than_vocabulary_draws_everything():
    model = _model(cols=6)
    svg = plots.render_factor_plane(model, labels=_top(model, 99))
    assert svg.count("<circle") == 6


def test_trajectory_draws_arrows_between_consecutive_rows():
    model = _model(rows=8, cols=12)
    svg = plots.render_factor_plane(model, side="col", labels=_top(model, 5), trajectory=True)
    assert svg.count('marker-end="url(#arrow)"') == 7
    assert svg.count("<circle") == 5 + 8  # word points plus segment points


def test_row_side_trajectory_does_not_duplicate_row_points():
    model = _model(rows=8, cols=12)
    svg = plots.render_factor_plane(model, side="row", labels=model.row_labels, trajectory=True)
    assert svg.count("<circle") == 8


def test_axis_annotations_show_inertia_percent():
    model = _model()
    svg = plots.render_factor_plane(model, axis_x=1, axis_y=2, labels=_top(model, 20))
    ev = model.singular_values**2
    pct = 100.0 * ev[0] / ev.sum()
    assert f"factor 1 ({pct:.1f}%)" in svg


def test_selection_rules():
    model = _model(cols=8)
    top = _top(model, 3)
    assert len(top) == 3
    score = model.col_contrib[:, 0] + model.col_contrib[:, 1]
    best = model.col_labels[int(np.argmax(score))]
    assert best in top
    # The given labels are drawn in model order, whatever order they come in.
    labels = model.col_labels
    drawn = plots.render_factor_plane(model, labels=[labels[1], labels[4]])
    assert plots.render_factor_plane(model, labels=[labels[4], labels[1]]) == drawn
    assert drawn.count("<circle") == 2
    assert f">{labels[1]}</text>" in drawn and f">{labels[4]}</text>" in drawn


def _old_top_selection(model, axis_x, axis_y, side, k):
    """The top-k rule as plots ranked it before the ranking moved to ca.top_contributors."""
    labels, _, contrib = model.side(side)
    score = contrib[:, axis_x - 1] + contrib[:, axis_y - 1]
    order = sorted(range(len(labels)), key=lambda i: (-score[i], labels[i]))
    chosen = set(order[:k])
    return [lab for i, lab in enumerate(labels) if i in chosen]


def test_top_selection_matches_top_contributors_ranking():
    rng = np.random.default_rng(12)
    models = 0
    while models < 300:
        # Few distinct counts give tied contributions; shuffled labels make
        # the label tie-break differ from the index order.
        table = random_table(rng, high=int(rng.choice([2, 9])))
        n, m = table.shape
        words = [f"w{i}" for i in rng.permutation(n + m)]
        model = ca.fit_ca(CellCounts.of(tuple(words[:n]), tuple(words[n:]), table.dense()))
        if model.n_axes < 2:
            continue
        models += 1
        ax, ay = (int(a) for a in rng.choice(np.arange(1, model.n_axes + 1), 2, replace=False))
        for side in ("row", "col"):
            for k in (1, 3, 50):
                for axes in ((ax, ay), (ay, ax)):
                    # What the word plane draws: the k labels, in model order.
                    top = set(_top(model, k, axes, side))
                    drawn = [label for label in model.side(side)[0] if label in top]
                    assert drawn == _old_top_selection(model, *axes, side, k)


def test_selection_validation():
    model = _model(cols=8)
    with pytest.raises(ValueError, match="^empty selection: no labels given$"):
        plots.render_factor_plane(model, labels=[])
    with pytest.raises(ValueError, match="^unknown col labels: nope$"):
        plots.render_factor_plane(model, labels=["nope"])
    with pytest.raises(ValueError, match="^unknown row labels: nope, word01$"):
        plots.render_factor_plane(model, side="row", labels=["s0", "nope", "word01"])


def test_duplicate_labels_are_rejected():
    # A label given twice would draw its point and its text twice, stacked.
    model = ca.fit_ca(CellCounts.of(("a", "b", "c"), ("x", "y", "z"),
                                    [[4, 1, 2], [2, 3, 1], [1, 1, 5]]))
    with pytest.raises(ValueError, match="^duplicate col labels: x$"):
        plots.render_factor_plane(model, labels=["x", "x", "y"])
    with pytest.raises(ValueError, match="^duplicate row labels: c, a$"):
        plots.render_factor_plane(model, side="row", labels=["c", "a", "c", "a", "a"])
    svg = plots.render_factor_plane(model, labels=["x", "y"])
    assert svg.count("<circle") == 2 and svg.count(">x</text>") == 1


def test_axis_and_side_validation():
    model = _model(cols=8)
    labels = model.col_labels[:3]
    with pytest.raises(ValueError, match="outside fitted range"):
        plots.render_factor_plane(model, axis_x=0, labels=labels)
    with pytest.raises(ValueError, match="outside fitted range"):
        plots.render_factor_plane(model, axis_y=model.n_axes + 1, labels=labels)
    with pytest.raises(ValueError, match="must differ"):
        plots.render_factor_plane(model, axis_x=2, axis_y=2, labels=labels)
    with pytest.raises(ValueError, match="side"):
        plots.render_factor_plane(model, side="diagonal", labels=labels)


def test_rendering_is_deterministic():
    model = _model()
    labels = _top(model, 20)
    assert (plots.render_factor_plane(model, labels=labels)
            == plots.render_factor_plane(model, labels=labels))
    dendrogram = _constrained_dendrogram()
    assert plots.render_dendrogram(dendrogram) == plots.render_dendrogram(dendrogram)


def test_dendrogram_is_well_formed_xml():
    svg = plots.render_dendrogram(_constrained_dendrogram(), cut=3, title="tree")
    root = ET.fromstring(svg)
    assert root.tag == "{http://www.w3.org/2000/svg}svg"
    assert "href" not in svg


def test_text_outside_xml_chars_is_well_formed():
    # Every code point outside XML 1.0's Char production, in a label and a title.
    codes = [c for c in [*range(0x20), *range(0xD800, 0xE000), 0xFFFE, 0xFFFF] if c not in (9, 10, 13)]
    bad = "x" + "".join(map(chr, codes))
    written = "x" + "".join(f"\\u{c:04x}" for c in codes)
    table = CellCounts.of(("a", bad, "c"), ("u", "v", "w"), np.array([[5, 1, 2], [1, 4, 2], [2, 1, 6]]))
    cloud = clustering.PointCloud(("a", bad, "d"), np.array([[0.0], [1.0], [3.0]]))
    for svg in (plots.render_factor_plane(ca.fit_ca(table), side="row", labels=[bad], title=bad),
                plots.render_dendrogram(clustering.ward_cluster(cloud), title=bad)):
        texts = [el.text for el in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")]
        assert texts.count(written) == 2  # the label and the title


def test_two_leaf_dendrogram_renders():
    cloud = clustering.PointCloud(("a", "b"), np.array([[0.0], [1.0]]))
    svg = plots.render_dendrogram(clustering.ward_cluster(cloud))
    ET.fromstring(svg)
    assert ">a</text>" in svg and ">b</text>" in svg


def test_cut_line_between_straddled_heights():
    dendrogram = _constrained_dendrogram()
    svg = plots.render_dendrogram(dendrogram, cut=3)
    assert 'stroke-dasharray="6,4"' in svg
    assert "k = 3" in svg
    no_cut = plots.render_dendrogram(dendrogram)
    assert "stroke-dasharray" not in no_cut
    # Extreme cuts still draw a line.
    assert "k = 1" in plots.render_dendrogram(dendrogram, cut=1)
    assert f"k = {dendrogram.n_leaves}" in plots.render_dendrogram(
        dendrogram, cut=dendrogram.n_leaves
    )
    with pytest.raises(ValueError, match="cut"):
        plots.render_dendrogram(dendrogram, cut=0)


def test_constrained_leaves_stay_chronological():
    dendrogram = _constrained_dendrogram(n=12)
    assert clustering.leaf_order(dendrogram) == list(range(12))


def test_ward_leaf_order_is_a_permutation():
    rng = np.random.default_rng(9)
    cloud = clustering.PointCloud(
        tuple(f"p{i}" for i in range(9)), rng.normal(size=(9, 3))
    )
    order = clustering.leaf_order(clustering.ward_cluster(cloud))
    assert sorted(order) == list(range(9))


def test_many_leaves_drop_individual_labels():
    rng = np.random.default_rng(10)
    n = 45
    coords = np.cumsum(rng.uniform(0.5, 1.5, size=(n, 1)), axis=0)
    cloud = clustering.PointCloud(tuple(f"s{i}" for i in range(n)), coords)
    svg = plots.render_dendrogram(clustering.constrained_complete_link(cloud))
    assert "45 leaves" in svg
    assert "rotate(-90" not in svg


@given(st.text(alphabet=st.sampled_from("&<>;amplgt#\"' x\u00e9\n") | st.characters()))
@example("&amp; <a> && >< &lt;")
@settings(max_examples=200, deadline=None)
def test_escape_matches_saxutils(content):
    assert plots._escape(content) == escape(content)
