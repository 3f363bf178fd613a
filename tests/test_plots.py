"""SVG renderers: well-formedness, the labels drawn, layout invariants."""

import re
import tracemalloc
import xml.etree.ElementTree as ET
from collections import Counter
from xml.sax.saxutils import escape

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from storyfactors import ca, clustering, pipeline, plots
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


def _points_and_arrows(svg):
    """The drawn points' pixel centres, in drawing order, and each arrow's two ends."""
    root = ET.fromstring(svg)
    ns = "{http://www.w3.org/2000/svg}"
    points = [(c.get("cx"), c.get("cy")) for c in root.iter(ns + "circle")]
    arrows = [((line.get("x1"), line.get("y1")), (line.get("x2"), line.get("y2")))
              for line in root.iter(ns + "line") if line.get("marker-end")]
    return points, arrows


def test_trajectory_draws_arrows_between_consecutive_rows():
    model = _model(rows=8, cols=12)
    svg = plots.render_factor_plane(model, side="row", labels=model.row_labels, trajectory=True)
    points, arrows = _points_and_arrows(svg)
    assert len(points) == 8
    assert arrows == list(zip(points[:-1], points[1:]))


def test_trajectory_over_a_subset_of_rows_joins_only_the_drawn_rows():
    model = _model(rows=8, cols=12)
    svg = plots.render_factor_plane(model, side="row", labels=["s5", "s1", "s3"], trajectory=True)
    points, arrows = _points_and_arrows(svg)
    assert arrows == list(zip(points[:-1], points[1:]))  # two arrows, not seven
    # The points are rows s1, s3, s5 in the model's order: one scale maps
    # their plane coordinates onto their offsets from the canvas centre.
    centre = [plots._PLANE_WIDTH / 2, plots._PLANE_HEIGHT / 2]
    offsets = (np.array(points, dtype=float) - centre) * [1, -1]
    coords = model.row_coords[[1, 3, 5], :2]
    scale = (offsets * coords).sum() / (coords**2).sum()
    assert np.allclose(offsets, scale * coords, atol=0.01)


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


def test_axis_labels_read_the_model_percent():
    # Both labels of every plane print the share inertia.csv writes, at .1f.
    model = _model()
    for axis_x, axis_y in ((1, 2), (2, 1), (3, 5), (model.n_axes, 1)):
        svg = plots.render_factor_plane(model, axis_x, axis_y, labels=_top(model, 5))
        labels = re.findall(r">factor (\d+) \(([0-9.]+)%\)<", svg)
        assert labels == [(str(k), f"{model.percent[k - 1]:.1f}") for k in (axis_x, axis_y)]


def test_selection_rules():
    model = _model(cols=8)
    top = _top(model, 3)
    assert len(top) == 3
    contrib = model.contributions("col")
    score = contrib[:, 0] + contrib[:, 1]
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
    labels, contrib = model.side(side)[0], model.contributions(side)
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


def _line_dendrogram(dendrogram, cut=None, title=None):
    """The renderer as it was before the two paths: one ``<line>`` per segment and tick."""
    fmt = plots._fmt
    n = dendrogram.n_leaves
    merges = dendrogram.merges
    order = clustering.leaf_order(dendrogram)
    width, height = plots._TREE_WIDTH, plots._TREE_HEIGHT
    margin_l, margin_r, margin_t, margin_b = 64.0, 24.0, 30.0, 60.0
    span = width - margin_l - margin_r
    step = span / n
    baseline = height - margin_b
    h_max = max(m[2] for m in merges) if merges else 1.0
    h_scale = (baseline - margin_t) / max(h_max, 1e-300)

    def y_of(h):
        return baseline - h * h_scale

    pos_x = [0.0] * (2 * n - 1)
    pos_h = [0.0] * (2 * n - 1)
    rank = {leaf: i for i, leaf in enumerate(order)}
    for leaf in range(n):
        pos_x[leaf] = margin_l + (rank[leaf] + 0.5) * step

    svg = plots._Canvas(width, height)
    svg.line(margin_l - 10, baseline, margin_l - 10, margin_t, stroke="#333333")
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        h = h_max * frac
        svg.line(margin_l - 14, y_of(h), margin_l - 10, y_of(h), stroke="#333333")
        svg.text(margin_l - 18, y_of(h) + 3, f"{h:.3g}", size=9, anchor="end")

    for index, (left, right, h, _) in enumerate(merges):
        node = n + index
        xa, xb = pos_x[left], pos_x[right]
        svg.line(xa, y_of(pos_h[left]), xa, y_of(h))
        svg.line(xb, y_of(pos_h[right]), xb, y_of(h))
        svg.line(xa, y_of(h), xb, y_of(h))
        pos_x[node] = (xa + xb) / 2.0
        pos_h[node] = h

    if cut is not None:
        if cut == 1:
            level = h_max * 1.02
        else:
            upper = merges[n - cut][2]
            lower = merges[n - cut - 1][2] if cut < n else 0.0
            level = (upper + lower) / 2.0
        svg.line(margin_l - 10, y_of(level), width - margin_r, y_of(level),
                 stroke="#d62728", width=1.2, dash="6,4")
        svg.text(width - margin_r, y_of(level) - 4, f"k = {cut}", size=10,
                 fill="#d62728", anchor="end")

    show_labels = n <= 40
    for leaf in range(n):
        x = pos_x[leaf]
        svg.line(x, baseline, x, baseline + 4)
        if show_labels:
            svg.text(x + 3, baseline + 8, dendrogram.labels[leaf], size=8,
                     anchor="end", rotate=-90.0)
    if not show_labels:
        svg.text(margin_l, baseline + 16,
                 f"{n} leaves, left to right: {dendrogram.labels[order[0]]} "
                 f"... {dendrogram.labels[order[-1]]}", size=9, fill="#333333")
    if title:
        svg.text(width / 2.0, 18.0, title, size=13, anchor="middle")
    return svg.document()


# A merge segment or leaf tick of the line renderer; the height axis and its
# ticks, drawn the same way, sit left of the leaves (x <= 54 < 64).
_SEGMENT_LINE = re.compile(r'<line x1="([^"]*)" y1="([^"]*)" x2="([^"]*)" y2="([^"]*)" '
                           r'stroke="#333333" stroke-width="1"/>\n')
_PATH = re.compile(r'<path d="([^"]*)" fill="none" stroke="#333333" stroke-width="1"/>\n')
_SUBPATH = re.compile(r"M([^ ]+) ([^MVHv]+)([VHv])([^MVHv]+)")


def _is_segment(line):
    return float(line[1]) >= 64.0


def _subpaths(svg):
    """Each subpath of the document's paths as ``(x1, y1, x2, y2)`` text."""
    segments = []
    for data in _PATH.findall(svg):
        found = list(_SUBPATH.finditer(data))
        assert "".join(m[0] for m in found) == data
        for x, y, command, to in (m.groups() for m in found):
            segments.append({"V": (x, y, x, to), "H": (x, y, to, y),
                             "v": (x, y, x, plots._fmt(float(y) + float(to)))}[command])
    return segments


def _long_constrained_tree(n=1267, seed=11):
    """As many leaves as nouns_long, about a fifth of its merges at height 0."""
    rng = np.random.default_rng(seed)
    steps = rng.uniform(0.5, 2.0, size=(n, 2))
    steps[rng.random(n) < 0.2] = 0.0
    cloud = clustering.PointCloud(tuple(f"s{i}" for i in range(n)), np.cumsum(steps, axis=0))
    return clustering.constrained_complete_link(cloud)


def _duplicate_ward_tree(seed=12):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(40, 3))
    coords = np.vstack([points, points[rng.permutation(40)[:20]]])[rng.permutation(60)]
    return clustering.ward_cluster(clustering.PointCloud(tuple(f"w{i}" for i in range(60)), coords))


@pytest.fixture(scope="module")
def trees(data_dir, tmp_path_factory):
    """(dendrogram, cut, title) per tree the line oracle is checked on."""
    config = pipeline.parse_config(data_dir / "configs" / "nouns.cfg")
    nouns = pipeline.run_pipeline(config, out_dir=tmp_path_factory.mktemp("nouns"), upto="cut")
    return {
        "nouns.cfg": (nouns.dendrogram, nouns.partition.k, "constrained dendrogram"),
        "constrained_1267": (_long_constrained_tree(), 5, None),
        "ward_duplicates": (_duplicate_ward_tree(), 4, "ward & <duplicates>"),
    }


@pytest.mark.parametrize("name", ["nouns.cfg", "constrained_1267", "ward_duplicates"])
def test_dendrogram_paths_match_line_oracle(trees, name):
    dendrogram, cut, title = trees[name]
    old = _line_dendrogram(dendrogram, cut=cut, title=title)
    new = plots.render_dendrogram(dendrogram, cut=cut, title=title)
    lines = [line for line in _SEGMENT_LINE.finditer(old) if _is_segment(line)]
    assert len(lines) == 3 * len(dendrogram.merges) + dendrogram.n_leaves
    # (a) The same segments, as coordinate text.
    segments = _subpaths(new)
    assert Counter(segments) == Counter(m.groups() for m in lines)
    # (b) Everything else, paint order included, is byte for byte the old document.
    rest = _SEGMENT_LINE.sub(lambda line: "" if _is_segment(line) else line[0], old)
    assert _PATH.sub("", new) == rest
    # (c) Well formed, with exactly the two unfilled paths.
    paths = list(ET.fromstring(new).iter("{http://www.w3.org/2000/svg}path"))
    assert [path.get("fill") for path in paths] == ["none", "none"]
    if name == "ward_duplicates":
        # Zero-height merges, and right children drawn left of their siblings.
        assert any(h == 0.0 for _, _, h, _ in dendrogram.merges)
        assert any(x1 == x2 and y1 == y2 for x1, y1, x2, y2 in segments)
        assert any(float(x2) < float(x1) for x1, y1, x2, y2 in segments if y1 == y2)


def test_dendrogram_document_and_render_peak_stay_small():
    # The line renderer reads about 361 bytes per leaf and a 1.75 MiB peak on
    # this tree, the paths about 80 and 0.55 MiB.
    dendrogram = _long_constrained_tree()
    tracemalloc.start()
    try:
        svg = plots.render_dendrogram(dendrogram, cut=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(svg.encode()) <= 160 * dendrogram.n_leaves
    assert peak <= 2**20


@given(st.text(alphabet=st.sampled_from("&<>;amplgt#\"' x\u00e9\n") | st.characters()))
@example("&amp; <a> && >< &lt;")
@settings(max_examples=200, deadline=None)
def test_escape_matches_saxutils(content):
    assert plots._escape(content) == escape(content)
