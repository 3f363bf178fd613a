"""Static SVG rendering of factor planes and dendrograms.

Both renderers are pure functions from fitted objects to an SVG document
string: no randomized layout, no timestamps, no external resources, so a
rerun over identical inputs is byte-identical.  They draw the points they
are given and rank nothing: the words that contribute most to a plane
come from :func:`ca.top_contributors`.  Geometry is kept simple on
purpose — the plots are batch deliverables, not an interactive surface.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Sequence

import numpy as np

from .ca import CAModel
from .clustering import Dendrogram, leaf_order

# Point/label styling shared by both renderers.
_ROW_COLOR = "#1f77b4"
_COL_COLOR = "#d62728"
_FONT = "font-family=\"Helvetica, Arial, sans-serif\""
_LABEL_STEP = 12.0  # vertical stacking offset for overlapping labels
_PLANE_WIDTH, _PLANE_HEIGHT = 720.0, 540.0  # factor plane canvas (px)
_TREE_WIDTH, _TREE_HEIGHT = 720.0, 480.0  # dendrogram canvas (px)
_NON_XML = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")  # outside XML 1.0's Char


def _escape(content: str) -> str:
    """XML character data: the bytes of ``xml.sax.saxutils.escape``'s defaults."""
    return content.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt(value: float) -> str:
    out = f"{value:.2f}"
    return "0.00" if out == "-0.00" else out


class _Canvas:
    """Append-only SVG document builder, closed once by :meth:`document`."""

    def __init__(self, width: float, height: float) -> None:
        self.parts: list[str] = [
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n",
            f"<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{width:g}\" "
            f"height=\"{height:g}\" viewBox=\"0 0 {width:g} {height:g}\">\n",
            f"<rect x=\"0\" y=\"0\" width=\"{width:g}\" height=\"{height:g}\" "
            "fill=\"white\"/>\n",
        ]

    def line(self, x1, y1, x2, y2, stroke="#333333", width=1.0, dash=None, extra=""):
        dash_attr = f" stroke-dasharray=\"{dash}\"" if dash else ""
        self.parts.append(
            f"<line x1=\"{_fmt(x1)}\" y1=\"{_fmt(y1)}\" x2=\"{_fmt(x2)}\" "
            f"y2=\"{_fmt(y2)}\" stroke=\"{stroke}\" stroke-width=\"{width:g}\""
            f"{dash_attr}{extra}/>\n"
        )

    def path(self, data, stroke="#333333", width=1.0):
        self.parts.append(
            f"<path d=\"{data}\" fill=\"none\" stroke=\"{stroke}\" stroke-width=\"{width:g}\"/>\n"
        )

    def circle(self, x, y, r, fill):
        self.parts.append(
            f"<circle cx=\"{_fmt(x)}\" cy=\"{_fmt(y)}\" r=\"{r:g}\" fill=\"{fill}\"/>\n"
        )

    def text(self, x, y, content, size=10, fill="#000000", anchor="start", rotate=None):
        content = _NON_XML.sub(lambda m: f"\\u{ord(m[0]):04x}", _escape(content))
        transform = ""
        if rotate is not None:
            transform = f" transform=\"rotate({rotate:g} {_fmt(x)} {_fmt(y)})\""
        self.parts.append(
            f"<text x=\"{_fmt(x)}\" y=\"{_fmt(y)}\" font-size=\"{size:g}\" "
            f"fill=\"{fill}\" text-anchor=\"{anchor}\" {_FONT}{transform}>{content}</text>\n"
        )

    def raw(self, fragment: str) -> None:
        self.parts.append(fragment)

    def document(self) -> str:
        self.parts.append("</svg>\n")  # one join: no second copy of the whole text
        return "".join(self.parts)


def _place_labels(anchors: list[tuple[float, float, str]]) -> list[tuple[float, float, str]]:
    """Stack overlapping labels vertically (the only collision handling)."""
    placed: list[tuple[float, float, str]] = []
    for x, y, text in sorted(anchors, key=lambda a: (a[0], a[1], a[2])):
        yy = y
        width = 6.0 * max(len(text), 1)
        while any(abs(yy - py) < _LABEL_STEP and px < x + width and x < px + 6.0 * len(pt)
                  for px, py, pt in placed):
            yy += _LABEL_STEP
        placed.append((x, yy, text))
    return placed


def render_factor_plane(
    model: CAModel,
    axis_x: int = 1,
    axis_y: int = 2,
    side: str = "col",
    *,
    labels: Sequence[str],
    trajectory: bool = False,
    title: str | None = None,
) -> str:
    """Scatter a factor plane as an SVG document string.

    The points of ``side`` named in ``labels`` (each at most once) are
    drawn and labelled, in the model's order; the renderer ranks nothing
    (the words contributing most to a plane are :func:`ca.top_contributors`).
    With ``trajectory`` the drawn points are joined by arrows in that
    order — for tables whose rows are chronological segments.
    """
    side_labels, coords, _ = model.side(side)
    for axis in (axis_x, axis_y):
        if not 1 <= axis <= model.n_axes:
            raise ValueError(f"axis {axis} outside fitted range 1..{model.n_axes}")
    if axis_x == axis_y:
        raise ValueError("axis_x and axis_y must differ")
    if not labels:
        raise ValueError("empty selection: no labels given")
    index = {lab: i for i, lab in enumerate(side_labels)}
    missing = [lab for lab in labels if lab not in index]
    if missing:
        raise ValueError(f"unknown {side} labels: {', '.join(missing)}")
    repeated = [lab for lab, count in Counter(labels).items() if count > 1]
    if repeated:
        raise ValueError(f"duplicate {side} labels: {', '.join(repeated)}")

    chosen = sorted(labels, key=index.__getitem__)
    pts = np.array([[coords[index[lab], axis_x - 1], coords[index[lab], axis_y - 1]]
                    for lab in chosen])
    span_x = float(np.abs(pts[:, 0]).max())
    span_y = float(np.abs(pts[:, 1]).max())
    width, height, margin = _PLANE_WIDTH, _PLANE_HEIGHT, 56.0
    # One common unit-per-pixel scale so plane distances keep their meaning.
    scale = min(
        (width / 2.0 - margin) / max(span_x, 1e-12),
        (height / 2.0 - margin) / max(span_y, 1e-12),
    )
    cx, cy = width / 2.0, height / 2.0

    def to_px(p):
        return cx + p[0] * scale, cy - p[1] * scale

    svg = _Canvas(width, height)
    svg.raw(
        "<defs><marker id=\"arrow\" viewBox=\"0 0 10 10\" refX=\"9\" refY=\"5\" "
        "markerWidth=\"7\" markerHeight=\"7\" orient=\"auto-start-reverse\">"
        "<path d=\"M 0 0 L 10 5 L 0 10 z\" fill=\"#555555\"/></marker></defs>\n"
    )
    # Origin cross.
    svg.line(margin / 2, cy, width - margin / 2, cy, stroke="#bbbbbb")
    svg.line(cx, margin / 2, cx, height - margin / 2, stroke="#bbbbbb")

    if trajectory:
        for a, b in zip(pts[:-1], pts[1:]):
            (x1, y1), (x2, y2) = to_px(a), to_px(b)
            svg.line(x1, y1, x2, y2, stroke="#555555", width=1.2,
                     extra=" marker-end=\"url(#arrow)\"")

    color = _ROW_COLOR if side == "row" else _COL_COLOR
    anchors = []
    for lab, p in zip(chosen, pts):
        x, y = to_px(p)
        svg.circle(x, y, 3.0, color)
        anchors.append((x + 5.0, y - 4.0, lab))
    for x, y, text in _place_labels(anchors):
        svg.text(x, y, text, size=10, fill=color)

    svg.text(width - margin / 2, cy - 6, f"factor {axis_x} ({model.percent[axis_x - 1]:.1f}%)",
             size=11, fill="#333333", anchor="end")
    svg.text(cx + 6, margin / 2 + 10, f"factor {axis_y} ({model.percent[axis_y - 1]:.1f}%)",
             size=11, fill="#333333")
    if title:
        svg.text(width / 2.0, 18.0, title, size=13, fill="#000000", anchor="middle")
    return svg.document()


def render_dendrogram(
    dendrogram: Dendrogram,
    cut: int | None = None,
    title: str | None = None,
) -> str:
    """Draw a merge tree as an SVG document string.

    Leaves sit on the baseline in :func:`clustering.leaf_order`.  The
    merges are drawn as one path of vertical and horizontal subpaths (per
    merge, one up from each child and one across at its height), and the
    leaf ticks as a second path.  With ``cut`` a dashed line is drawn at
    the level separating ``cut`` clusters, i.e. between the last two merge
    heights it straddles.
    """
    n = dendrogram.n_leaves
    merges = dendrogram.merges
    order = leaf_order(dendrogram)
    width, height = _TREE_WIDTH, _TREE_HEIGHT
    margin_l, margin_r, margin_t, margin_b = 64.0, 24.0, 30.0, 60.0
    span = width - margin_l - margin_r
    step = span / n
    baseline = height - margin_b
    h_max = max(m[2] for m in merges) if merges else 1.0
    h_scale = (baseline - margin_t) / max(h_max, 1e-300)

    def y_of(h: float) -> float:
        return baseline - h * h_scale

    pos_x = [0.0] * (2 * n - 1)
    pos_h = [0.0] * (2 * n - 1)
    rank = {leaf: i for i, leaf in enumerate(order)}
    for leaf in range(n):
        pos_x[leaf] = margin_l + (rank[leaf] + 0.5) * step

    svg = _Canvas(width, height)
    # Height axis with a few reference ticks.
    svg.line(margin_l - 10, baseline, margin_l - 10, margin_t, stroke="#333333")
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        h = h_max * frac
        svg.line(margin_l - 14, y_of(h), margin_l - 10, y_of(h), stroke="#333333")
        svg.text(margin_l - 18, y_of(h) + 3, f"{h:.3g}", size=9, anchor="end")

    subpaths = []
    for index, (left, right, h, _) in enumerate(merges):
        node = n + index
        xa, xb = pos_x[left], pos_x[right]
        fa, fb, fh = _fmt(xa), _fmt(xb), _fmt(y_of(h))
        subpaths.append(f"M{fa} {_fmt(y_of(pos_h[left]))}V{fh}"
                        f"M{fb} {_fmt(y_of(pos_h[right]))}V{fh}M{fa} {fh}H{fb}")
        pos_x[node] = (xa + xb) / 2.0
        pos_h[node] = h
    svg.path("".join(subpaths))

    if cut is not None:
        if not 1 <= cut <= n:
            raise ValueError(f"cut must produce between 1 and {n} clusters, got {cut}")
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

    tick = f" {_fmt(baseline)}v4"
    svg.path("".join(f"M{_fmt(pos_x[leaf])}{tick}" for leaf in range(n)))
    if n <= 40:
        for leaf in range(n):
            svg.text(pos_x[leaf] + 3, baseline + 8, dendrogram.labels[leaf], size=8,
                     anchor="end", rotate=-90.0)
    else:
        svg.text(margin_l, baseline + 16,
                 f"{n} leaves, left to right: {dendrogram.labels[order[0]]} "
                 f"... {dendrogram.labels[order[-1]]}", size=9, fill="#333333")
    if title:
        svg.text(width / 2.0, 18.0, title, size=13, anchor="middle")
    return svg.document()
