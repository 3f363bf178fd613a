"""
The story as a trajectory through factor space
==============================================

Runs the bundled eight-section analysis end to end from its config file,
then walks through what the artifacts say: how much structure each factor
axis carries and how the sections drift through the plane in reading
order.
"""

from pathlib import Path

import storyfactors
from storyfactors import ca, pipeline

DATA = Path(storyfactors.__file__).parent / "data"
OUT = Path("demo_output/sections")

# The config bundles everything: the text, the stopword list, the
# paragraph ranges that define the eight sections, and the analysis
# settings (sentence unit, 3/3 frequency thresholds, constrained tree).
config = pipeline.parse_config(DATA / "configs" / "sections.cfg")
result = pipeline.run_pipeline(config, out_dir=OUT)

print("pipeline stages:")
for line in result.summary:
    print(f"  {line}")

# The aggregated table has one row per section; its CA factor space is
# 7-dimensional (8 sections minus the trivial axis).
model = result.model
print(f"\n{model.n_axes} factor axes over {len(model.row_labels)} sections")
print("axis  inertia%  cumulative%")
for k, (share, cumulative) in enumerate(
        zip(model.percent, ca.cumulative_inertia(model)), start=1):
    print(f"  {k}     {share:5.1f}     {cumulative:5.1f}")

# Positions of the sections on the first plane.  Read in order, they
# trace the arc of the narrative; the rendered SVG joins them with
# arrows.
print("\nsection positions on the first factor plane:")
for label, coords in zip(model.row_labels, model.row_coords):
    print(f"  section {label}:  axis1 {coords[0]:+.3f}  axis2 {coords[1]:+.3f}")

print("\nwrote artifacts to", OUT)
print("  factor_plane_segments.svg  - the section trajectory")
print("  factor_plane_words.svg     - the words doing the work")
print("  dendrogram.svg             - constrained tree over the sections")
