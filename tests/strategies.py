"""Hypothesis strategies for polygons and detections shared by the tests."""

import numpy as np
from hypothesis import strategies as st

# a 1/16 grid puts vertices on pixel edges and centers and makes IoU ties likely
_grid = st.integers(0, 16).map(lambda v: v / 16.0)
_free = st.floats(0.0, 1.0, allow_nan=False)
_coordinate = st.one_of(_grid, _free)


@st.composite
def unit_polygons(draw, max_vertices=8, min_vertices=3):
    """[k, 2] polygons in the unit square: arbitrary (often self-intersecting),
    tiny (rasterizing empty at small extents) or touching the frame."""
    k = draw(st.integers(min_vertices, max_vertices))
    kind = draw(st.sampled_from(["free", "tiny", "frame"]))
    points = np.array([[draw(_coordinate), draw(_coordinate)] for _ in range(k)])
    if kind == "tiny":
        centre = np.array([draw(_free), draw(_free)])
        points = np.clip(centre + (points - 0.5) * 0.01, 0.0, 1.0)
    elif kind == "frame":
        points[draw(st.integers(0, k - 1)), draw(st.integers(0, 1))] = draw(st.sampled_from([0.0, 1.0]))
    return points


scores = st.one_of(st.sampled_from([0.25, 0.5, 0.75, 1.0]), st.floats(0.0, 1.0))
classes = st.integers(0, 2)
