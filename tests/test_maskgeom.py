import json
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

import oracles
from crackscope import maskgeom
from crackscope.errors import DegenerateComponent, InvalidImage, InvalidShape, OutOfRange
from crackscope.maskgeom import (
    ScaleConfig,
    analyze_mask,
    connected_components,
    skeletonize,
    threshold_mask,
)


@st.composite
def masks(draw, max_side=24):
    """Non-square boolean masks: random fill (often touching the frame),
    dilated blobs, sparse single pixels, diagonal chains, isolated 2x2 blocks
    (which thin away) or all foreground."""
    kind = draw(st.sampled_from(["random", "blobs", "specks", "diagonal", "blocks", "full"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h, w = (int(v) for v in rng.integers(1, max_side + 1, 2))  # uniform, unlike drawn integers
    if kind == "random":
        return rng.random((h, w)) < draw(st.floats(0.05, 0.95))
    if kind == "blobs":
        seeds = rng.random((h, w)) < 0.08
        return ndimage.binary_dilation(seeds, iterations=draw(st.integers(1, 3)))
    if kind == "specks":
        return rng.random((h, w)) < 0.05
    mask = np.zeros((h, w), dtype=bool)
    if kind == "diagonal":
        for offset in rng.integers(-h, w, draw(st.integers(1, 3))):
            rows = np.arange(h)
            cols = rows + offset if rng.random() < 0.5 else w - 1 - rows - offset
            keep = (cols >= 0) & (cols < w)
            mask[rows[keep], cols[keep]] = True
    elif kind == "blocks":
        for r in range(0, h - 1, 3):
            for c in range(0, w - 1, 3):
                mask[r : r + 2, c : c + 2] = rng.random() < 0.7
    else:
        mask[:] = True
    return mask


@st.composite
def mixed_width_masks(draw, max_side=256):
    """Masks that mix widths as crack masks do: bars 1-31 px wide at any
    angle, one-pixel 8-connected hairlines, single-pixel specks and 2x2
    blocks, with bars often running off the frame."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h, w = (int(v) for v in rng.integers(1, max_side + 1, 2))
    mask = np.zeros((h, w), dtype=bool)
    for _ in range(draw(st.integers(1, 5))):
        center = rng.uniform(-0.1, 1.1, 2) * (w, h)  # (x, y), up to a tenth outside
        length = rng.uniform(0.0, 1.5) * max(h, w)
        width = draw(st.integers(1, 31))
        mask |= oracles.rotated_bar_mask((h, w), center, length, width, rng.uniform(0, 180))
    for _ in range(draw(st.integers(0, 3))):
        (r0, r1), (c0, c1) = rng.integers(0, h, 2), rng.integers(0, w, 2)
        n = max(abs(r1 - r0), abs(c1 - c0)) + 1
        mask[np.linspace(r0, r1, n).round().astype(int), np.linspace(c0, c1, n).round().astype(int)] = True
    density = draw(st.sampled_from([0.0, 0.002, 0.02]))
    mask |= rng.random((h, w)) < density
    blocks = rng.random((h - 1, w - 1)) < density / 4
    for dr, dc in product((0, 1), (0, 1)):
        mask[dr : h - 1 + dr, dc : w - 1 + dc] |= blocks
    return mask


def corpus_like_mask(side, seed):
    """A crack mask laid out like the benchmark's: one 21 px band across the
    top, and below it a grid of 32 px cells, each holding a network of three
    2-5 px wide segments kept 3 px inside its cell."""
    rng = np.random.default_rng(seed)
    mask = np.zeros((side, side), dtype=bool)
    mask[:32] = oracles.rotated_bar_mask((32, side), (side / 2, 16), 2 * side, 21, rng.uniform(-2, 2))
    for r in range(32, side - 31, 32):
        for c in range(0, side - 31, 32):
            width = rng.uniform(2, 5)
            lo, hi = 3 + width / 2, 29 - width / 2
            a, b, fork, end = (rng.uniform(lo, hi, 2) for _ in range(4))
            cell = mask[r : r + 32, c : c + 32]
            for p, q in ((a, b), (b, fork), ((a + b) / 2, end)):
                center, (dx, dy) = (p + q) / 2, q - p
                angle = np.degrees(np.arctan2(dy, dx))
                cell |= oracles.rotated_bar_mask((32, 32), center, np.hypot(dx, dy), width, angle)
    return mask


def oracle_reports(mask, edt, thin):
    """``oracles.naive_analyze_component``'s ``(profile, fields)`` per
    flood-filled component in report order, with the distance frame
    ``edt(mask)`` and the skeleton ``thin(mask)``; None for a component with
    no skeleton pixels."""
    components = sorted(oracles.flood_fill_components(mask), key=lambda s: (-len(s), min(s)))
    distance, skeleton = edt(mask), thin(mask)
    return [oracles.naive_analyze_component(np.array(sorted(c)), distance, skeleton)
            for c in components]


_REMOVABLE = maskgeom._REMOVABLE  # the tables as imported, so a counting table never wraps another


def thin_lookups(thin, mask):
    """``thin(mask)`` and, for each removal-table lookup in order, how many
    8-neighbour codes it looked up and how many of those were removable."""
    looked_up = []

    class Counting:
        def __init__(self, table):
            self.table = table

        def __getitem__(self, code):
            verdict = self.table[code]
            looked_up.append((code.size, int(verdict.sum())))
            return verdict

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(maskgeom, "_REMOVABLE", tuple(Counting(t) for t in _REMOVABLE))
        return thin(mask), looked_up


def thin_counting(thin, mask):
    """``thin(mask)`` and how many 8-neighbour codes it looked up in the
    removal tables."""
    result, looked_up = thin_lookups(thin, mask)
    return result, sum(codes for codes, _ in looked_up)


class TestThreshold:
    def test_all_white(self):
        assert threshold_mask(np.full((3, 3), 255, dtype=np.uint8), 255).all()

    def test_all_black(self):
        assert not threshold_mask(np.zeros((3, 3), dtype=np.uint8), 255).any()

    def test_checker_at_default_threshold(self):
        gray = np.array([[100, 200], [200, 100]], dtype=np.uint8)
        mask = threshold_mask(gray, 255)
        assert np.array_equal(mask, gray == 200)

    def test_foreground_above_half_maxval(self):
        gray = np.arange(256, dtype=np.uint8).reshape(16, 16)
        assert np.array_equal(threshold_mask(gray, 255), gray >= 128)
        assert np.array_equal(threshold_mask(np.array([[0, 1]]), 1), [[False, True]])
        assert np.array_equal(threshold_mask(np.array([[50, 51]]), 100), [[False, True]])

    def test_empty_image_rejected(self):
        with pytest.raises(InvalidImage):
            threshold_mask(np.zeros((0, 4), dtype=np.uint8), 255)

    @pytest.mark.parametrize("maxval", [1, 254, 255, 256, 65535])
    def test_equals_the_int64_form_at_every_integer(self, maxval):
        for dtype in (np.uint8, np.uint16):
            gray = np.arange(np.iinfo(dtype).max + 1, dtype=dtype).reshape(-1, 256)
            assert np.array_equal(threshold_mask(gray, maxval), 2 * gray.astype(np.int64) > maxval)

    @pytest.mark.parametrize("maxval", [1, 254, 255, 256, 65535])
    def test_floats_compare_twice_the_value_with_maxval(self, maxval):
        rng = np.random.default_rng(maxval)
        whole = rng.integers(-2, maxval + 3, (64, 64)).astype(np.float64)
        assert np.array_equal(threshold_mask(whole, maxval), 2 * whole.astype(np.int64) > maxval)
        half = maxval / 2
        near = [np.nextafter(half, -np.inf), half, np.nextafter(half, np.inf)]
        for dtype in (np.float64, np.float32):
            gray = np.concatenate([rng.uniform(-1, maxval + 1, 61), near]).astype(dtype)[None, :]
            assert np.array_equal(threshold_mask(gray, maxval), 2 * gray.astype(np.float64) > maxval)


class TestComponents:
    def test_two_disjoint_squares(self):
        mask = np.zeros((12, 12), dtype=bool)
        mask[1:4, 1:4] = True
        mask[7:10, 7:10] = True
        labels, areas = connected_components(mask)
        assert areas.tolist() == [9, 9]
        # equal areas: tie broken by smallest top-left pixel
        assert (labels[1:4, 1:4] == 1).all() and (labels[7:10, 7:10] == 2).all()
        assert (labels[~mask] == 0).all()

    def test_diagonal_touch_is_one_component(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, 0] = mask[1, 1] = mask[2, 2] = True
        labels, areas = connected_components(mask)
        assert areas.tolist() == [3]
        assert np.array_equal(labels, mask.astype(int))

    def test_empty_mask(self):
        labels, areas = connected_components(np.zeros((5, 5), dtype=bool))
        assert len(areas) == 0 and not labels.any()

    def test_matches_flood_fill_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            mask = rng.random((20, 20)) < 0.35
            labels, areas = connected_components(mask)
            got = [frozenset(map(tuple, np.argwhere(labels == i).tolist()))
                   for i in range(1, len(areas) + 1)]
            expected = oracles.flood_fill_components(mask)
            assert sorted(got, key=sorted) == sorted(expected, key=sorted)
            assert areas.tolist() == [len(c) for c in got]
            assert areas.tolist() == sorted(areas.tolist(), reverse=True)

    @given(masks(max_side=30))
    @settings(max_examples=150, deadline=None)
    def test_pixels_and_order_match_flood_fill(self, mask):
        # largest first, ties by the smallest (row, col) pixel
        expected = sorted(oracles.flood_fill_components(mask), key=lambda s: (-len(s), min(s)))
        labels, areas = connected_components(mask)
        assert areas.tolist() == [len(pixels) for pixels in expected]
        want = np.zeros(mask.shape, dtype=int)
        for i, pixels in enumerate(expected, start=1):
            for r, c in pixels:
                want[r, c] = i
        assert np.array_equal(labels, want)

    @given(masks())
    @settings(max_examples=150, deadline=None)
    def test_analyze_reports_the_areas_it_labels(self, mask):
        _, areas = connected_components(mask)
        try:
            reports = analyze_mask(mask)
        except DegenerateComponent:
            return
        assert [r.area_px for r in reports] == areas.tolist()

    def test_bbox_covers_pixels(self):
        # the one place a bbox is reported: a component that thins away
        mask = np.zeros((10, 10), dtype=bool)
        mask[2:5, 1:9] = True
        mask[7:9, 3:5] = True
        with pytest.raises(DegenerateComponent) as info:
            analyze_mask(mask)
        assert str(info.value) == "component 2 (rows 7-8, cols 3-4) has no skeleton pixels"


def edt_at_foreground(mask):
    """The frame of ``sqrt(maskgeom._squared_edt_at)`` at every foreground
    pixel of ``mask``, 0 at the background."""
    flat = np.flatnonzero(mask)
    edt = np.zeros(mask.shape)
    edt.ravel()[flat] = np.sqrt(maskgeom._squared_edt_at(mask, flat))
    return edt


@st.composite
def edt_masks(draw):
    """Masks for the EDT: those of :func:`masks`, 64 x 64 frames of random
    fill, ``1 x n`` and ``n x 1`` rows of random fill, all-foreground frames
    of any shape (where the frame ring sets every distance), single pixels
    anywhere, the frame's edge included, frames whose foreground runs touch
    the first and the last row, frames about one and two column-pass strips
    wide, and ``1 x n`` frames up to three strips wide."""
    kind = draw(st.sampled_from(["masks", "random", "line", "full", "single", "edges", "strips", "flat"]))
    if kind == "masks":
        return draw(masks(max_side=40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "random":
        return rng.random((64, 64)) < rng.uniform(0.2, 0.8)
    h, w = (int(v) for v in rng.integers(1, 41, 2))
    if kind == "line":
        n = max(h, w)
        row = rng.random(n) < draw(st.floats(0.3, 1.0))
        return row[None, :] if rng.random() < 0.5 else row[:, None]
    if kind in ("edges", "strips", "flat"):
        if kind == "strips":
            w = draw(st.sampled_from([maskgeom._STRIP - 1, maskgeom._STRIP, maskgeom._STRIP + 1,
                                      2 * maskgeom._STRIP + 3]))
        elif kind == "flat":
            h, w = 1, int(rng.integers(1, 3 * maskgeom._STRIP + 1))
        mask = rng.random((h, w)) < rng.uniform(0.2, 0.9)
        if kind == "edges":
            mask[0] |= rng.random(w) < 0.7
            mask[-1] |= rng.random(w) < 0.7
            mask[:, rng.random(w) < 0.2] = True  # full-height runs
        return mask
    mask = np.full((h, w), kind == "full")
    if kind == "single":
        mask[rng.integers(h), rng.integers(w)] = True
    return mask


class TestDistanceTransform:
    """``maskgeom._squared_edt_at``, the integer EDT at chosen pixels,
    against the exhaustive scan of ``oracles.brute_force_edt``."""

    def test_single_foreground_pixel(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[2, 2] = True
        edt = edt_at_foreground(mask)
        assert edt[2, 2] == 1.0
        assert edt[0, 0] == 0.0

    def test_all_background_is_zero(self):
        assert np.all(edt_at_foreground(np.zeros((6, 6), dtype=bool)) == 0.0)

    def test_border_counts_as_background_by_default(self):
        mask = np.ones((5, 9), dtype=bool)
        edt = edt_at_foreground(mask)
        assert edt[2, 4] == 3.0  # three rows from the virtual border ring

    def test_squares_do_not_overflow_int32_in_a_tall_frame(self):
        # the middle row's g is 50,001, whose square exceeds int32; the side
        # rings are 2 columns away from the middle column
        mask = np.ones((100_001, 3), dtype=bool)
        d2 = maskgeom._squared_edt_at(mask, np.array([50_000 * 3 + 1, 1]))
        assert d2.tolist() == [4, 1]

    @given(edt_masks())
    @settings(max_examples=400, deadline=None)
    def test_matches_brute_force_at_every_foreground_pixel(self, mask):
        flat = np.flatnonzero(mask)
        d2 = maskgeom._squared_edt_at(mask, flat)
        assert d2.dtype == np.int64
        assert np.array_equal(np.sqrt(d2), oracles.brute_force_edt(mask).ravel()[flat])

    def test_row_search_work_does_not_follow_vertical_runs(self, monkeypatch):
        # full-height 1 px lines in every 4th column: a pixel's vertical
        # distance runs up to half the frame, its true distance is 1, so the
        # row search steps once per pixel; a search as wide as the vertical
        # distance steps about a hundred times per pixel here
        mask = np.zeros((1024, 256), dtype=bool)
        mask[:, 2::4] = True
        flat = np.flatnonzero(mask)

        class Minimum:  # np.minimum, tallying the int32 pairs g[c - dc], g[c + dc]
            gathered = 0

            def __call__(self, a, b, **kwargs):
                if "out" not in kwargs and a.dtype == np.int32:
                    self.gathered += a.size
                return np.minimum(a, b, **kwargs)

            def __getattr__(self, name):
                return getattr(np.minimum, name)

        class CountingNumpy:
            minimum = Minimum()

            def __getattr__(self, name):
                return getattr(np, name)

        monkeypatch.setattr(maskgeom, "np", CountingNumpy())
        d2 = maskgeom._squared_edt_at(mask, flat)
        assert np.all(d2 == 1)
        assert 0 < CountingNumpy.minimum.gathered <= len(flat)

    def test_values_at_any_subset_in_any_order(self):
        rng = np.random.default_rng(2)
        mask = oracles.disk_mask((40, 70), (20, 30), 15) | (rng.random((40, 70)) < 0.3)
        want = oracles.distance_transform(mask).ravel()
        flat = rng.permutation(mask.size)[:500]  # background pixels included, at distance 0
        assert np.array_equal(np.sqrt(maskgeom._squared_edt_at(mask, flat)), want[flat])
        assert len(maskgeom._squared_edt_at(mask, flat[:0])) == 0


class TestSkeletonize:
    def test_one_pixel_line_unchanged(self):
        mask = np.zeros((7, 9), dtype=bool)
        mask[3, 1:8] = True
        assert np.array_equal(skeletonize(mask), mask)

    def test_filled_bar_thins_to_centerline(self):
        mask = np.zeros((9, 20), dtype=bool)
        mask[3:6, 2:18] = True  # 3 x 16 bar
        skel = skeletonize(mask)
        rows = np.unique(np.argwhere(skel)[:, 0])
        assert list(rows) == [4]  # single center row
        assert skel.sum() >= 12

    def test_empty_mask(self):
        assert not skeletonize(np.zeros((4, 4), dtype=bool)).any()

    def test_matches_reference_thinning(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            mask = rng.random((16, 16)) < 0.55
            assert np.array_equal(skeletonize(mask), oracles.reference_thinning(mask))

    def test_any_memory_layout(self):
        """A transposed or Fortran-ordered mask thins, and reports, as its
        C-ordered copy does: ``np.pad`` keeps the layout, and thinning writes
        through a flat view of its padded frame."""
        rng = np.random.default_rng(8)
        mask = ndimage.binary_dilation(rng.random((30, 40)) < 0.04, iterations=2)
        for layout in (mask.T, np.asfortranarray(mask), mask[:, ::-1], mask[::2]):
            copy = np.ascontiguousarray(layout)
            assert np.array_equal(skeletonize(layout), oracles.reference_thinning(copy))
            assert analyze_mask(layout) == analyze_mask(copy)

    @given(masks(max_side=40))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_thinning_on_random_masks(self, mask):
        assert np.array_equal(skeletonize(mask), oracles.reference_thinning(mask))

    @given(mixed_width_masks())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_window_it_replaced_on_mixed_widths(self, mask):
        skel, codes = thin_counting(skeletonize, mask)
        assert np.array_equal(skel, oracles.window_thinning(mask))
        assert codes <= 18 * mask.sum()

    @given(mixed_width_masks(max_side=48))
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_thinning_on_mixed_widths(self, mask):
        assert np.array_equal(skeletonize(mask), oracles.reference_thinning(mask))

    def test_subset_of_foreground(self):
        rng = np.random.default_rng(4)
        mask = rng.random((30, 30)) < 0.6
        skel = skeletonize(mask)
        assert not (skel & ~mask).any()

    def test_preserves_component_connectivity(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            mask = oracles.rotated_bar_mask((40, 40), (20, 20), 30, 5, rng.uniform(0, 180))
            skel = skeletonize(mask)
            if skel.sum() == 0:
                continue
            assert len(oracles.flood_fill_components(skel)) == len(
                oracles.flood_fill_components(mask)
            )


class TestThinningWork:
    """Thinning looks up codes for the foreground and its removals, not for
    the frame: one pass over every foreground pixel, one over at most every
    foreground pixel left, then at most the 8 neighbours of each removal in
    each of the next two subiterations, so at most 18 codes per foreground
    pixel."""

    @staticmethod
    def bar_and_hairline(side, gap):
        mask = np.zeros((side, side), dtype=bool)
        mask[8:39, 8:56] = True  # a 31 px wide bar
        mask[38 + gap, 8:56] = True  # a hairline gap rows below it
        return mask

    def test_codes_depend_on_the_shapes_not_the_frame_or_the_gap(self):
        counts = []
        for side, gap in ((64, 10), (1024, 10), (1024, 900)):
            mask = self.bar_and_hairline(side, gap)
            skel, codes = thin_counting(skeletonize, mask)
            assert np.array_equal(skel, oracles.window_thinning(mask))
            assert codes <= 18 * mask.sum()
            counts.append(codes)
        assert counts[0] == counts[1] == counts[2]

    def test_the_second_subiteration_skips_pixels_with_eight_foreground_neighbours(self):
        mask = self.bar_and_hairline(64, 10)
        _, ((first, removed), (second, _), *_) = thin_lookups(skeletonize, mask)
        assert first == mask.sum()
        assert second < first - removed  # the bar's interior is not looked up again

    def test_the_bbox_window_fails_the_gate(self):
        mask = self.bar_and_hairline(1024, 900)
        _, codes = thin_counting(oracles.window_thinning, mask)
        assert codes > 18 * mask.sum()


class TestWidthProfile:
    def test_five_tall_bar_width_five(self):
        mask = np.zeros((11, 30), dtype=bool)
        mask[3:8, 2:28] = True
        (report,) = analyze_mask(mask)
        assert report.max_width_px == 5.0

    def test_single_pixel_line_width_one(self):
        mask = np.zeros((5, 9), dtype=bool)
        mask[2, 1:8] = True
        (report,) = analyze_mask(mask)
        assert report.max_width_px == report.min_width_px == 1.0
        assert report.skeleton_length_px == 7

    def test_disk_max_width_near_diameter(self):
        mask = oracles.disk_mask((60, 60), (30, 30), 20)
        (report,) = analyze_mask(mask)
        assert 39.0 <= report.max_width_px <= 41.0

    def test_degenerate_component_raises(self):
        mask = np.zeros((6, 6), dtype=bool)
        mask[2:4, 2:4] = True  # 2x2 block thins away entirely
        with pytest.raises(DegenerateComponent):
            analyze_mask(mask)


class TestAnalyzeComponent:
    def test_bar_max_equals_min_equals_height(self):
        mask = np.zeros((16, 40), dtype=bool)
        mask[4:11, 3:37] = True  # 7 x 34 bar
        (report,) = analyze_mask(mask)
        assert abs(report.max_width_px - 7.0) <= 1.0
        assert abs(report.min_width_px - 7.0) <= 1.0
        assert report.min_width_px <= report.max_width_px

    def test_single_pixel_component(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[2, 2] = True
        (report,) = analyze_mask(mask)
        assert report.max_width_px == 1.0
        assert report.min_width_px == 1.0
        assert report.max_width_location == (2, 2)
        assert report.area_px == 1

    def test_wedge_max_at_wide_end(self):
        mask = oracles.wedge_mask((40, 60), (5, 30), 35, 20)
        (report,) = analyze_mask(mask)
        assert report.max_width_px >= report.min_width_px
        # the wide end is toward the base row
        assert report.max_width_location[0] > report.min_width_location[0]

    def test_locations_lie_on_skeleton(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            mask = oracles.rotated_bar_mask((50, 50), (25, 25), 36, 7, rng.uniform(0, 180))
            skel = skeletonize(mask)
            for report in analyze_mask(mask):
                assert skel[report.max_width_location]
                assert skel[report.min_width_location]
                assert 0 < report.min_width_px <= report.max_width_px

    def test_scale_config_adds_mm(self):
        mask = np.zeros((12, 20), dtype=bool)
        mask[4:9, 2:18] = True
        (report,) = analyze_mask(mask, ScaleConfig(mm_per_px=0.5))
        assert report.max_width_mm == report.max_width_px * 0.5
        assert report.min_width_mm == report.min_width_px * 0.5
        doc = report.to_dict()
        assert list(doc) == [
            "component_id",
            "area_px",
            "max_width_px",
            "max_width_location",
            "min_width_px",
            "min_width_location",
            "skeleton_length_px",
            "max_width_mm",
            "min_width_mm",
        ]

    def test_deterministic(self):
        mask = oracles.rotated_bar_mask((40, 40), (20, 20), 25, 6, 30)
        first = analyze_mask(mask)
        second = analyze_mask(np.array(mask))
        assert first == second

    def test_bad_scale_rejected(self):
        with pytest.raises(OutOfRange):
            ScaleConfig(mm_per_px=0.0)

    @pytest.mark.parametrize("value", [-1.0, np.inf, np.nan])
    def test_non_positive_or_non_finite_scale_rejected(self, value):
        with pytest.raises(OutOfRange):
            ScaleConfig(mm_per_px=value)


class TestAgainstFullFrameOracle:
    """``analyze_mask`` reads every component from one pass over the sorted
    skeleton pixels; ``oracles.naive_analyze_component`` builds each
    flood-filled component's own full-frame mask."""

    @given(masks())
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle(self, mask):
        expected = oracle_reports(mask, oracles.brute_force_edt, oracles.reference_thinning)
        degenerate = [i for i, e in enumerate(expected, start=1) if e is None]
        if degenerate:
            with pytest.raises(DegenerateComponent, match=f"^component {degenerate[0]} "):
                analyze_mask(mask, ScaleConfig(mm_per_px=0.3))
            return
        reports = analyze_mask(mask, ScaleConfig(mm_per_px=0.3))
        assert len(reports) == len(expected)
        for i, (report, (_profile, fields)) in enumerate(zip(reports, expected), start=1):
            assert report.component_id == i
            for name, value in fields.items():
                assert getattr(report, name) == value, name
            assert report.max_width_mm == fields["max_width_px"] * 0.3
            assert report.min_width_mm == fields["min_width_px"] * 0.3
            for name in ("max_width_px", "min_width_px", "max_width_mm", "min_width_mm"):
                assert type(getattr(report, name)) is float, name
            for name in ("area_px", "skeleton_length_px"):
                assert type(getattr(report, name)) is int, name
            for name in ("max_width_location", "min_width_location"):
                assert all(type(v) is int for v in getattr(report, name)), name

    def test_two_by_two_blocks_raise_for_the_lowest_id(self):
        # ids by area: the 3x3 block, the 6 px line, then the two 2x2
        # blocks in raster order; both blocks thin away
        mask = np.zeros((9, 11), dtype=bool)
        mask[0:3, 0:3] = mask[4:6, 7:9] = mask[7:9, 0:2] = True
        mask[0, 5:11] = True
        expected = oracle_reports(mask, oracles.brute_force_edt, oracles.reference_thinning)
        assert [e is None for e in expected] == [False, False, True, True]
        with pytest.raises(DegenerateComponent) as info:
            analyze_mask(mask)
        assert str(info.value) == "component 3 (rows 4-5, cols 7-8) has no skeleton pixels"


class TestMetrologyProperties:
    def test_rotation_sanity(self):
        base = oracles.rotated_bar_mask((60, 60), (30, 30), 40, 9, 0)
        rot90 = oracles.rotated_bar_mask((60, 60), (30, 30), 40, 9, 90)
        rot45 = oracles.rotated_bar_mask((60, 60), (30, 30), 40, 9, 45)
        w0 = analyze_mask(base)[0].max_width_px
        w90 = analyze_mask(rot90)[0].max_width_px
        w45 = analyze_mask(rot45)[0].max_width_px
        assert w0 == w90
        assert abs(w45 - w0) <= 1.5

    def test_integer_scaling(self):
        # odd bar height keeps the inscribed disk centered on a pixel at
        # both scales, so the width scales exactly
        small = oracles.bar_mask((20, 30), 6, 4, 5, 22)
        big = np.kron(small, np.ones((3, 3), dtype=bool))
        w_small = analyze_mask(small)[0].max_width_px
        w_big = analyze_mask(big)[0].max_width_px
        assert abs(w_big - 3 * w_small) <= 1.0

    def test_max_width_matches_inscribed_disk_oracle(self):
        rng = np.random.default_rng(8)
        shapes = []
        for angle in (0, 45, 90):
            shapes.append(oracles.rotated_bar_mask((64, 64), (32, 32), 40, 7, angle))
        shapes.append(oracles.disk_mask((64, 64), (32, 32), 14))
        shapes.append(oracles.wedge_mask((64, 64), (6, 32), 50, 18))
        shapes.append(oracles.l_shape_mask((64, 64), 8, 40))
        for _ in range(6):
            shapes.append(
                oracles.rotated_bar_mask(
                    (64, 64),
                    (32, 32),
                    rng.uniform(20, 45),
                    rng.uniform(4, 12),
                    rng.uniform(0, 180),
                )
            )
        for mask in shapes:
            reports = analyze_mask(mask)
            assert reports, "shape produced no components"
            got = max(r.max_width_px for r in reports)
            want = oracles.max_inscribed_disk_width(mask)
            tol = 1.5 if want != round(want) else 1.0
            assert abs(got - want) <= tol, (got, want)


class TestAnalyzeMask:
    def test_empty_mask_no_reports(self):
        assert analyze_mask(np.zeros((8, 8), dtype=bool)) == []

    def test_reports_ordered_by_id(self):
        mask = np.zeros((20, 20), dtype=bool)
        mask[2:5, 2:15] = True
        mask[10:18, 3:6] = True
        reports = analyze_mask(mask)
        assert [r.component_id for r in reports] == [1, 2]

    def test_non_2d_rejected(self):
        with pytest.raises(InvalidShape):
            analyze_mask(np.zeros((2, 2, 2), dtype=bool))


class TestAgainstScipyEdt:
    """``analyze_mask`` reads its widths from the integer EDT at the
    skeleton pixels; the reference reads them from scipy's full-frame EDT,
    so every report byte must agree."""

    @staticmethod
    def _expected(mask):
        """The report dicts with widths from scipy's full-frame EDT on the
        library's skeleton; None if a component has no skeleton pixels."""
        reports = oracle_reports(mask, oracles.distance_transform, skeletonize)
        if any(r is None for r in reports):
            return None
        return [{"component_id": i, **fields} for i, (_profile, fields) in enumerate(reports, start=1)]

    @given(mixed_width_masks())
    @settings(max_examples=60, deadline=None)
    def test_reports_equal_on_mixed_widths(self, mask):
        expected = self._expected(mask)
        if expected is None:
            with pytest.raises(DegenerateComponent):
                analyze_mask(mask)
            return
        assert json.dumps([r.to_dict() for r in analyze_mask(mask)]) == json.dumps(expected)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_reports_equal_on_tiles_of_a_corpus_like_mask(self, seed):
        mask = np.tile(corpus_like_mask(192, seed), (2, 2))
        expected = self._expected(mask)
        assert expected is not None
        assert json.dumps([r.to_dict() for r in analyze_mask(mask)]) == json.dumps(expected)


def analyze_work(mask):
    """``analyze_mask(mask)``'s work, counted: ``labelled``, the pixels handed
    to ``ndimage.label``; ``lookups``, thinning's code lookups; ``steps``,
    the row search's steps (the int32 pairs of ``g`` that its ``np.minimum``
    compares); and ``report``, the array elements handed to numpy functions
    outside labeling, thinning and the EDT."""
    work = dict(labelled=0, steps=0, report=0)
    stages = []  # the stage functions running

    class Counting:  # a module or function of numpy or scipy.ndimage, tallying array arguments
        def __init__(self, target):
            self.target = target

        def __getattr__(self, name):
            attr = getattr(self.target, name)
            return Counting(attr) if callable(attr) and not isinstance(attr, type) else attr

        def __call__(self, *args, **kwargs):
            size = sum(a.size for a in args if isinstance(a, np.ndarray))
            if self.target is ndimage.label:
                work["labelled"] += size
            elif self.target is np.minimum and "out" not in kwargs and args[0].dtype == np.int32:
                work["steps"] += args[0].size
            elif not stages:
                work["report"] += size
            return self.target(*args, **kwargs)

    def stage(fn):
        def run(*args):
            stages.append(fn)
            try:
                return fn(*args)
            finally:
                stages.pop()
        return run

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(maskgeom, "np", Counting(np))
        patch.setattr(maskgeom, "ndimage", Counting(ndimage))
        for name in ("_label", "skeletonize", "_squared_edt_at"):
            patch.setattr(maskgeom, name, stage(getattr(maskgeom, name)))
        reports, work["lookups"] = thin_counting(analyze_mask, mask)
    return reports, work


class TestAnalyzeWork:
    """``analyze``'s work follows the pixels: a mask tiled 2 x 2, with a
    background margin so that each component appears four times, costs at
    most four times the labeling, thinning and report work of the mask, and
    the row search takes at most ``d + 1`` steps at a skeleton pixel at
    distance ``d``."""

    @pytest.fixture(scope="class")
    def masks_and_work(self):
        mask = np.pad(corpus_like_mask(128, 0), 2)
        tiled = np.tile(mask, (2, 2))
        return [(m, *analyze_work(m)) for m in (mask, tiled)]

    def test_work_at_most_quadruples_on_the_tiled_mask(self, masks_and_work):
        (_, reports, one), (_, tiled_reports, four) = masks_and_work
        assert len(tiled_reports) == 4 * len(reports)
        for name, count in one.items():  # 16 elements of slack: ``length[:-1]`` is one short of each id
            assert 0 < four[name] <= 4 * count + 16, name

    def test_row_search_steps_at_most_distance_plus_one(self, masks_and_work):
        for mask, _, work in masks_and_work:
            d = oracles.distance_transform(mask)[skeletonize(mask)]
            assert work["steps"] <= (d + 1).sum()


class TestAnalyzeMemory:
    def test_peak_is_at_most_8_bytes_per_pixel_on_a_2048_tile(self):
        mask = np.tile(corpus_like_mask(256, 0), (8, 8))
        tracemalloc.start()
        try:
            analyze_mask(mask)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * mask.size, f"{peak / mask.size:.1f} bytes per pixel"

    def test_a_bool_mask_is_checked_without_a_copy(self):
        mask = corpus_like_mask(64, 0)
        assert maskgeom._require_mask(mask) is mask
        as_bytes = maskgeom._require_mask(mask.view(np.uint8))
        assert as_bytes.dtype == bool and np.array_equal(as_bytes, mask)
