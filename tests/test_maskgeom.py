import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

import oracles
from crackscope.errors import DegenerateComponent, InvalidImage, InvalidShape, OutOfRange
from crackscope.maskgeom import (
    ScaleConfig,
    analyze_component,
    analyze_mask,
    connected_components,
    distance_transform,
    skeletonize,
    threshold_mask,
    width_profile,
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


class TestComponents:
    def test_two_disjoint_squares(self):
        mask = np.zeros((12, 12), dtype=bool)
        mask[1:4, 1:4] = True
        mask[7:10, 7:10] = True
        comps = connected_components(mask)
        assert len(comps) == 2
        assert [c.area for c in comps] == [9, 9]
        assert [c.id for c in comps] == [1, 2]
        # equal areas: tie broken by smallest top-left pixel
        assert tuple(comps[0].pixels[0]) == (1, 1)

    def test_diagonal_touch_is_one_component(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, 0] = mask[1, 1] = mask[2, 2] = True
        comps = connected_components(mask)
        assert len(comps) == 1
        assert comps[0].area == 3

    def test_empty_mask(self):
        assert connected_components(np.zeros((5, 5), dtype=bool)) == []

    def test_matches_flood_fill_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            mask = rng.random((20, 20)) < 0.35
            comps = connected_components(mask)
            expected = oracles.flood_fill_components(mask)
            got = [frozenset(map(tuple, c.pixels)) for c in comps]
            assert sorted(got, key=sorted) == sorted(expected, key=sorted)
            areas = [c.area for c in comps]
            assert areas == sorted(areas, reverse=True)

    @given(masks(max_side=30))
    @settings(max_examples=150, deadline=None)
    def test_pixels_and_order_match_flood_fill(self, mask):
        # largest first, ties by the smallest (row, col) pixel
        expected = sorted(oracles.flood_fill_components(mask), key=lambda s: (-len(s), min(s)))
        comps = connected_components(mask)
        assert [c.id for c in comps] == list(range(1, len(expected) + 1))
        for comp, pixels in zip(comps, expected):
            assert comp.pixels.tolist() == [list(p) for p in sorted(pixels)]
            rows = [r for r, _ in pixels]
            cols = [c for _, c in pixels]
            assert (comp.rows, comp.cols) == (
                slice(min(rows), max(rows) + 1),
                slice(min(cols), max(cols) + 1),
            )
        assert len(comps) == len(expected)

    def test_bbox_covers_pixels(self):
        mask = np.zeros((10, 10), dtype=bool)
        mask[2:5, 3:9] = True
        comp = connected_components(mask)[0]
        assert (comp.rows, comp.cols) == (slice(2, 5), slice(3, 9))


class TestDistanceTransform:
    def test_single_foreground_pixel(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[2, 2] = True
        edt = distance_transform(mask)
        assert edt[2, 2] == 1.0
        assert edt[0, 0] == 0.0

    def test_all_background_is_zero(self):
        assert np.all(distance_transform(np.zeros((6, 6), dtype=bool)) == 0.0)

    def test_exact_match_with_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            mask = rng.random((64, 64)) < rng.uniform(0.2, 0.8)
            assert np.array_equal(distance_transform(mask), oracles.brute_force_edt(mask))

    def test_border_counts_as_background_by_default(self):
        mask = np.ones((5, 9), dtype=bool)
        edt = distance_transform(mask)
        assert edt[2, 4] == 3.0  # three rows from the virtual border ring


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

    @given(masks(max_side=40))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_thinning_on_random_masks(self, mask):
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


class TestWidthProfile:
    def test_five_tall_bar_width_five(self):
        mask = np.zeros((11, 30), dtype=bool)
        mask[3:8, 2:28] = True
        comps = connected_components(mask)
        edt = distance_transform(mask)
        skel = skeletonize(mask)
        profile = width_profile(comps[0], edt, skel)
        widths = [wd for _, wd in profile]
        assert max(widths) == 5.0

    def test_single_pixel_line_width_one(self):
        mask = np.zeros((5, 9), dtype=bool)
        mask[2, 1:8] = True
        comps = connected_components(mask)
        profile = width_profile(comps[0], distance_transform(mask), skeletonize(mask))
        assert all(wd == 1.0 for _, wd in profile)

    def test_disk_max_width_near_diameter(self):
        mask = oracles.disk_mask((60, 60), (30, 30), 20)
        comps = connected_components(mask)
        profile = width_profile(comps[0], distance_transform(mask), skeletonize(mask))
        assert 39.0 <= max(wd for _, wd in profile) <= 41.0

    def test_degenerate_component_raises(self):
        mask = np.zeros((6, 6), dtype=bool)
        mask[2:4, 2:4] = True  # 2x2 block thins away entirely
        comps = connected_components(mask)
        skel = skeletonize(mask)
        with pytest.raises(DegenerateComponent):
            width_profile(comps[0], distance_transform(mask), skel)


class TestAnalyzeComponent:
    def _analyze(self, mask, scale=None):
        comps = connected_components(mask)
        edt = distance_transform(mask)
        skel = skeletonize(mask)
        return [analyze_component(c, edt, skel, scale) for c in comps]

    def test_bar_max_equals_min_equals_height(self):
        mask = np.zeros((16, 40), dtype=bool)
        mask[4:11, 3:37] = True  # 7 x 34 bar
        (report,) = self._analyze(mask)
        assert abs(report.max_width_px - 7.0) <= 1.0
        assert abs(report.min_width_px - 7.0) <= 1.0
        assert report.min_width_px <= report.max_width_px

    def test_single_pixel_component(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[2, 2] = True
        (report,) = self._analyze(mask)
        assert report.max_width_px == 1.0
        assert report.min_width_px == 1.0
        assert report.max_width_location == (2, 2)
        assert report.area_px == 1

    def test_wedge_max_at_wide_end(self):
        mask = oracles.wedge_mask((40, 60), (5, 30), 35, 20)
        (report,) = self._analyze(mask)
        assert report.max_width_px >= report.min_width_px
        # the wide end is toward the base row
        assert report.max_width_location[0] > report.min_width_location[0]

    def test_locations_lie_on_skeleton(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            mask = oracles.rotated_bar_mask((50, 50), (25, 25), 36, 7, rng.uniform(0, 180))
            comps = connected_components(mask)
            edt = distance_transform(mask)
            skel = skeletonize(mask)
            for comp in comps:
                report = analyze_component(comp, edt, skel)
                assert skel[report.max_width_location]
                assert skel[report.min_width_location]
                assert 0 < report.min_width_px <= report.max_width_px

    def test_scale_config_adds_mm(self):
        mask = np.zeros((12, 20), dtype=bool)
        mask[4:9, 2:18] = True
        (report,) = self._analyze(mask, ScaleConfig(mm_per_px=0.5))
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
        rng = np.random.default_rng(7)
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
    """``width_profile`` and ``analyze_component`` read only a window around
    the component; ``oracles.naive_analyze_component`` works on the full frame."""

    @staticmethod
    def _skeleton(mask, kind, rng):
        skel = skeletonize(mask)
        if kind == "uint8":  # nonzero values above 1 still mean skeleton
            return skel.astype(np.uint8) * rng.integers(1, 256, mask.shape, dtype=np.uint8)
        if kind == "arbitrary":  # neighbours outside the component count too
            return (rng.random(mask.shape) < 0.5) | skel
        return skel

    @given(
        masks(),
        st.sampled_from(["thinned", "uint8", "arbitrary"]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle(self, mask, skeleton_kind, seed):
        edt = distance_transform(mask)
        skel = self._skeleton(mask, skeleton_kind, np.random.default_rng(seed))
        scale = ScaleConfig(mm_per_px=0.3)
        for comp in connected_components(mask):
            expected = oracles.naive_analyze_component(comp.pixels, edt, skel)
            if expected is None:
                with pytest.raises(DegenerateComponent):
                    width_profile(comp, edt, skel)
                with pytest.raises(DegenerateComponent):
                    analyze_component(comp, edt, skel)
                continue
            profile, fields = expected
            assert width_profile(comp, edt, skel) == profile
            report = analyze_component(comp, edt, skel, scale)
            assert report.component_id == comp.id
            for name, value in fields.items():
                assert getattr(report, name) == value, name
            assert report.max_width_mm == fields["max_width_px"] * 0.3
            assert report.min_width_mm == fields["min_width_px"] * 0.3
            for name in ("max_width_px", "min_width_px", "max_width_mm", "min_width_mm"):
                assert type(getattr(report, name)) is float, name
            for name in ("max_width_location", "min_width_location"):
                assert all(type(v) is int for v in getattr(report, name)), name

    def test_two_by_two_blocks_raise_in_both_bodies(self):
        mask = np.zeros((9, 11), dtype=bool)
        mask[0:2, 0:2] = mask[4:6, 7:9] = True
        edt = distance_transform(mask)
        skel = skeletonize(mask)
        for comp in connected_components(mask):
            assert oracles.naive_analyze_component(comp.pixels, edt, skel) is None
            for body in (width_profile, analyze_component):
                with pytest.raises(DegenerateComponent):
                    body(comp, edt, skel)


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
