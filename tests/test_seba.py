"""Direction statistics, block classification, orientation, and periodicity."""

import math

import numpy as np
import pytest

from conftest import frame_of, random_frame
from artifact import gradient, seba
from artifact.gradient import SobelField, direction_grid, quantize_direction, sobel_gradient
from artifact.seba import (
    BlockRegion,
    DirectionHistogram,
    EmsTable,
    accumulate_ems,
    analyze_frame,
    classify_block,
    direction_histogram,
    estimate_uniform_block,
    family_bins,
    gdv_table,
    matching_score,
    pattern_dimensions,
    reduce_bins,
    rotation_offset,
)
from artifact.report import BlockSummary


# --- EMS accumulation -------------------------------------------------------


def _loop_ems(sobel, region=None):
    if region is None:
        rows, cols = slice(None), slice(None)
    else:
        rows, cols = region.slices()
    bins = direction_grid(sobel)[rows, cols]
    sx = sobel.sx[rows, cols]
    sy = sobel.sy[rows, cols]
    ems_x = np.zeros(60)
    ems_y = np.zeros(60)
    for i in range(bins.shape[0]):
        for j in range(bins.shape[1]):
            k = bins[i, j]
            if k >= 0:
                ems_x[k] += float(sx[i, j])
                ems_y[k] += float(sy[i, j])
    return ems_x, ems_y


def test_accumulate_ems_matches_loop_oracle():
    # Component sums are integers well inside float64, so equality is exact.
    rng = np.random.default_rng(40)
    for _ in range(5):
        sobel = sobel_gradient(random_frame(rng, 14, 17))
        table = accumulate_ems(sobel)
        ems_x, ems_y = _loop_ems(sobel)
        assert np.array_equal(table.ems_x, ems_x)
        assert np.array_equal(table.ems_y, ems_y)


def test_accumulate_ems_respects_regions():
    rng = np.random.default_rng(41)
    sobel = sobel_gradient(random_frame(rng, 20, 20))
    region = BlockRegion(origin=(3, 5), size=(8, 6))
    table = accumulate_ems(sobel, region)
    ems_x, ems_y = _loop_ems(sobel, region)
    assert np.array_equal(table.ems_x, ems_x)
    assert np.array_equal(table.ems_y, ems_y)


def test_accumulate_ems_rejects_out_of_bounds_region():
    rng = np.random.default_rng(42)
    sobel = sobel_gradient(random_frame(rng, 10, 10))
    with pytest.raises(ValueError):
        accumulate_ems(sobel, BlockRegion(origin=(5, 5), size=(8, 3)))


def test_ems_norm_property():
    table = EmsTable(ems_x=np.full(60, 3.0), ems_y=np.full(60, 4.0))
    assert np.allclose(table.ems, 5.0)


def test_gdv_table_resultant_angles():
    ems_x = np.zeros(60)
    ems_y = np.zeros(60)
    ems_x[5], ems_y[5] = 3.0, 4.0
    ems_x[7], ems_y[7] = -1.0, -1.0
    table = gdv_table(EmsTable(ems_x=ems_x, ems_y=ems_y))
    assert table.gdv[5] == pytest.approx(math.degrees(math.atan2(4, 3)))
    assert table.gdv[7] == pytest.approx(225.0)
    assert np.isnan(table.gdv[0])
    assert table.dominant[5] and not table.dominant[0]


# --- block classification ---------------------------------------------------


def _hist_with_mass():
    return DirectionHistogram(bins=np.ones(60, dtype=np.int64), total=60)


def _table_from_ems(values):
    return EmsTable(ems_x=np.asarray(values, dtype=np.float64), ems_y=np.zeros(60))


def test_classify_block_crafted_cases():
    six_peaks = np.zeros(60)
    six_peaks[:6] = 100.0
    assert classify_block(_table_from_ems(six_peaks), _hist_with_mass()) == "texture"

    two_peaks = np.zeros(60)
    two_peaks[0], two_peaks[20] = 100.0, 85.0
    assert classify_block(_table_from_ems(two_peaks), _hist_with_mass()) == "edge"

    below_floor = np.full(60, 0.5)  # peak under the absolute floor
    assert classify_block(_table_from_ems(below_floor), _hist_with_mass()) == "uniform"


def test_classify_block_flat_frame_is_uniform():
    sobel = sobel_gradient(frame_of(np.full((16, 16), 90)))
    assert classify_block(accumulate_ems(sobel), direction_histogram(sobel)) == "uniform"


def test_classify_block_matches_dominance_count_oracle():
    rng = np.random.default_rng(43)
    for _ in range(100):
        ems = rng.uniform(0, 50, size=60)
        label = classify_block(_table_from_ems(ems), _hist_with_mass(),
                               th_fix=0.3, texture_count=4, ems_floor=2.0)
        threshold = max(ems.max() - 0.3 * ems.max(), 2.0)
        dominant = sum(1 for e in ems if e >= threshold)
        if dominant == 0:
            assert label == "uniform"
        elif dominant < 4:
            assert label == "edge"
        else:
            assert label == "texture"


# --- histogram families and reduction ---------------------------------------


def test_family_bins_known_sets():
    assert set(family_bins(0)) == {59, 0, 1, 14, 15, 16, 29, 30, 31, 44, 45, 46}
    assert set(family_bins(8)) == {7, 8, 9, 22, 23, 24, 37, 38, 39, 52, 53, 54}


def test_family_bins_are_translates_of_family_zero():
    base = family_bins(0)
    for s in range(15):
        assert set(family_bins(s)) == {(b + s) % 60 for b in base}
        assert len(family_bins(s)) == 12


def test_reduce_bins_zeroes_outside_and_recounts():
    rng = np.random.default_rng(44)
    bins = rng.integers(0, 20, size=60)
    hist = DirectionHistogram(bins=bins, total=int(bins.sum()))
    reduced = reduce_bins(hist, orientation=3)
    kept = family_bins(3)
    assert np.array_equal(reduced.bins[kept], bins[kept])
    outside = np.setdiff1d(np.arange(60), kept)
    assert not reduced.bins[outside].any()
    assert reduced.total == int(bins[kept].sum())


# --- direction histograms ----------------------------------------------------


def test_full_histogram_matches_atan2_oracle():
    rng = np.random.default_rng(45)
    sobel = sobel_gradient(random_frame(rng, 16, 20))
    hist = direction_histogram(sobel)
    counts = np.zeros(60, dtype=np.int64)
    for sx, sy in zip(sobel.sx.ravel(), sobel.sy.ravel()):
        if sx == 0 and sy == 0:
            continue
        counts[quantize_direction(math.degrees(math.atan2(sy, sx)))] += 1
    assert np.array_equal(hist.bins, counts)
    assert hist.total == counts.sum()


def _axis_heavy_frames():
    # Ramps along one axis put every gradient exactly on 0 or 90 degrees,
    # the worst case for the reduced classifier under families 1 and 14.
    cols = np.tile((np.arange(40) * 5 % 200).astype(np.uint8), (24, 1))
    rows = cols.T.copy()
    return [frame_of(cols), frame_of(rows.astype(np.uint8))]


def _component_lattice_field():
    # Every 5th component value in [-1020, 1020] against every other: both
    # extremes, both axes and the diagonals, outside any real frame.
    values = np.arange(-1020, 1021, 5, dtype=np.int16)
    sx, sy = np.meshgrid(values, values)
    return SobelField(values.size, values.size, sx, sy)


def test_reduced_histogram_equals_full_on_kept_bins():
    rng = np.random.default_rng(46)
    frames = [random_frame(rng, 32, 40) for _ in range(3)] + _axis_heavy_frames()
    fields = [sobel_gradient(frame) for frame in frames] + [_component_lattice_field()]
    for sobel in fields:
        full = direction_histogram(sobel)
        for s in range(15):
            reduced = direction_histogram(sobel, family=s)
            kept = family_bins(s)
            assert np.array_equal(reduced.bins[kept], full.bins[kept]), (
                f"family {s} diverged on kept bins"
            )
            outside = np.setdiff1d(np.arange(60), kept)
            assert not reduced.bins[outside].any()
            assert reduced.total == int(full.bins[kept].sum())


def test_histogram_region_matches_cropped_grid():
    rng = np.random.default_rng(47)
    sobel = sobel_gradient(random_frame(rng, 24, 24))
    region = BlockRegion(origin=(4, 6), size=(10, 12))
    hist = direction_histogram(sobel, region)
    sub = direction_grid(sobel)[region.slices()]
    counts = np.bincount(sub[sub >= 0].ravel(), minlength=60)
    assert np.array_equal(hist.bins, counts)


# --- rotation offset ---------------------------------------------------------


def _hist_of(mass):
    bins = np.zeros(60, dtype=np.int64)
    for k, v in mass.items():
        bins[k] = v
    return DirectionHistogram(bins=bins, total=int(bins.sum()))


def test_rotation_offset_family_eight():
    result = rotation_offset(_hist_of({8: 10, 23: 10, 38: 10, 53: 10}))
    assert result.high_bin == 8
    assert result.offset_degrees == 42
    assert result.significant_bins == (8, 23, 38, 53)


def test_rotation_offset_family_zero_arms():
    vertical = rotation_offset(_hist_of({15: 9, 45: 9}))
    assert vertical.high_bin == 15
    assert vertical.offset_degrees == 0
    horizontal = rotation_offset(_hist_of({0: 9, 30: 9}))
    assert horizontal.high_bin == 0
    assert horizontal.offset_degrees == 90


def test_rotation_offset_tie_takes_lowest_shift():
    result = rotation_offset(_hist_of({2: 5, 3: 5}))
    assert result.high_bin == 2


def test_rotation_offset_empty_histogram_is_none():
    assert rotation_offset(_hist_of({})) is None


def test_rotation_offset_rejects_bad_mask():
    with pytest.raises(ValueError):
        rotation_offset(_hist_of({1: 1}), mask=np.ones(7))


def test_rotation_offset_scores_cover_all_mass():
    rng = np.random.default_rng(48)
    bins = rng.integers(0, 9, size=60)
    result = rotation_offset(DirectionHistogram(bins=bins, total=int(bins.sum())))
    # With the one-hot default mask the fifteen shift scores partition the mass.
    assert result.shift_scores.sum() == pytest.approx(bins.sum())


# --- pattern matching ---------------------------------------------------------


def _loop_match(grid, dx, dy):
    h, w = grid.shape
    score = 0
    base_defined = 0
    hist = np.zeros(119, dtype=np.int64)
    for i in range(h):
        for j in range(w):
            i2, j2 = i - dy, j - dx
            if not (0 <= i2 < h and 0 <= j2 < w):
                continue
            a, b = grid[i, j], grid[i2, j2]
            if a >= 0:
                base_defined += 1
            if a >= 0 and b >= 0:
                hist[a + b] += 1
                if a == b:
                    score += 1
    return score, hist, base_defined


@pytest.mark.parametrize("dx,dy", [(0, 0), (3, 0), (-3, 0), (0, 2), (0, -2), (4, -3)])
def test_matching_score_matches_loop_oracle(dx, dy):
    rng = np.random.default_rng(49)
    grid = rng.integers(-1, 60, size=(12, 15))
    result = matching_score(grid, dx=dx, dy=dy)
    score, hist, base_defined = _loop_match(grid, dx, dy)
    assert result.score == score
    assert result.base_defined == base_defined
    assert np.array_equal(result.sum_histogram, hist)


def test_matching_score_zero_shift_counts_defined_pixels():
    rng = np.random.default_rng(50)
    grid = rng.integers(-1, 60, size=(9, 9))
    result = matching_score(grid)
    assert result.score == np.count_nonzero(grid >= 0)
    assert result.base_defined == result.score


def test_matching_score_rejects_no_overlap():
    grid = np.zeros((5, 8), dtype=np.int64)
    with pytest.raises(ValueError):
        matching_score(grid, dx=8)
    with pytest.raises(ValueError):
        matching_score(grid, dy=-5)


def test_sum_histogram_tops_out_at_bin_118():
    grid = np.full((6, 6), 59, dtype=np.int64)
    result = matching_score(grid, dx=1)
    assert result.sum_histogram.shape == (119,)
    assert result.sum_histogram[118] == 30
    assert result.sum_histogram[:118].sum() == 0


# --- pattern dimensions --------------------------------------------------------


def test_pattern_dimensions_striped_grid():
    grid = np.tile(np.arange(30) % 6, (20, 1))
    geometry = pattern_dimensions(grid, max_shift=10)
    assert geometry.period_width == 6
    assert geometry.period_height is None  # constant along columns: never dips
    assert geometry.width_scores[5] == pytest.approx(1.0)


def test_pattern_dimensions_checkered_grid():
    rows = (np.arange(24) // 4) % 2
    cols = (np.arange(24) // 4) % 2
    grid = (rows[:, None] * 2 + cols[None, :]) * 10
    geometry = pattern_dimensions(grid, max_shift=11)
    assert geometry.period_width == 8
    assert geometry.period_height == 8


def test_pattern_dimensions_flat_grid_has_no_period():
    geometry = pattern_dimensions(np.full((16, 16), 7), max_shift=7)
    assert geometry.period_width is None
    assert geometry.period_height is None


def _oracle_fractions(grid, horizontal):
    extent = grid.shape[1] if horizontal else grid.shape[0]
    fractions = []
    for shift in range(1, extent):
        result = matching_score(grid, dx=shift if horizontal else 0, dy=0 if horizontal else shift)
        fractions.append(result.score / result.base_defined if result.base_defined else 0.0)
    return np.array(fractions)


@pytest.mark.parametrize("shape", [(61, 40), (40, 61), (17, 17), (3, 9)])
@pytest.mark.parametrize("low,high", [(-1, 60), (-1, 3), (-4, 300)])
def test_axis_period_fractions_equal_matching_score(shape, low, high):
    # Every shift up to the far edge, on both axes: the sweep must reproduce
    # score / base_defined exactly, including where no base pixel is defined.
    rng = np.random.default_rng(shape[0] * 100 + shape[1] + high)
    grid = rng.integers(low, high, size=shape)
    grid[1] = -1  # a row with no defined entry
    grid[:, -2:] = -1  # trailing columns with none
    grid[-1] = -1
    for horizontal in (True, False):
        expected = _oracle_fractions(grid, horizontal)
        _, fractions = seba._axis_period(grid, len(expected), horizontal)
        assert np.array_equal(fractions, expected)


def test_axis_period_on_a_grid_with_no_defined_pixels():
    grid = np.full((12, 9), -1)
    for horizontal in (True, False):
        period, fractions = seba._axis_period(grid, 8, horizontal)
        assert period is None
        assert fractions.shape == (8,) and not fractions.any()


def test_pattern_dimensions_default_and_invalid_max_shift():
    grid = np.zeros((10, 14), dtype=np.int64)
    geometry = pattern_dimensions(grid)
    assert geometry.width_scores.shape == (5,)  # min(h, w) // 2
    with pytest.raises(ValueError):
        pattern_dimensions(grid, max_shift=0)
    with pytest.raises(ValueError):
        pattern_dimensions(grid, max_shift=10)


# --- uniform block estimation ----------------------------------------------


def _flat(value, size=(8, 8)):
    return np.full(size, float(value))


def test_estimate_uniform_block_quadrant_closed_form():
    block = estimate_uniform_block(
        {"top": _flat(100), "bottom": _flat(200), "left": _flat(100), "right": _flat(200)},
        size=(8, 8),
    )
    assert np.allclose(block[:4, :4], 100.0)
    assert np.allclose(block[:4, 4:], 150.0)
    assert np.allclose(block[4:, :4], 150.0)
    assert np.allclose(block[4:, 4:], 200.0)


def test_estimate_uniform_block_constant_neighbours():
    block = estimate_uniform_block(
        {"top": _flat(77), "bottom": _flat(77), "left": _flat(77), "right": _flat(77)},
        size=(8, 8),
    )
    assert np.allclose(block, 77.0)


def test_estimate_uniform_block_matches_average_formula():
    rng = np.random.default_rng(51)
    sides = {role: rng.uniform(0, 255, size=(6, 7)) for role in ("top", "bottom", "left", "right")}
    block = estimate_uniform_block(sides, size=(6, 7))
    tb = np.vstack([sides["top"][:3], sides["bottom"][3:]])
    lr = np.hstack([sides["left"][:, :4], sides["right"][:, 4:]])
    assert np.allclose(block, (tb + lr) / 2)


def test_estimate_uniform_block_single_imitation():
    block = estimate_uniform_block({"top": _flat(10), "bottom": _flat(30)}, size=(8, 8))
    assert np.allclose(block[:4], 10.0)
    assert np.allclose(block[4:], 30.0)


def test_estimate_uniform_block_diagonal_substitution():
    block = estimate_uniform_block(
        {
            "top-left": _flat(10),
            "bottom-left": _flat(30),  # stand-ins average to 20 on the left
            "right": _flat(40),
        },
        size=(8, 8),
    )
    assert np.allclose(block[:, :4], 20.0)
    assert np.allclose(block[:, 4:], 40.0)


def test_estimate_uniform_block_odd_split_goes_to_first_half():
    block = estimate_uniform_block(
        {"top": _flat(0, (5, 5)), "bottom": _flat(10, (5, 5))}, size=(5, 5)
    )
    assert np.allclose(block[:3], 0.0)
    assert np.allclose(block[3:], 10.0)


def test_estimate_uniform_block_errors():
    with pytest.raises(ValueError):
        estimate_uniform_block({}, size=(8, 8))
    with pytest.raises(ValueError):
        estimate_uniform_block({"top": None, "left": None}, size=(8, 8))
    with pytest.raises(ValueError):
        estimate_uniform_block({"top": _flat(1, (4, 4))}, size=(8, 8))
    with pytest.raises(ValueError):
        estimate_uniform_block({"centre": _flat(1)}, size=(8, 8))


# --- regions and frame summaries --------------------------------------------


def test_block_region_validation():
    with pytest.raises(ValueError):
        BlockRegion(origin=(0, 0), size=(0, 4))
    with pytest.raises(ValueError):
        BlockRegion(origin=(0, 0), size=(4, 4), role="middle")
    region = BlockRegion(origin=(2, 3), size=(4, 5))
    assert region.slices() == (slice(2, 6), slice(3, 8))


def test_analyze_frame_returns_summary():
    rng = np.random.default_rng(52)
    summary = analyze_frame(random_frame(rng, 24, 24, index=3))
    assert isinstance(summary, BlockSummary)
    assert summary.frame_index == 3
    assert summary.block_class in ("uniform", "edge", "texture")


def test_analyze_frame_builds_the_direction_grid_once(monkeypatch):
    # The grid is classified from the field's components exactly once, the
    # period sweep gets that same cached array, and no float64 phase or
    # magnitude plane is built.
    fields, swept, builds = [], [], []
    classify = gradient.classify_directions

    def sobel(frame):
        fields.append(sobel_gradient(frame))
        return fields[-1]

    def counting_classify(sx, sy):
        builds.append(sx)
        return classify(sx, sy)

    def dimensions(grid, max_shift=None):
        swept.append(grid)
        return pattern_dimensions(grid, max_shift)

    monkeypatch.setattr(seba, "sobel_gradient", sobel)
    monkeypatch.setattr(seba, "pattern_dimensions", dimensions)
    monkeypatch.setattr(gradient, "classify_directions", counting_classify)
    monkeypatch.setattr(seba, "classify_directions", counting_classify)
    analyze_frame(random_frame(np.random.default_rng(53), 24, 24))
    assert len(fields) == 1 and len(builds) == 1 and builds[0] is fields[0].sx
    assert len(swept) == 1 and swept[0] is fields[0]._direction_grid
    assert fields[0]._phase is None and fields[0]._magnitude is None
