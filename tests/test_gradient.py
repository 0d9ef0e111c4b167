"""Gradient operators against independent convolution oracles."""

import math

import numpy as np
import pytest
from scipy import signal

from artifact.blockiness import accumulate_buckets
from artifact.gradient import (
    DEGREES_PER_BIN,
    DIRECTION_BIN_COUNT,
    KIRSCH_MASKS,
    SOBEL_X,
    SOBEL_Y,
    STRIP_PIXELS,
    SobelField,
    direction_grid,
    kirsch_gradient,
    quantize_direction,
    sobel_gradient,
)
from artifact.seba import _ARM_ROTATIONS, _near_family_arm, family_bins
from conftest import frame_of, random_frame


def _clamp_at(samples, r, c):
    h, w = samples.shape
    return int(samples[min(max(r, 0), h - 1), min(max(c, 0), w - 1)])


def _loop_correlate(samples, mask):
    """Direct triple-loop correlation with edge replication."""
    h, w = samples.shape
    out = np.zeros((h, w), dtype=np.int64)
    for r in range(h):
        for c in range(w):
            acc = 0
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    acc += int(mask[dr + 1, dc + 1]) * _clamp_at(samples, r + dr, c + dc)
            out[r, c] = acc
    return out


def _scipy_correlate(samples, mask):
    padded = np.pad(samples.astype(np.int64), 1, mode="edge")
    return signal.correlate2d(padded, mask.astype(np.int64), mode="valid")


def test_kirsch_matches_loop_oracle():
    rng = np.random.default_rng(42)
    # 3x3 is the smallest frame a LumaFrame accepts.
    for frame in (random_frame(rng, 9, 7), random_frame(rng, 3, 3)):
        responses = np.stack([np.abs(_loop_correlate(frame.samples, m)) for m in KIRSCH_MASKS])
        field = kirsch_gradient(frame)
        assert np.array_equal(field.magnitude, responses.max(axis=0))
        assert np.array_equal(field.direction_index, responses.argmax(axis=0) + 1)


def test_sobel_matches_loop_oracle():
    rng = np.random.default_rng(43)
    frame = random_frame(rng, 6, 11)
    sx = _loop_correlate(frame.samples, np.asarray(SOBEL_X))
    sy = _loop_correlate(frame.samples, np.asarray(SOBEL_Y))
    field = sobel_gradient(frame)
    assert np.array_equal(field.sx, sx)
    assert np.array_equal(field.sy, sy)
    assert np.allclose(field.magnitude, np.hypot(sx, sy), rtol=1e-12, atol=0)


def test_kirsch_matches_scipy_on_random_frames():
    rng = np.random.default_rng(7)
    frames = [random_frame(rng, 24, 31) for _ in range(10)]
    # Binary 0/255 frames: ties between masks and the +/-3825 extremes are common.
    frames += [frame_of(255 * rng.integers(0, 2, size=(24, 31))) for _ in range(10)]
    # A strided view of a larger plane, not a contiguous array.
    frames.append(frame_of(rng.integers(0, 256, size=(50, 93)).astype(np.uint8)[1::2, ::3]))
    assert not frames[-1].samples.flags.c_contiguous
    for frame in frames:
        responses = np.stack(
            [np.abs(_scipy_correlate(frame.samples, m)) for m in KIRSCH_MASKS]
        )
        field = kirsch_gradient(frame)
        assert np.array_equal(field.magnitude, responses.max(axis=0))
        # Blockiness never reads the winning mask, so it is not built for it.
        accumulate_buckets(field)
        assert field._direction_index is None
        # argmax on the stacked oracle also resolves ties to the lowest mask
        assert np.array_equal(field.direction_index, responses.argmax(axis=0) + 1)


def _check_against_masks(frame):
    responses = np.stack([np.abs(_scipy_correlate(frame.samples, m)) for m in KIRSCH_MASKS])
    field = kirsch_gradient(frame)
    magnitude = field.magnitude
    assert magnitude.dtype == np.int16
    assert magnitude.shape == (frame.height, frame.width)
    assert magnitude.flags.c_contiguous
    assert field._direction_index is None
    assert np.array_equal(magnitude, responses.max(axis=0))
    assert field.direction_index.dtype == np.uint8
    assert np.array_equal(field.direction_index, responses.argmax(axis=0) + 1)


# Kirsch runs in strips of STRIP_PIXELS // width rows: 32 rows at width 2048.
STRIP_WIDTH = 2048


@pytest.mark.parametrize("strips", [1, 2])
@pytest.mark.parametrize("extra_rows", [-1, 0, 1])
def test_kirsch_strip_boundaries_match_mask_oracle(strips, extra_rows):
    rows = STRIP_PIXELS // STRIP_WIDTH
    assert rows > 1
    rng = np.random.default_rng(100 + 3 * strips + extra_rows)
    _check_against_masks(random_frame(rng, strips * rows + extra_rows, STRIP_WIDTH))
    # Ties between masks and the +/-3825 extremes sit on the strip seams too.
    binary = 255 * rng.integers(0, 2, size=(strips * rows + extra_rows, STRIP_WIDTH))
    _check_against_masks(frame_of(binary))


def test_kirsch_one_row_strips_match_mask_oracle():
    # Wider than a strip: every strip is a single row.
    rng = np.random.default_rng(104)
    _check_against_masks(random_frame(rng, 4, STRIP_PIXELS + 5))


def test_kirsch_small_and_strided_inputs_match_mask_oracle():
    rng = np.random.default_rng(105)
    _check_against_masks(random_frame(rng, 3, 3))
    # A strided view spanning several strips, not a contiguous array.
    view = rng.integers(0, 256, size=(150, 2 * STRIP_WIDTH + 1)).astype(np.uint8)[::2, ::2]
    frame = frame_of(view)
    assert not frame.samples.flags.c_contiguous
    assert frame.height > 2 * STRIP_PIXELS // frame.width
    _check_against_masks(frame)


def test_sobel_phase_matches_atan2_oracle():
    rng = np.random.default_rng(8)
    frame = random_frame(rng, 17, 23)
    field = sobel_gradient(frame)
    for r in range(frame.height):
        for c in range(frame.width):
            sx, sy = int(field.sx[r, c]), int(field.sy[r, c])
            if sx == 0 and sy == 0:
                assert field.undefined[r, c]
                continue
            expected = math.degrees(math.atan2(sy, sx)) % 360.0
            assert field.phase[r, c] == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_constant_frame_ties_resolve_to_first_mask():
    frame = frame_of(np.full((5, 5), 77))
    field = kirsch_gradient(frame)
    assert np.all(field.magnitude == 0)
    assert np.all(field.direction_index == 1)


def test_response_bounds_on_extreme_input():
    # Worst case for a 3x3 operator on 8-bit data.
    checker = np.kron(np.array([[0, 255], [255, 0]], np.uint8), np.ones((4, 4), np.uint8))
    frame = frame_of(checker)
    assert kirsch_gradient(frame).magnitude.max() <= 3825
    field = sobel_gradient(frame)
    assert np.abs(field.sx).max() <= 1020
    assert np.abs(field.sy).max() <= 1020


def test_geometry_preserved():
    rng = np.random.default_rng(3)
    frame = random_frame(rng, 12, 20)
    for field in (kirsch_gradient(frame), sobel_gradient(frame)):
        assert (field.width, field.height) == (20, 12)
        assert field.magnitude.shape == (12, 20)


@pytest.mark.parametrize(
    "phase,expected",
    [
        (0.0, 0),
        (5.999, 0),
        (6.0, 1),
        (45.0, 7),
        (89.9, 14),
        (90.0, 15),
        (180.0, 30),
        (270.0, 45),
        (354.0, 59),
        (359.999, 59),
        (360.0, 0),
        (-6.0, 59),
        (-0.25, 59),
        (723.5, 0),
    ],
)
def test_quantize_direction(phase, expected):
    assert quantize_direction(phase) == expected


def test_direction_grid_flat_frame_is_all_undefined():
    grid = direction_grid(sobel_gradient(frame_of(np.full((6, 6), 13))))
    assert np.all(grid == -1)


def test_direction_grid_matches_scalar_quantizer():
    rng = np.random.default_rng(9)
    frame = random_frame(rng, 14, 14)
    field = sobel_gradient(frame)
    grid = direction_grid(field)
    for r in range(frame.height):
        for c in range(frame.width):
            if field.undefined[r, c]:
                assert grid[r, c] == -1
            else:
                assert grid[r, c] == quantize_direction(float(field.phase[r, c]))
    assert grid.min() >= -1 and grid.max() < DIRECTION_BIN_COUNT


def test_axis_aligned_ramps_hit_axis_bins():
    # Strictly increasing columns: gradient points along +x, bin 0.
    cols = frame_of(np.tile(np.arange(0, 60, 4, dtype=np.uint8), (8, 1)))
    grid = direction_grid(sobel_gradient(cols))
    assert np.all(grid[:, 1:-1] == 0)
    # Strictly increasing rows: +y, bin 15.
    rows = frame_of(np.tile(np.arange(0, 60, 4, dtype=np.uint8)[:, None], (1, 8)))
    grid = direction_grid(sobel_gradient(rows))
    assert np.all(grid[1:-1, :] == 15)


def test_direction_grid_is_cached_and_read_only():
    field = sobel_gradient(random_frame(np.random.default_rng(11), 8, 8))
    grid = direction_grid(field)
    assert direction_grid(field) is grid
    with pytest.raises(ValueError):
        grid[0, 0] = 1


def test_phase_is_computed_once_and_cached():
    rng = np.random.default_rng(10)
    field = sobel_gradient(random_frame(rng, 8, 8))
    assert field._phase is None
    first = field.phase
    assert field.phase is first


def _reference_bins(sx, sy):
    """float64 degrees(arctan2) % 360 // 6, and -1 where sx == sy == 0."""
    phase = np.degrees(np.arctan2(sy.astype(np.float64), sx.astype(np.float64))) % 360.0
    bins = (phase // DEGREES_PER_BIN).astype(np.int64) % DIRECTION_BIN_COUNT
    bins[(sx == 0) & (sy == 0)] = -1
    return bins


def _all_component_pairs(rows_per_chunk=256):
    """Every (sx, sy) with both in [-1020, 1020], as int16 (sy rows, sx columns) chunks."""
    values = np.arange(-1020, 1021, dtype=np.int16)
    for start in range(0, values.size, rows_per_chunk):
        sy = values[start : start + rows_per_chunk, None]
        yield np.broadcast_to(values, (sy.size, values.size)).copy(), np.repeat(sy, values.size, axis=1)


def test_direction_grid_matches_float64_reference_on_every_component_pair():
    for sx, sy in _all_component_pairs():
        grid = direction_grid(SobelField(sx.shape[1], sx.shape[0], sx, sy))
        assert grid.dtype == np.int8
        assert np.array_equal(grid, _reference_bins(sx, sy))


def test_family_prefilter_keeps_every_pixel_of_the_kept_bins():
    for sx, sy in _all_component_pairs(rows_per_chunk=512):
        bins = _reference_bins(sx, sy)
        for family in range(15):
            kept = np.isin(bins, family_bins(family))
            assert not (kept & ~_near_family_arm(sx, sy, family)).any(), family


def test_family_prefilter_has_no_int16_overflow():
    # Rotated components are linear, so they peak on the border of the
    # component square; an int16 overflow there would differ from int64.
    assert all((abs(c) + abs(s)) * 1020 <= 32767 for c, s in _ARM_ROTATIONS)
    edge = np.arange(-1020, 1021)
    full = np.full_like(edge, 1020)
    sx = np.concatenate([edge, edge, full, -full])
    sy = np.concatenate([full, -full, edge, edge])
    for family in range(15):
        wide = _near_family_arm(sx.astype(np.int64), sy.astype(np.int64), family)
        assert np.array_equal(_near_family_arm(sx.astype(np.int16), sy.astype(np.int16), family), wide)


def test_phase_is_float64_where_float32_would_change_the_bin():
    # arctan2 on int16 computes in float32, which puts both pairs exactly on
    # a bin edge (312 and 222 degrees) and rounds them into the wrong bin.
    sx = np.array([[669, -743]], dtype=np.int16)
    sy = np.array([[-743, -669]], dtype=np.int16)
    field = SobelField(2, 1, sx, sy)
    assert field.phase.dtype == np.float64
    oracle = [math.degrees(math.atan2(y, x)) % 360.0 for x, y in ((669, -743), (-743, -669))]
    assert field.phase[0].tolist() == pytest.approx(oracle, rel=1e-12, abs=0)
    assert [quantize_direction(p) for p in oracle] == [51, 36]
    assert direction_grid(field).tolist() == [[51, 36]]


def test_magnitude_is_exact_at_the_int16_extremes():
    # A 0/255 checkerboard puts |sx| = 1020 and |sy| = 1020 on its block
    # edges, where sx * sx overflows int16.
    checker = np.kron(np.array([[0, 255], [255, 0]], np.uint8), np.ones((4, 4), np.uint8))
    field = sobel_gradient(frame_of(checker))
    assert field.sx.dtype == field.sy.dtype == np.int16
    assert np.abs(field.sx).max() == np.abs(field.sy).max() == 1020
    sx, sy = field.sx.astype(np.int64), field.sy.astype(np.int64)
    assert field.magnitude.dtype == np.float64
    assert np.array_equal(field.magnitude, np.sqrt(sx * sx + sy * sy))
