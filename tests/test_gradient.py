"""Gradient operators against independent convolution oracles."""

import math

import numpy as np
import pytest
from scipy import signal

from artifact.blockiness import accumulate_buckets
from artifact.gradient import (
    DIRECTION_BIN_COUNT,
    KIRSCH_MASKS,
    SOBEL_X,
    SOBEL_Y,
    direction_grid,
    kirsch_gradient,
    quantize_direction,
    sobel_gradient,
)
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
