"""Compass (Kirsch) and Sobel gradient operators on luma planes.

Both operators replicate the border pixel outward before applying their 3x3
windows, so output geometry always equals input geometry.  Samples are 8-bit,
so both are exact in int16: no Kirsch intermediate exceeds +/-6120 (no
response +/-3825), and no Sobel component exceeds +/-1020.  Only the Sobel
magnitude and phase are float64, and both are built only when read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .frame_io import LumaFrame

DIRECTION_BIN_COUNT = 60
DEGREES_PER_BIN = 6

# Eight compass masks at 45-degree steps.  Index k=1 is the north mask; each
# subsequent mask rotates the {5,5,5,-3,...,-3} ring one position clockwise.
# kirsch_gradient works from ring sums instead (see _strip_sums); the masks
# are the reference that its results are tested against.
KIRSCH_MASKS = np.array(
    [
        [[5, 5, 5], [-3, 0, -3], [-3, -3, -3]],      # 1: N
        [[5, 5, -3], [5, 0, -3], [-3, -3, -3]],      # 2: NW
        [[5, -3, -3], [5, 0, -3], [5, -3, -3]],      # 3: W
        [[-3, -3, -3], [5, 0, -3], [5, 5, -3]],      # 4: SW
        [[-3, -3, -3], [-3, 0, -3], [5, 5, 5]],      # 5: S
        [[-3, -3, -3], [-3, 0, 5], [-3, 5, 5]],      # 6: SE
        [[-3, -3, 5], [-3, 0, 5], [-3, -3, 5]],      # 7: E
        [[-3, 5, 5], [-3, 0, 5], [-3, -3, -3]],      # 8: NE
    ],
    dtype=np.int32,
)

# sobel_gradient works from separable [1, 2, 1] sums instead; these masks are
# the reference that its results are tested against.
SOBEL_X = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=np.int32)
SOBEL_Y = np.array([[-1, -2, -1], [0, 0, 0], [1, 2, 1]], dtype=np.int32)


@dataclass
class GradientField:
    """Per-pixel compass gradient: strongest |response| and winning mask.

    Every Kirsch mask weighs three consecutive ring pixels by 5 and the other
    five by -3, so mask k responds with 8*S3_k - 3*T, where S3_k sums its
    three 5-weighted pixels and T all eight ring pixels.  With 8-bit samples
    |8*S3_k| and |3*T| are at most 6120, so int16 holds every intermediate,
    and magnitude = max_k |8*S3_k - 3*T| is at most 3825.

    direction_index holds the 1-based mask index; ties go to the lowest index.
    No blockiness path reads it, so it is computed from ``samples`` on first
    access, strip by strip like the magnitude, and then kept.
    """

    width: int
    height: int
    magnitude: np.ndarray  # int16 in [0, 3825], (height, width)
    samples: np.ndarray = field(repr=False)  # the uint8 plane the field describes
    _direction_index: np.ndarray | None = field(default=None, repr=False)

    @property
    def direction_index(self) -> np.ndarray:
        """uint8 in [1, 8], (height, width)."""
        if self._direction_index is None:
            index = np.empty((self.height, self.width), dtype=np.uint8)
            for rows, triples, ring in _strip_sums(self.samples):
                responses = np.abs(8 * np.stack(triples) - 3 * ring)
                # argmax returns the first maximum, giving the lowest mask index on ties.
                np.add(responses.argmax(axis=0), 1, out=index[rows], casting="unsafe")
            self._direction_index = index
        return self._direction_index


@dataclass
class SobelField:
    """Per-pixel Sobel responses.

    sx and sy are exact int16 components in [-1020, 1020].  magnitude and
    phase are float64 and built on first access, from int32 and float64
    copies of the components: sx * sx overflows int16, and arctan2 on int16
    inputs computes in float32.  phase is the four-quadrant arctangent of
    (sy, sx) in degrees, normalised to [0, 360).  Pixels with sx == sy == 0
    have no phase; see ``undefined``.  The quantized direction grid is
    cached here by ``direction_grid``.
    """

    width: int
    height: int
    sx: np.ndarray  # int16
    sy: np.ndarray  # int16
    _magnitude: np.ndarray | None = field(default=None, repr=False)
    _phase: np.ndarray | None = field(default=None, repr=False)
    _direction_grid: np.ndarray | None = field(default=None, repr=False)

    @property
    def undefined(self) -> np.ndarray:
        """Boolean mask of pixels whose direction is undefined."""
        return (self.sx == 0) & (self.sy == 0)

    @property
    def magnitude(self) -> np.ndarray:
        if self._magnitude is None:
            sx, sy = self.sx.astype(np.int32), self.sy.astype(np.int32)
            self._magnitude = np.sqrt((sx * sx + sy * sy).astype(np.float64))
        return self._magnitude

    @property
    def phase(self) -> np.ndarray:
        if self._phase is None:
            radians = np.arctan2(self.sy, self.sx, dtype=np.float64)
            self._phase = np.degrees(radians) % 360.0
        return self._phase


# Kirsch runs in row strips of about this many pixels, not in whole-plane
# passes.  A strip's eleven int16 temporaries (about 1.4 MiB) then stay in a
# 2 MiB per-core L2 cache, while whole-plane temporaries at 1080p are 4 MiB
# each: every pass spills to memory and page-faults a fresh plane each frame.
# On one core of a 2-core Xeon, 1080p Kirsch took 11 ms in 32k- or 64k-pixel
# strips, 12 ms in 128k, 15 ms in 16k or 256k and 42 ms as a single strip.
STRIP_PIXELS = 1 << 16


def _strip_sums(samples: np.ndarray) -> Iterator[tuple[slice, list[np.ndarray], np.ndarray]]:
    """Per strip of rows: the rows, the eight triple sums S3_k, and the ring sum T.

    Strips hold max(1, STRIP_PIXELS // width) rows.  S3_k come in
    KIRSCH_MASKS order; all are int16 arrays of the strip's shape, built from
    shared pair and triple sums of the strip's edge-replicated slab.
    """
    height, width = samples.shape
    step = max(1, STRIP_PIXELS // width)
    for top in range(0, height, step):
        bottom = min(top + step, height)
        # The strip's rows, edge-replicated by one row and column each way.
        slab = np.empty((bottom - top + 2, width + 2), dtype=np.int16)
        slab[1:-1, 1:-1] = samples[top:bottom]
        slab[0, 1:-1] = samples[max(top - 1, 0)]
        slab[-1, 1:-1] = samples[min(bottom, height - 1)]
        slab[:, 0] = slab[:, 1]
        slab[:, -1] = slab[:, -2]
        pairs = slab[:, :-1] + slab[:, 1:]
        rows = pairs[:, :-1] + slab[:, 2:]
        cols = slab[:-2] + slab[1:-1] + slab[2:]
        west, east = slab[1:-1, :-2], slab[1:-1, 2:]
        north, south = rows[:-2], rows[2:]
        triples = [
            north,  # N
            pairs[:-2, :-1] + west,  # NW
            cols[:, :-2],  # W
            pairs[2:, :-1] + west,  # SW
            south,  # S
            pairs[2:, 1:] + east,  # SE
            cols[:, 2:],  # E
            pairs[:-2, 1:] + east,  # NE
        ]
        ring = north + south
        ring += west
        ring += east
        yield slice(top, bottom), triples, ring


def kirsch_gradient(frame: LumaFrame) -> GradientField:
    """Strongest absolute response over the eight compass masks, per pixel.

    max_k |8*S3_k - 3*T| = max(8*max_k S3_k - 3*T, 3*T - 8*min_k S3_k), so a
    running max and min of the triple sums stand in for the eight responses.
    """
    magnitude = np.empty((frame.height, frame.width), dtype=np.int16)
    for rows, triples, ring in _strip_sums(frame.samples):
        high = np.maximum(triples[0], triples[1])
        low = np.minimum(triples[0], triples[1])
        for triple in triples[2:]:
            np.maximum(high, triple, out=high)
            np.minimum(low, triple, out=low)
        ring *= 3
        high *= 8
        high -= ring
        low *= 8
        np.subtract(ring, low, out=low)
        np.maximum(high, low, out=magnitude[rows])
    return GradientField(frame.width, frame.height, magnitude=magnitude, samples=frame.samples)


def sobel_gradient(frame: LumaFrame) -> SobelField:
    """Sobel components from separable [1, 2, 1] sums of the padded plane.

    sx is the [1, 2, 1] column sum differenced across columns, and sy the
    [1, 2, 1] row sum differenced across rows; each sum is at most 1020.
    """
    padded = np.pad(frame.samples.astype(np.int16), 1, mode="edge")
    cols = padded[:-2] + 2 * padded[1:-1] + padded[2:]
    rows = padded[:, :-2] + 2 * padded[:, 1:-1] + padded[:, 2:]
    sx = cols[:, 2:] - cols[:, :-2]
    sy = rows[2:] - rows[:-2]
    return SobelField(frame.width, frame.height, sx, sy)


def quantize_direction(phase_degrees: float) -> int:
    """Map a phase in degrees to one of the 60 six-degree direction bins."""
    return int(np.floor((phase_degrees % 360.0) / DEGREES_PER_BIN)) % DIRECTION_BIN_COUNT


# tan(6k degrees) for k = 1..7: the bin edges inside the octant [0, 45].
_OCTANT_TANGENTS = np.tan(np.radians(DEGREES_PER_BIN * np.arange(1, 8))).astype(np.float32)


def _octant_bins() -> np.ndarray:
    """Direction bin per classifier cell, from ``quantize_direction``.

    A cell is (sign of sx, sign of sy, |sy| > |sx|, k), where k counts the
    octant tangents below min(|sx|, |sy|) / max(|sx|, |sy|), so the angle
    folded into the octant lies in [6k, 6k + 6) degrees.  Every vector of a
    cell is in one bin: 6-degree edges are reached only where the folded
    angle is a multiple of 6, that is on an axis (tan 6k is irrational
    otherwise), and an axis vector has k = 0 and its own sign cell.  The
    folded angle 6k + 1 therefore stands for the whole cell.  Laid out as
    index 72 * swap + 24 * (sign sx + 1) + 8 * (sign sy + 1) + k.
    """
    bins = np.empty((2, 3, 3, 8), dtype=np.int8)
    for swap, gx, gy, k in np.ndindex(bins.shape):
        folded = math.radians(DEGREES_PER_BIN * k + 1)
        low, high = math.sin(folded), math.cos(folded)
        ax, ay = (low, high) if swap else (high, low)
        x, y = (gx - 1) * ax, (gy - 1) * ay
        if x == 0 and y == 0:
            bins[swap, gx, gy, k] = -1
        else:
            bins[swap, gx, gy, k] = quantize_direction(math.degrees(math.atan2(y, x)))
    return bins.ravel()


_OCTANT_BINS = _octant_bins()


def classify_directions(sx: np.ndarray, sy: np.ndarray) -> np.ndarray:
    """int8 direction bin of each (sx, sy) pair; -1 where both are zero.

    Equal to ``quantize_direction`` of the float64 phase for every pair of
    integer components in [-1020, 1020], with no arctangent: the vector is
    folded by its signs and by which component is larger into one octant,
    counted against the octant tangents, and unfolded by a cell table.
    No float32 ratio of two integers up to 1020 lands on the wrong side of
    a float32 tangent; the domain is finite, and the tests check all 2041^2
    pairs against the float64 reference.
    """
    ax, ay = np.abs(sx), np.abs(sy)
    with np.errstate(divide="ignore", invalid="ignore"):
        # NaN where both are zero; that cell is -1 whatever k reads.
        ratio = np.divide(np.minimum(ax, ay), np.maximum(ax, ay), dtype=np.float32)
    index = np.multiply(ay > ax, 72, dtype=np.int16)
    index += 24 + 8
    index += 24 * np.sign(sx)
    index += 8 * np.sign(sy)
    index += np.searchsorted(_OCTANT_TANGENTS, ratio)
    return _OCTANT_BINS.take(index)


def direction_grid(sobel: SobelField) -> np.ndarray:
    """Quantized direction bin per pixel, int8; -1 where it is undefined.

    Built once per field and shared by every caller, so it is read-only.
    """
    if sobel._direction_grid is None:
        grid = classify_directions(sobel.sx, sobel.sy)
        grid.flags.writeable = False
        sobel._direction_grid = grid
    return sobel._direction_grid
