"""Compass (Kirsch) and Sobel gradient operators on luma planes.

Both operators replicate the border pixel outward before applying their 3x3
windows, so output geometry always equals input geometry.  Samples are 8-bit,
so both are exact in integers: Kirsch runs in int16 (no intermediate exceeds
+/-6120, no response +/-3825) and Sobel accumulates its window products in
int32.  Only the Sobel magnitude and phase are float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .frame_io import LumaFrame

DIRECTION_BIN_COUNT = 60
DEGREES_PER_BIN = 6

# Eight compass masks at 45-degree steps.  Index k=1 is the north mask; each
# subsequent mask rotates the {5,5,5,-3,...,-3} ring one position clockwise.
# kirsch_gradient works from ring sums instead (see _compass_sums); the masks
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
    access and then kept.
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
            triples, ring = _compass_sums(self.samples)
            responses = np.abs(8 * np.stack(triples) - 3 * ring)
            # argmax returns the first maximum, giving the lowest mask index on ties.
            self._direction_index = (responses.argmax(axis=0) + 1).astype(np.uint8)
        return self._direction_index


@dataclass
class SobelField:
    """Per-pixel Sobel responses.

    phase is the four-quadrant arctangent of (sy, sx) in degrees, normalised
    to [0, 360); it is computed lazily because several consumers only need
    the raw component sums.  Pixels with sx == sy == 0 have no phase; see
    ``undefined``.  The quantized direction grid is cached next to it by
    ``direction_grid``.
    """

    width: int
    height: int
    sx: np.ndarray  # int32
    sy: np.ndarray  # int32
    magnitude: np.ndarray  # float64
    _phase: np.ndarray | None = field(default=None, repr=False)
    _direction_grid: np.ndarray | None = field(default=None, repr=False)

    @property
    def undefined(self) -> np.ndarray:
        """Boolean mask of pixels whose direction is undefined."""
        return (self.sx == 0) & (self.sy == 0)

    @property
    def phase(self) -> np.ndarray:
        if self._phase is None:
            self._phase = np.degrees(np.arctan2(self.sy, self.sx)) % 360.0
        return self._phase


def _windows(samples: np.ndarray) -> list[np.ndarray]:
    """The nine 3x3-neighbour views of an edge-replicated plane.

    Returned in row-major window order, matching a mask flattened with
    ``mask.ravel()``.
    """
    padded = np.pad(samples.astype(np.int32), 1, mode="edge")
    h, w = samples.shape
    return [padded[r : r + h, c : c + w] for r in range(3) for c in range(3)]


def _correlate(views: list[np.ndarray], mask: np.ndarray) -> np.ndarray:
    flat = mask.ravel()
    out = np.zeros_like(views[0])
    for view, coeff in zip(views, flat):
        if coeff:
            out += coeff * view
    return out


def _compass_sums(samples: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """The eight triple sums S3_k, in KIRSCH_MASKS order, and the ring sum T.

    All are int16 planes of the input's shape, built from shared pair and
    triple sums of the edge-replicated plane.
    """
    padded = np.pad(samples.astype(np.int16), 1, mode="edge")
    pairs = padded[:, :-1] + padded[:, 1:]
    rows = pairs[:, :-1] + padded[:, 2:]
    cols = padded[:-2] + padded[1:-1] + padded[2:]
    west, east = padded[1:-1, :-2], padded[1:-1, 2:]
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
    return triples, ring


def kirsch_gradient(frame: LumaFrame) -> GradientField:
    """Strongest absolute response over the eight compass masks, per pixel.

    max_k |8*S3_k - 3*T| = max(8*max_k S3_k - 3*T, 3*T - 8*min_k S3_k), so a
    running max and min of the triple sums stand in for the eight responses.
    """
    triples, ring = _compass_sums(frame.samples)
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
    np.maximum(high, low, out=high)
    return GradientField(frame.width, frame.height, magnitude=high, samples=frame.samples)


def sobel_gradient(frame: LumaFrame) -> SobelField:
    views = _windows(frame.samples)
    sx = _correlate(views, SOBEL_X)
    sy = _correlate(views, SOBEL_Y)
    magnitude = np.sqrt((sx * sx + sy * sy).astype(np.float64))
    return SobelField(frame.width, frame.height, sx, sy, magnitude)


def quantize_direction(phase_degrees: float) -> int:
    """Map a phase in degrees to one of the 60 six-degree direction bins."""
    return int(np.floor((phase_degrees % 360.0) / DEGREES_PER_BIN)) % DIRECTION_BIN_COUNT


def direction_grid(sobel: SobelField) -> np.ndarray:
    """Quantized direction bin per pixel; -1 where the phase is undefined.

    Built once per field and shared by every caller, so it is read-only.
    """
    if sobel._direction_grid is None:
        bins = np.floor_divide(sobel.phase, DEGREES_PER_BIN).astype(np.int64)
        np.mod(bins, DIRECTION_BIN_COUNT, out=bins)
        bins[sobel.undefined] = -1
        bins.flags.writeable = False
        sobel._direction_grid = bins
    return sobel._direction_grid
