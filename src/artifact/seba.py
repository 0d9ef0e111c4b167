"""Spatial analysis of error blocks: direction statistics, block class,
pattern orientation, and pattern periodicity.

Everything here consumes Sobel fields.  Pixel directions are quantized into
sixty 6-degree bins; most routines reason about bins, their 90-degree
families {s, s+15, s+30, s+45}, and per-bin vector sums of the raw Sobel
components (the EMS table).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np

from .frame_io import LumaFrame
from .gradient import (
    DEGREES_PER_BIN,
    DIRECTION_BIN_COUNT,
    SobelField,
    classify_directions,
    direction_grid,
    sobel_gradient,
)
from .report import BlockSummary

QUADRANT_BINS = DIRECTION_BIN_COUNT // 4  # 15 bins per quadrant
DEFAULT_TH_FIX = 0.2  # dominance margin, as a fraction of the peak EMS
DEFAULT_EMS_FLOOR = 1.0  # below this no bin counts as dominant
DEFAULT_TEXTURE_COUNT = 6
PEAK_TOLERANCE = 0.9  # re-peak must reach 90% of perfect alignment
DIP_THRESHOLD = 0.5  # ...after the score first fell below this

CLASS_UNIFORM = "uniform"
CLASS_EDGE = "edge"
CLASS_TEXTURE = "texture"

REGION_ROLES = ("mb", "left", "top", "right", "bottom",
                "top-left", "top-right", "bottom-left", "bottom-right")


@dataclass
class BlockRegion:
    """A rectangular pixel region and its role relative to a macroblock."""

    origin: tuple[int, int]  # (row, col)
    size: tuple[int, int]  # (rows, cols)
    role: str = "mb"

    def __post_init__(self) -> None:
        if self.role not in REGION_ROLES:
            raise ValueError(f"unknown region role {self.role!r}")
        if min(self.size) < 1:
            raise ValueError("region must be at least 1x1")

    def slices(self) -> tuple[slice, slice]:
        r, c = self.origin
        n, m = self.size
        return slice(r, r + n), slice(c, c + m)


def _region_view(array: np.ndarray, region: BlockRegion | None) -> np.ndarray:
    if region is None:
        return array
    rows, cols = region.slices()
    if rows.stop > array.shape[0] or cols.stop > array.shape[1]:
        raise ValueError("region extends past the frame")
    return array[rows, cols]


# --- EMS accumulation and block classification ---------------------------


@dataclass
class EmsTable:
    """Per-bin vector sums of Sobel components over a region.

    ems[k] = |(sum of sx, sum of sy)| over pixels whose direction fell in
    bin k.  Within one 6-degree bin the components are nearly collinear, so
    the vector norm is close to the summed magnitudes of the member pixels.
    """

    ems_x: np.ndarray  # float64[60]
    ems_y: np.ndarray  # float64[60]

    @property
    def ems(self) -> np.ndarray:
        return np.sqrt(self.ems_x**2 + self.ems_y**2)


@dataclass
class GdvTable:
    """Per-bin resultant direction (degrees) and dominance flags."""

    gdv: np.ndarray  # float64[60]; NaN where the bin holds no mass
    dominant: np.ndarray  # bool[60]


def accumulate_ems(sobel: SobelField, region: BlockRegion | None = None) -> EmsTable:
    # Slot 0 collects the undefined pixels (bin -1) and is dropped.  The
    # components go in as float64: bincount's own int16 conversion is slower.
    slots = (_region_view(direction_grid(sobel), region).ravel() + 1).astype(np.intp)
    ems_x, ems_y = (
        np.bincount(slots, weights=_region_view(component, region).ravel().astype(np.float64),
                    minlength=DIRECTION_BIN_COUNT + 1)[1:]
        for component in (sobel.sx, sobel.sy)
    )
    return EmsTable(ems_x=ems_x, ems_y=ems_y)


def _dominance_threshold(ems: np.ndarray, th_fix: float, ems_floor: float) -> float:
    peak = float(ems.max(initial=0.0))
    return max(peak - th_fix * peak, ems_floor)


def gdv_table(
    table: EmsTable,
    th_fix: float = DEFAULT_TH_FIX,
    ems_floor: float = DEFAULT_EMS_FLOOR,
) -> GdvTable:
    ems = table.ems
    gdv = np.full(DIRECTION_BIN_COUNT, np.nan)
    held = ems > 0
    gdv[held] = np.degrees(np.arctan2(table.ems_y[held], table.ems_x[held])) % 360.0
    return GdvTable(gdv=gdv, dominant=ems >= _dominance_threshold(ems, th_fix, ems_floor))


def classify_block(
    table: EmsTable,
    hist: "DirectionHistogram",
    th_fix: float = DEFAULT_TH_FIX,
    texture_count: int = DEFAULT_TEXTURE_COUNT,
    ems_floor: float = DEFAULT_EMS_FLOOR,
) -> str:
    """uniform / edge / texture by how many direction bins are dominant.

    A bin is dominant when its EMS reaches both the relative threshold
    (peak minus th_fix of the peak) and the absolute floor; a region with
    no defined directions at all is uniform regardless.
    """
    if hist.total == 0:
        return CLASS_UNIFORM
    ems = table.ems
    dominant = int(np.count_nonzero(ems >= _dominance_threshold(ems, th_fix, ems_floor)))
    if dominant == 0:
        return CLASS_UNIFORM
    if dominant < texture_count:
        return CLASS_EDGE
    return CLASS_TEXTURE


# --- direction histograms -------------------------------------------------


@dataclass
class DirectionHistogram:
    """Counts of quantized pixel directions.

    total is the number of pixels counted; for a reduced histogram that is
    the number of pixels landing in the kept bins.
    """

    bins: np.ndarray  # int64[60]
    total: int


def family_bins(orientation: int) -> np.ndarray:
    """The twelve bins kept around the four quadrant arms of ``orientation``.

    For each significant bin {s, s+15, s+30, s+45} the bin itself and both
    circular neighbours are kept.
    """
    s = orientation % QUADRANT_BINS
    kept = {
        (s + j + QUADRANT_BINS * q) % DIRECTION_BIN_COUNT
        for q in range(4)
        for j in (-1, 0, 1)
    }
    return np.array(sorted(kept), dtype=np.int64)


# (cos, sin) of each family's arm angle 6s degrees, times 16 and rounded.
# Each rounded arm is within 1.4 degrees of the true one, and |cos| + |sin|
# <= 23 keeps every rotated component within 23 * 1020 < 32767, so the
# rotation is exact in int16.
_ARM_ROTATIONS = [
    (round(16 * np.cos(np.radians(angle))), round(16 * np.sin(np.radians(angle))))
    for angle in range(0, 90, DEGREES_PER_BIN)
]


def _near_family_arm(sx: np.ndarray, sy: np.ndarray, family: int) -> np.ndarray:
    """A superset of the pixels whose bin can be in ``family_bins(family)``.

    The kept bins span [-6, +12) degrees around each of the four arms.  After
    rotating the components onto the rounded arms, min <= max / 4 keeps every
    vector within atan(1/4) = 14.04 degrees of an arm, which covers that span
    and the rounding.  Every intermediate fits int16.
    """
    cos, sin = _ARM_ROTATIONS[family % QUADRANT_BINS]
    if sin:
        u = cos * sx + sin * sy
        v = cos * sy - sin * sx
    else:
        u, v = sx, sy
    au, av = np.abs(u), np.abs(v)
    low = np.minimum(au, av)
    high = np.maximum(au, av)
    high >>= 2
    return low <= high


def direction_histogram(
    sobel: SobelField,
    region: BlockRegion | None = None,
    family: int | None = None,
) -> DirectionHistogram:
    """Histogram of quantized directions over a region.

    With ``family`` set, only the twelve bins of ``family_bins(family)``
    are accumulated: an integer test drops every pixel that cannot land in
    a kept bin, and only the survivors are classified, by the classifier
    that builds the full grid.  Kept bins match the full histogram exactly.
    """
    if family is None:
        bins = _region_view(direction_grid(sobel), region).ravel()
    else:
        sx = _region_view(sobel.sx, region).ravel()
        sy = _region_view(sobel.sy, region).ravel()
        near = np.flatnonzero(_near_family_arm(sx, sy, family))
        bins = classify_directions(sx.take(near), sy.take(near))
    # Slot 0 collects the undefined pixels (bin -1) and is dropped.
    counts = np.bincount(bins + 1, minlength=DIRECTION_BIN_COUNT + 1)[1:]
    if family is not None:
        kept = family_bins(family)
        reduced = np.zeros_like(counts)
        reduced[kept] = counts[kept]
        counts = reduced
    return DirectionHistogram(bins=counts, total=int(counts.sum()))


def reduce_bins(hist: DirectionHistogram, orientation: int | None = None) -> DirectionHistogram:
    """Zero every bin outside the significant set (default: family 0)."""
    kept = family_bins(0 if orientation is None else orientation)
    bins = np.zeros_like(hist.bins)
    bins[kept] = hist.bins[kept]
    return DirectionHistogram(bins=bins, total=int(bins.sum()))


# --- uniform block estimation ---------------------------------------------

_LEFT_SUBSTITUTES = ("top-left", "bottom-left")
_RIGHT_SUBSTITUTES = ("top-right", "bottom-right")


def estimate_uniform_block(
    neighbors: dict[str, np.ndarray | None],
    size: tuple[int, int],
) -> np.ndarray:
    """Imitate a lost block from its neighbours.

    Two imitations are formed when possible -- top/bottom (upper rows copied
    from the top neighbour, lower rows from the bottom one) and left/right
    (likewise by columns) -- and averaged.  For odd sizes the extra row or
    column goes to the first half.  A missing side neighbour may be stood in
    for by the diagonal neighbours on the same side; if only one imitation
    can be formed it is returned alone, and with no usable neighbours at all
    a ValueError is raised.
    """
    n, m = size
    grids: dict[str, np.ndarray] = {}
    for role, grid in neighbors.items():
        if role not in REGION_ROLES or role == "mb":
            raise ValueError(f"unknown neighbour role {role!r}")
        if grid is None:
            continue
        grid = np.asarray(grid, dtype=np.float64)
        if grid.shape != (n, m):
            raise ValueError(f"{role} neighbour shape {grid.shape} != block size {(n, m)}")
        grids[role] = grid

    def side(role: str, substitutes: tuple[str, ...]) -> np.ndarray | None:
        if role in grids:
            return grids[role]
        stand_ins = [grids[s] for s in substitutes if s in grids]
        if stand_ins:
            return np.mean(stand_ins, axis=0)
        return None

    imitations = []
    top, bottom = side("top", ()), side("bottom", ())
    if top is not None and bottom is not None:
        tb = np.empty((n, m))
        split = ceil(n / 2)
        tb[:split] = top[:split]
        tb[split:] = bottom[split:]
        imitations.append(tb)
    left = side("left", _LEFT_SUBSTITUTES)
    right = side("right", _RIGHT_SUBSTITUTES)
    if left is not None and right is not None:
        lr = np.empty((n, m))
        split = ceil(m / 2)
        lr[:, :split] = left[:, :split]
        lr[:, split:] = right[:, split:]
        imitations.append(lr)
    if not imitations:
        raise ValueError("no usable neighbours to imitate the block from")
    return np.mean(imitations, axis=0)


# --- pattern orientation ----------------------------------------------------


@dataclass
class PatternOrientation:
    """Dominant direction family of a histogram.

    high_bin is in [0, 15]: the winning 15-shift family, except that a
    family-0 histogram whose mass sits on the 90-degree arm reports bin 15
    (offset 0) rather than bin 0 (offset 90).
    """

    high_bin: int
    offset_degrees: int
    significant_bins: tuple[int, int, int, int]
    shift_scores: np.ndarray  # float64[15]


def rotation_offset(
    hist: DirectionHistogram,
    mask: np.ndarray | None = None,
) -> PatternOrientation | None:
    """Best of the fifteen circular shifts of the quadrant mask.

    Returns None when the histogram is empty (no orientation).  The offset
    is 90 - 6 * high_bin degrees; orientations are folded into [0, 90], the
    domain of the synthetic patterns this is calibrated against.
    """
    counts = hist.bins.astype(np.float64)
    if not counts.any():
        return None
    if mask is None:
        mask = np.zeros(QUADRANT_BINS)
        mask[0] = 1.0  # one bin per quadrant arm
    mask = np.asarray(mask, dtype=np.float64)
    if mask.shape != (QUADRANT_BINS,):
        raise ValueError(f"rotation mask must have {QUADRANT_BINS} entries")
    scores = np.zeros(QUADRANT_BINS)
    for s in range(QUADRANT_BINS):
        for j in np.flatnonzero(mask):
            idx = (s + j + QUADRANT_BINS * np.arange(4)) % DIRECTION_BIN_COUNT
            scores[s] += mask[j] * counts[idx].sum()
    family = int(np.argmax(scores))  # lowest shift wins ties
    high_bin = family
    if family == 0:
        # Same family, quarter-turn apart: decide with the half-turn pairs.
        arm_0 = counts[0] + counts[30]
        arm_90 = counts[15] + counts[45]
        if arm_90 > arm_0:
            high_bin = QUADRANT_BINS
    significant = tuple(
        int((high_bin + QUADRANT_BINS * q) % DIRECTION_BIN_COUNT) for q in range(4)
    )
    return PatternOrientation(
        high_bin=high_bin,
        offset_degrees=90 - DEGREES_PER_BIN * high_bin,
        significant_bins=significant,
        shift_scores=scores,
    )


# --- pattern matching and dimensions ---------------------------------------


@dataclass
class MatchResult:
    """Direction-grid agreement between a grid and its displaced copy."""

    score: int  # overlap pixels whose bins are equal
    sum_histogram: np.ndarray  # int64[119], histogram of bin-index sums
    base_defined: int  # direction-defined base pixels inside the overlap


@dataclass
class PatternGeometry:
    period_width: int | None
    period_height: int | None
    width_scores: np.ndarray  # match fraction per horizontal shift (1-based)
    height_scores: np.ndarray


def matching_score(grid: np.ndarray, dx: int = 0, dy: int = 0) -> MatchResult:
    """Compare a quantized-direction grid against itself displaced by (dx, dy).

    Undefined directions (entries < 0) never match.  The sum histogram
    counts D_base + D_shifted over pixels where both are defined, so its
    mass can never pass bin 118.
    """
    h, w = grid.shape
    if abs(dx) >= w or abs(dy) >= h:
        raise ValueError(f"displacement ({dx}, {dy}) leaves no overlap on {h}x{w}")

    def spans(offset: int, extent: int) -> tuple[slice, slice]:
        if offset >= 0:
            return slice(offset, extent), slice(0, extent - offset)
        return slice(0, extent + offset), slice(-offset, extent)

    rows_a, rows_b = spans(dy, h)
    cols_a, cols_b = spans(dx, w)
    a = grid[rows_a, cols_a]
    b = grid[rows_b, cols_b]
    both = (a >= 0) & (b >= 0)
    score = int(np.count_nonzero(both & (a == b)))
    sums = (a[both] + b[both]).astype(np.int64)
    histogram = np.bincount(sums, minlength=2 * DIRECTION_BIN_COUNT - 1)
    return MatchResult(
        score=score,
        sum_histogram=histogram,
        base_defined=int(np.count_nonzero(a >= 0)),
    )


def _axis_period(grid: np.ndarray, max_shift: int, horizontal: bool) -> tuple[int | None, np.ndarray]:
    """Period along one axis and the match fraction at every shift.

    Each fraction equals ``matching_score`` at that displacement, score over
    base_defined, but costs one comparison of the grid with its displaced
    copy.  The rows of ``lines`` are the grid's columns for the horizontal
    axis and its rows otherwise, so every shift is a contiguous row offset.
    """
    lines = grid.T if horizontal else grid
    defined = lines >= 0
    # Undefined entries read -1 in the base and -2 in the shifted copy, so
    # an equal pair is always a defined match: the count is exactly score.
    # (Arithmetic, not np.where, which is several times slower on int8.)
    small = np.issubdtype(lines.dtype, np.integer) and lines.max(initial=-1) <= 127
    dtype = np.int8 if small else lines.dtype
    base = np.ascontiguousarray(lines * defined - ~defined, dtype=dtype)
    shifted = base - (base < 0)
    # base_defined[s]: defined pixels from line s on, the base side at shift s.
    base_defined = np.cumsum(np.count_nonzero(defined, axis=1)[::-1])[::-1]
    n = len(base)
    fractions = np.zeros(max_shift)
    for shift in range(1, max_shift + 1):
        if base_defined[shift]:
            score = np.count_nonzero(base[shift:] == shifted[: n - shift])
            fractions[shift - 1] = score / base_defined[shift]
    period = None
    dipped = False
    for shift in range(1, max_shift + 1):
        value = fractions[shift - 1]
        if dipped and value >= PEAK_TOLERANCE:
            # Walk up to the apex so a near-period shoulder is not reported.
            while shift < max_shift and fractions[shift] > fractions[shift - 1]:
                shift += 1
            period = shift
            break
        if value < DIP_THRESHOLD:
            dipped = True
    return period, fractions


def pattern_dimensions(grid: np.ndarray, max_shift: int | None = None) -> PatternGeometry:
    """Smallest displacement per axis at which the grid realigns with itself.

    The per-shift score is the matching count normalised by the defined
    base pixels in the overlap, so 1.0 means perfect realignment at any
    shift.  A period requires the score to fall below DIP_THRESHOLD and
    then recover to PEAK_TOLERANCE; a curve that never falls (patterns
    uniform along the axis) yields None for that axis.
    """
    h, w = grid.shape
    if max_shift is None:
        max_shift = min(h, w) // 2
    if not 0 < max_shift < min(h, w):
        raise ValueError(f"max_shift {max_shift} out of range for {h}x{w} grid")
    period_width, width_scores = _axis_period(grid, max_shift, horizontal=True)
    period_height, height_scores = _axis_period(grid, max_shift, horizontal=False)
    return PatternGeometry(
        period_width=period_width,
        period_height=period_height,
        width_scores=width_scores,
        height_scores=height_scores,
    )


def analyze_frame(
    frame: LumaFrame,
    th_fix: float = DEFAULT_TH_FIX,
    texture_count: int = DEFAULT_TEXTURE_COUNT,
    ems_floor: float = DEFAULT_EMS_FLOOR,
    max_shift: int | None = None,
) -> BlockSummary:
    """Whole-frame spatial summary: class, orientation, pattern periods."""
    sobel = sobel_gradient(frame)
    ems = accumulate_ems(sobel)
    hist = direction_histogram(sobel)
    block_class = classify_block(ems, hist, th_fix=th_fix,
                                 texture_count=texture_count, ems_floor=ems_floor)
    orientation = rotation_offset(hist)
    geometry = pattern_dimensions(direction_grid(sobel), max_shift)
    return BlockSummary(
        frame_index=frame.frame_index,
        block_class=block_class,
        orientation_degrees=None if orientation is None else orientation.offset_degrees,
        period_height=geometry.period_height,
        period_width=geometry.period_width,
    )
