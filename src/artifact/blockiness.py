"""Blockiness scoring from compass-gradient column sums.

Gradient magnitude is summed per column into ``delta`` buckets keyed by
(column index mod delta).  On a frame with a block grid aligned to that
pitch, one bucket collects every block boundary and stands out from the
mean; the score is that excess, scaled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gradient import GradientField

DEFAULT_DELTA = 8
DEFAULT_SCALE = 1.0


@dataclass
class BucketVector:
    """Per-offset magnitude totals for one frame.

    theta[k] is the summed magnitude of all usable columns congruent to k
    (mod delta).  Column indices refer to the original frame even when a
    clip margin is applied, so bucket offsets stay in frame coordinates.
    """

    delta: int
    theta: np.ndarray  # float64, shape (delta,)

    @property
    def mean(self) -> float:
        """Average bucket load (sum over buckets divided by delta)."""
        return float(self.theta.sum() / self.delta)


@dataclass
class BlockinessScore:
    value: float
    boundary_offset: int  # argmax bucket; lowest offset wins ties


def accumulate_buckets(
    grad: GradientField,
    delta: int = DEFAULT_DELTA,
    clip_margin: int = 0,
    axis: str = "columns",
) -> BucketVector:
    """Sum gradient magnitude into ``delta`` buckets by column (or row) phase.

    clip_margin shaves that many pixels from every frame edge before
    accumulation, discarding border effects.  The usable width is then
    rounded down to a whole number of delta-column groups; leftover columns
    are ignored.  Set axis="rows" for the transposed variant (row-pitch
    grids); the default analyses columns.
    """
    if delta < 1:
        raise ValueError("delta must be at least 1")
    if clip_margin < 0:
        raise ValueError("clip_margin cannot be negative")
    magnitude = grad.magnitude
    if axis == "rows":
        magnitude = magnitude.T
    elif axis != "columns":
        raise ValueError(f"unknown accumulation axis: {axis!r}")
    height, width = magnitude.shape
    if 2 * clip_margin >= min(height, width):
        raise ValueError(f"clip margin {clip_margin} consumes the whole frame")
    view = magnitude[clip_margin : height - clip_margin, clip_margin : width - clip_margin]
    usable = (view.shape[1] // delta) * delta
    if usable == 0:
        raise ValueError(f"delta {delta} exceeds the clipped width {view.shape[1]}")
    # Integer magnitudes (as kirsch_gradient gives) sum exactly in int64, so
    # theta is the same whatever order the additions run in.
    column_sums = view[:, :usable].sum(axis=0)
    offsets = (np.arange(usable) + clip_margin) % delta
    theta = np.bincount(offsets, weights=column_sums, minlength=delta)
    return BucketVector(delta=delta, theta=theta)


def blockiness_measure(
    buckets: BucketVector,
    scale: float = DEFAULT_SCALE,
    offset_compensation: bool = False,
) -> BlockinessScore:
    """Score = (peak bucket - mean bucket) * scale.

    A constant frame loads every bucket equally and scores exactly zero.
    With offset_compensation enabled, the score measured half a pitch away
    from the peak is subtracted, suppressing frames whose bucket spread
    comes from texture rather than a periodic boundary grid.
    """
    theta = buckets.theta
    peak = int(np.argmax(theta))  # first maximum -> lowest offset on ties
    value = (float(theta[peak]) - buckets.mean) * scale
    if offset_compensation:
        opposite = (peak + buckets.delta // 2) % buckets.delta
        value -= (float(theta[opposite]) - buckets.mean) * scale
    return BlockinessScore(value=value, boundary_offset=peak)
