import numpy as np
import pytest

from artifact.blockiness import BucketVector, accumulate_buckets, blockiness_measure
from artifact.gradient import GradientField, kirsch_gradient
from conftest import frame_of


def _field(magnitude):
    magnitude = np.asarray(magnitude, dtype=np.float64)
    h, w = magnitude.shape
    return GradientField(
        width=w,
        height=h,
        magnitude=magnitude,
        samples=np.zeros((h, w), dtype=np.uint8),
    )


def _loop_buckets(magnitude, delta, clip_margin=0):
    """Reference accumulation: explicit per-column loop in frame coordinates."""
    h, w = magnitude.shape
    view = magnitude[clip_margin : h - clip_margin, clip_margin : w - clip_margin]
    usable = (view.shape[1] // delta) * delta
    theta = np.zeros(delta)
    for col in range(usable):
        theta[(col + clip_margin) % delta] += view[:, col].sum()
    return theta


def test_accumulation_matches_loop_oracle():
    rng = np.random.default_rng(21)
    for _ in range(8):
        magnitude = rng.uniform(0, 500, size=(rng.integers(8, 30), rng.integers(16, 70)))
        for delta in (1, 3, 8):
            for margin in (0, 1, 3):
                got = accumulate_buckets(_field(magnitude), delta=delta, clip_margin=margin)
                assert np.allclose(got.theta, _loop_buckets(magnitude, delta, margin),
                                   rtol=1e-12, atol=0)


def test_single_boundary_column_closed_form():
    magnitude = np.zeros((16, 64))
    magnitude[:, 5::8] = 1.0
    buckets = accumulate_buckets(_field(magnitude))
    assert buckets.theta[5] == 16 * 8
    assert buckets.theta.sum() == buckets.theta[5]
    score = blockiness_measure(buckets)
    assert score.boundary_offset == 5
    assert score.value == 16 * 8 - 16 * 8 / 8


def test_constant_magnitude_scores_exactly_zero():
    for width in (24, 31, 64):
        buckets = accumulate_buckets(_field(np.full((10, width), 3.25)))
        assert blockiness_measure(buckets).value == 0.0


def test_constant_frame_scores_exactly_zero_end_to_end():
    frame = frame_of(np.full((32, 48), 200))
    buckets = accumulate_buckets(kirsch_gradient(frame))
    assert blockiness_measure(buckets).value == 0.0


def test_clip_margin_keeps_frame_coordinates():
    # Boundaries on columns 0, 8, 16...; a margin must not relabel them.
    magnitude = np.zeros((12, 64))
    magnitude[:, 0::8] = 2.0
    for margin in (0, 2, 5):
        buckets = accumulate_buckets(_field(magnitude), clip_margin=margin)
        assert blockiness_measure(buckets).boundary_offset == 0


def test_scale_factor_is_linear():
    rng = np.random.default_rng(22)
    buckets = accumulate_buckets(_field(rng.uniform(0, 9, size=(8, 40))))
    base = blockiness_measure(buckets, scale=1.0).value
    assert blockiness_measure(buckets, scale=2.5).value == pytest.approx(2.5 * base, rel=1e-12)


def test_rows_axis_equals_transposed_columns():
    rng = np.random.default_rng(23)
    magnitude = rng.uniform(0, 100, size=(24, 40))
    by_rows = accumulate_buckets(_field(magnitude), axis="rows")
    by_cols_t = accumulate_buckets(_field(magnitude.T), axis="columns")
    assert np.array_equal(by_rows.theta, by_cols_t.theta)


def test_offset_compensation_subtracts_opposite_bucket():
    theta = np.array([10.0, 0, 0, 0, 4.0, 0, 0, 0])
    buckets = BucketVector(delta=8, theta=theta)
    mean = theta.sum() / 8
    plain = blockiness_measure(buckets)
    assert plain.value == pytest.approx(10.0 - mean)
    compensated = blockiness_measure(buckets, offset_compensation=True)
    assert compensated.value == pytest.approx((10.0 - mean) - (4.0 - mean))
    assert compensated.boundary_offset == 0


def test_peak_tie_reports_lowest_offset():
    buckets = BucketVector(delta=4, theta=np.array([5.0, 9.0, 9.0, 1.0]))
    assert blockiness_measure(buckets).boundary_offset == 1


def test_delta_one_degenerates_to_zero():
    buckets = accumulate_buckets(_field(np.random.default_rng(1).uniform(size=(5, 9))), delta=1)
    assert buckets.theta.shape == (1,)
    assert blockiness_measure(buckets).value == 0.0


def test_bucket_mean_property():
    buckets = BucketVector(delta=4, theta=np.array([1.0, 2.0, 3.0, 6.0]))
    assert buckets.mean == 3.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"delta": 0},
        {"clip_margin": -1},
        {"clip_margin": 6},  # consumes the whole 12-row extent
        {"delta": 50},  # wider than the frame
    ],
)
def test_invalid_accumulation_arguments(kwargs):
    with pytest.raises(ValueError):
        accumulate_buckets(_field(np.zeros((12, 20))), **kwargs)


def test_unknown_axis_rejected():
    with pytest.raises(ValueError):
        accumulate_buckets(_field(np.zeros((8, 8))), axis="diagonal")
