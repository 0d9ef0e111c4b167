"""Report types and byte-deterministic serialization."""

import json
import math

import pytest

from artifact.report import (
    BlockSummary,
    DetectionReport,
    FrameScore,
    parse_report,
    write_report,
)


def _sample_report():
    return DetectionReport(
        per_frame=[
            FrameScore(0, 1.25, None, None, "insufficient-window"),
            FrameScore(1, 2.5, 2.0, 0.5, "ok"),
            FrameScore(2, 9.875, 3.0, 4.5, "distorted"),
        ],
        seba_blocks=[BlockSummary(2, "texture", 42, 16, None)],
        config={"delta": 8, "beta": 1.5, "causal": False, "input": "clip.y4m"},
    )


def test_json_round_trip():
    report = _sample_report()
    parsed = parse_report(write_report(report, "json"))
    assert parsed.per_frame == report.per_frame
    assert parsed.seba_blocks == report.seba_blocks
    assert parsed.config == {"delta": 8, "beta": 1.5, "causal": False, "input": "clip.y4m"}


def test_json_is_valid_and_fixed_precision():
    text = write_report(_sample_report(), "json")
    doc = json.loads(text)
    assert list(doc.keys()) == ["config", "frames", "blocks"]
    assert '"b_msr": 9.875000' in text
    assert '"window_stddev": null' in text
    assert '"orientation_degrees": 42' in text
    assert '"period_width": null' in text


def test_json_serialization_is_byte_deterministic():
    a = write_report(_sample_report(), "json")
    b = write_report(_sample_report(), "json")
    assert a == b


def test_json_blocks_null_when_absent():
    report = DetectionReport(per_frame=[FrameScore(0, 0.0, None, None, "ok")])
    doc = json.loads(write_report(report, "json"))
    assert doc["blocks"] is None
    parsed = parse_report(write_report(report, "json"))
    assert parsed.seba_blocks is None


def test_json_handles_empty_lists():
    report = DetectionReport(per_frame=[], seba_blocks=[], config={})
    doc = json.loads(write_report(report, "json"))
    assert doc["frames"] == []
    assert doc["blocks"] == []


def test_csv_layout():
    text = write_report(_sample_report(), "csv")
    lines = text.splitlines()
    assert lines[0] == "frame,b_msr,window_mean,window_stddev,verdict"
    assert lines[1] == "0,1.250000,,,insufficient-window"
    assert lines[2] == "1,2.500000,2.000000,0.500000,ok"
    assert lines[3] == "2,9.875000,3.000000,4.500000,distorted"
    assert text.endswith("\n")


@pytest.mark.parametrize("format", ["json", "csv"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_values_are_refused(format, value):
    report = DetectionReport(per_frame=[FrameScore(0, 1.0, 2.0, value, "ok")])
    with pytest.raises(ValueError, match="non-finite"):
        write_report(report, format)


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        write_report(_sample_report(), "yaml")


def test_frame_score_rejects_unknown_verdict():
    with pytest.raises(ValueError):
        FrameScore(0, 0.0, None, None, "maybe")


def test_report_requires_sorted_unique_frames():
    rows = [
        FrameScore(1, 0.0, None, None, "ok"),
        FrameScore(0, 0.0, None, None, "ok"),
    ]
    with pytest.raises(ValueError):
        DetectionReport(per_frame=rows)
    with pytest.raises(ValueError):
        DetectionReport(per_frame=[rows[1], rows[1]])


def test_distorted_frames_set():
    assert _sample_report().distorted_frames() == {2}
