"""Command-line interface: exit codes, output shapes, determinism."""

import json

import pytest

from artifact.cli import main
from artifact.synth import PatternSpec, make_test_sequence, pattern_frame, save_corpus


def _run(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # usage errors escape via argparse
        return exc.code


def _mono_y4m(path, frames):
    with open(path, "wb") as handle:
        head = f"YUV4MPEG2 W{frames[0].width} H{frames[0].height} F25:1 Cmono\n"
        handle.write(head.encode("ascii"))
        for frame in frames:
            handle.write(b"FRAME\n" + frame.samples.tobytes())


@pytest.fixture()
def burst_corpus(tmp_path):
    """A 40-frame y-only corpus with two adjacent distorted frames."""
    spec = PatternSpec(kind="block-grid", period=16, amplitude=64)
    frames, truth = make_test_sequence(length=40, distorted={20, 21}, spec=spec, seed=5)
    yuv, sidecar = save_corpus(frames, truth, tmp_path / "corpus")
    argv = ["--input", str(yuv), "--format", "raw-yuv",
            "--width", "64", "--height", "64", "--pixel-layout", "y-only"]
    return argv, sidecar


def test_measure_emits_csv(burst_corpus, capsys):
    argv, _ = burst_corpus
    assert _run(["measure", *argv]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "frame,b_msr,boundary_offset"
    assert len(lines) == 41
    frame, b_msr, offset = lines[1].split(",")
    assert frame == "0"
    float(b_msr)
    assert "." in b_msr and len(b_msr.split(".")[1]) == 6
    int(offset)


def test_detect_then_evaluate_round_trip(burst_corpus, tmp_path, capsys):
    argv, sidecar = burst_corpus
    report_path = tmp_path / "report.json"
    assert _run(["detect", *argv, "--out", str(report_path)]) == 0
    doc = json.loads(report_path.read_text())
    assert doc["config"]["input_format"] == "raw-yuv"
    flagged = [row["frame"] for row in doc["frames"] if row["verdict"] == "distorted"]
    assert flagged == [20, 21]

    assert _run(["evaluate", "--input", str(report_path),
                 "--ground-truth", str(sidecar)]) == 0
    out = capsys.readouterr().out
    assert "true_positives=2" in out
    assert "false_positives=0" in out
    assert "missed=0" in out
    assert "precision=1.000000" in out
    assert "recall=1.000000" in out
    assert "efficiency=1.000000" in out


def test_detect_output_is_deterministic(burst_corpus, tmp_path):
    argv, _ = burst_corpus
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert _run(["detect", *argv, "--out", str(first)]) == 0
    assert _run(["detect", *argv, "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_detect_csv_report(burst_corpus, capsys):
    argv, _ = burst_corpus
    assert _run(["detect", *argv, "--report-format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "frame,b_msr,window_mean,window_stddev,verdict"
    assert len(lines) == 41


def test_detect_causal_accepts_even_window(burst_corpus):
    argv, _ = burst_corpus
    assert _run(["detect", *argv, "--window", "4", "--causal"]) == 0


def test_seba_reports_blocks(tmp_path, capsys):
    frames = [pattern_frame(PatternSpec(kind="checkerboard", period=8, amplitude=50),
                            32, 32, frame_index=i) for i in range(2)]
    clip = tmp_path / "checker.y4m"
    _mono_y4m(clip, frames)
    assert _run(["seba", "--input", str(clip)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["frames"] == []
    assert len(doc["blocks"]) == 2
    for row in doc["blocks"]:
        assert row["class"] in ("uniform", "edge", "texture")
        assert row["period_width"] == 8
        assert row["period_height"] == 8


def test_synth_writes_corpus_and_prints_paths(tmp_path, capsys):
    prefix = tmp_path / "made"
    assert _run(["synth", "--out", str(prefix), "--length", "10",
                 "--width", "16", "--height", "12", "--distorted", "4"]) == 0
    out_lines = capsys.readouterr().out.splitlines()
    assert out_lines == [str(prefix.with_suffix(".yuv")), str(prefix.with_suffix(".json"))]
    sidecar = json.loads(prefix.with_suffix(".json").read_text())
    assert sidecar["width"] == 16
    assert sidecar["height"] == 12
    assert sidecar["length"] == 10
    assert sidecar["distorted"] == [4]
    assert sidecar["seed"] == 0
    assert prefix.with_suffix(".yuv").stat().st_size == 10 * 16 * 12


def test_synth_is_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for prefix in (a, b):
        assert _run(["synth", "--out", str(prefix), "--length", "6",
                     "--width", "16", "--height", "16", "--seed", "3"]) == 0
    assert a.with_suffix(".yuv").read_bytes() == b.with_suffix(".yuv").read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["frobnicate"],
        ["measure", "--input", "x.y4m", "--width", "64"],
        ["measure", "--input", "x.yuv", "--format", "raw-yuv"],
        ["measure", "--input", "x.y4m", "--delta", "0"],
        ["detect", "--input", "x.y4m", "--window", "0"],
        ["detect", "--input", "x.y4m", "--window", "4"],
        ["detect", "--input", "x.y4m", "--beta", "0"],
        ["seba", "--input", "x.y4m", "--th-fix", "1.5"],
        ["synth", "--out", "p", "--distorted", "a,b"],
        ["synth", "--out", "p", "--kind", "block-grid", "--period", "2"],
        ["synth", "--out", "p", "--kind", "checkerboard", "--period", "9"],
        ["synth", "--out", "p", "--length", "0"],
        ["measure", "--input", "x.y4m", "--scale", "nan"],
        ["detect", "--input", "x.y4m", "--scale", "inf"],
        ["measure", "--input", "x.y4m", "--scale", "0"],
        ["detect", "--input", "x.y4m", "--beta", "inf"],
    ],
)
def test_usage_errors_exit_1(argv):
    assert _run(argv) == 1


@pytest.mark.parametrize("command", ["measure", "detect"])
def test_overflowing_scale_exits_2_without_output(burst_corpus, tmp_path, command):
    argv, _ = burst_corpus
    out = tmp_path / "out"
    assert _run([command, *argv, "--scale", "1e308", "--out", str(out)]) == 2
    assert not out.exists()


def test_missing_input_exits_2(tmp_path):
    assert _run(["detect", "--input", str(tmp_path / "absent.y4m")]) == 2


def test_malformed_y4m_exits_2(tmp_path):
    bad = tmp_path / "bad.y4m"
    bad.write_bytes(b"not a stream at all")
    assert _run(["measure", "--input", str(bad)]) == 2


@pytest.mark.parametrize(
    "geometry,message",
    [
        (b"W0 H4", "frame edges must be integers in 1..16384"),
        (b"W-4 H-4", "frame edges must be integers in 1..16384"),
        (b"Wfour H4", "frame edges must be integers in 1..16384"),
        (b"W16385 H4", "frame edges must be integers in 1..16384"),
        # A declared frame larger than what follows the header is refused
        # before it is read.
        (b"W64 H64", "bytes left after the header"),
    ],
)
def test_hostile_y4m_header_exits_2_with_a_message(tmp_path, capsys, geometry, message):
    clip = tmp_path / "clip.y4m"
    clip.write_bytes(b"YUV4MPEG2 " + geometry + b" Cmono\nFRAME\n" + bytes(10))
    assert _run(["detect", "--input", str(clip)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("artifact detect: ") and err.count("\n") == 1
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "header,message",
    [(b"P5\n4 4\n0\n", "maxval must be at least 1"),
     (b"P5\n4 4\n255x", "no whitespace after maxval")],
)
def test_malformed_pgm_header_exits_2_with_a_message(tmp_path, capsys, header, message):
    (tmp_path / "a.pgm").write_bytes(header + bytes(16))
    assert _run(["seba", "--input", str(tmp_path), "--format", "image-sequence"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("artifact seba: ") and err.count("\n") == 1
    assert message in err and "Traceback" not in err


def test_short_sequence_warns_once_on_stderr(tmp_path, capsys):
    frames = [pattern_frame(PatternSpec(kind="block-grid", period=16, amplitude=64), 16, 16)] * 3
    clip = tmp_path / "clip.y4m"
    _mono_y4m(clip, frames)
    assert _run(["detect", "--input", str(clip), "--window", "3"]) == 0
    captured = capsys.readouterr()
    assert captured.err.count("\n") == 1 and "insufficient-window" in captured.err
    report = json.loads(captured.out)
    assert {row["verdict"] for row in report["frames"]} == {"insufficient-window"}
    clip_long = tmp_path / "long.y4m"
    _mono_y4m(clip_long, frames + frames[:1])
    assert _run(["detect", "--input", str(clip_long), "--window", "3"]) == 0
    assert capsys.readouterr().err == ""


def test_evaluate_bad_report_exits_2(tmp_path):
    report = tmp_path / "report.json"
    truth = tmp_path / "truth.txt"
    truth.write_text("1\n")
    report.write_text("{ not json")
    assert _run(["evaluate", "--input", str(report),
                 "--ground-truth", str(truth)]) == 2


def test_evaluate_bad_ground_truth_exits_2(tmp_path):
    report = tmp_path / "report.json"
    report.write_text('{"config": {}, "frames": [], "blocks": null}\n')
    truth = tmp_path / "truth.json"
    truth.write_text('{"frames": []}\n')  # lacks the distorted key
    assert _run(["evaluate", "--input", str(report),
                 "--ground-truth", str(truth)]) == 2
