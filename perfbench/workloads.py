"""The benchmark's workloads: corpora built from a seed, and the checks on
the CLI outputs they produce.

Every corpus is made with ``artifact.synth`` and carries its own ground
truth.  The checks read the outputs with the standard ``json`` module only,
so they do not trust the code under test to judge itself.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from artifact import synth
from artifact.frame_io import LumaFrame

WORKLOADS = ("detect-hd", "seba-cif", "detect-qcif-y4m")

WINDOW = 7  # the CLI's default detect window; bursts are placed where it can judge them
SETUP_EDGE = 64  # the one-frame corpus timed by setup_s is SETUP_EDGE x SETUP_EDGE


@dataclass
class Step:
    """One ``artifact`` CLI call and the file it writes."""

    argv: list[str]
    out: str
    kind: str  # "detect", "seba" or "evaluate": selects the output check


@dataclass
class Corpus:
    """What one iteration of a workload runs, and what its outputs must say."""

    frames: int  # input frames per iteration
    steps: list[Step]
    setup: Step  # the one-frame call whose fresh-interpreter cost is setup_s
    truth: dict
    probe: str  # the hostspeed probe whose work is most like this workload's


def _raw_source(path: str, width: int, height: int) -> list[str]:
    return ["--input", path, "--format", "raw-yuv", "--width", str(width),
            "--height", str(height), "--pixel-layout", "y-only"]


def write_y4m(frames: list[LumaFrame], path: Path) -> None:
    """4:2:0 YUV4MPEG2 with neutral (128) chroma, so readers must skip chroma."""
    width, height = frames[0].width, frames[0].height
    chroma = bytes([128]) * (2 * ((width + 1) // 2) * ((height + 1) // 2))
    with open(path, "wb") as handle:
        handle.write(f"YUV4MPEG2 W{width} H{height} F25:1 Ip A1:1 C420jpeg\n".encode("ascii"))
        for frame in frames:
            handle.write(b"FRAME\n")
            handle.write(frame.samples.tobytes())
            handle.write(chroma)


def _write_raw(frames: list[LumaFrame], path: Path) -> None:
    with open(path, "wb") as handle:
        for frame in frames:
            handle.write(frame.samples.tobytes())


def _setup_frame(seed: int) -> LumaFrame:
    scene = synth.base_scene(SETUP_EDGE, SETUP_EDGE, seed)
    return LumaFrame(SETUP_EDGE, SETUP_EDGE, scene, 0)


def _burst_sequence(rng: np.random.Generator, seed: int, length: int, burst: set[int],
                    width: int, height: int) -> list[LumaFrame]:
    period = int(rng.choice([8, 16, 32]))
    spec = synth.PatternSpec(kind="block-grid", period=period,
                             phase=int(rng.integers(0, period)), amplitude=64)
    frames, _ = synth.make_test_sequence(length, burst, spec, seed=seed,
                                         width=width, height=height)
    return frames


def detect_hd(seed: int, work: Path, tiny: bool = False) -> Corpus:
    """Default ``detect`` on a y-only raw 1080p block-grid burst corpus.

    Ten frames is the shortest sequence in which the default centred window
    of seven can judge a burst; the burst lands on one of the last three.
    """
    width, height = (64, 48) if tiny else (1920, 1080)
    length = WINDOW + 3
    rng = np.random.default_rng(seed)
    burst = {int(rng.integers(WINDOW, length))}
    _write_raw(_burst_sequence(rng, seed, length, burst, width, height), work / "hd.yuv")
    _write_raw([_setup_frame(seed)], work / "setup.yuv")
    return Corpus(
        frames=length,
        steps=[Step(["detect", *_raw_source("hd.yuv", width, height), "--out", "hd-report.json"],
                    "hd-report.json", "detect")],
        setup=Step(["detect", *_raw_source("setup.yuv", SETUP_EDGE, SETUP_EDGE),
                    "--out", "setup-report.json"], "setup-report.json", "detect"),
        truth={"length": length, "distorted": sorted(burst)},
        probe="large-arrays",
    )


def seba_cif(seed: int, work: Path, tiny: bool = False) -> Corpus:
    """Default ``seba`` on CIF calibration targets with known answers.

    Every seed renders the same mix, so the per-frame cost does not depend
    on the seed: one checkerboard per period in (8, 12, 16, 32), whose
    period is recovered exactly on both axes; one stripe grating per
    22.5-degree band, whose orientation is recovered as the 6-degree bin
    its normal snaps to; and two plain scenes.  The seed picks phases,
    stripe angles and periods, scene noise and the frame order.
    """
    width, height = (96, 80) if tiny else (352, 288)
    rng = np.random.default_rng(seed)
    targets: list[tuple[LumaFrame, dict]] = []
    for period in (8, 12, 16, 32):
        spec = synth.PatternSpec(kind="checkerboard", period=period,
                                 phase=int(rng.integers(0, period)), amplitude=64)
        targets.append((synth.pattern_frame(spec, width, height),
                        {"period_width": period, "period_height": period}))
    for band in range(4):
        orientation = float(rng.uniform(22.5 * band, 22.5 * (band + 1)))
        period = int(rng.choice([8, 12, 16]))
        spec = synth.PatternSpec(kind="stripes", period=period,
                                 phase=int(rng.integers(0, period)),
                                 orientation=orientation, amplitude=64)
        normal_bin = int(np.clip(np.round((90.0 - orientation) / 6.0), 0, 15))
        targets.append((synth.pattern_frame(spec, width, height),
                        {"orientation_degrees": 90 - 6 * normal_bin}))
    for scene in range(2):
        samples = synth.base_scene(width, height, seed * 2 + scene)
        targets.append((LumaFrame(width, height, samples), {}))
    order = rng.permutation(len(targets))
    _write_raw([targets[i][0] for i in order], work / "cif.yuv")
    _write_raw([_setup_frame(seed)], work / "setup.yuv")
    return Corpus(
        frames=len(targets),
        steps=[Step(["seba", *_raw_source("cif.yuv", width, height), "--out", "cif-report.json"],
                    "cif-report.json", "seba")],
        setup=Step(["seba", *_raw_source("setup.yuv", SETUP_EDGE, SETUP_EDGE),
                    "--out", "setup-report.json"], "setup-report.json", "seba"),
        truth={"length": len(targets), "expected": [targets[i][1] for i in order]},
        probe="grid-compares",
    )


def detect_qcif_y4m(seed: int, work: Path, tiny: bool = False) -> Corpus:
    """``detect`` then ``evaluate`` on a long QCIF 4:2:0 y4m stream, one burst."""
    width, height = (32, 32) if tiny else (176, 144)
    length = 40 if tiny else 480
    rng = np.random.default_rng(seed)
    start = int(rng.integers(WINDOW + 1, length - WINDOW - 3))
    burst = set(range(start, start + int(rng.integers(1, 4))))
    write_y4m(_burst_sequence(rng, seed, length, burst, width, height), work / "qcif.y4m")
    (work / "qcif-truth.json").write_text(json.dumps({"distorted": sorted(burst)}) + "\n")
    write_y4m([_setup_frame(seed)], work / "setup.y4m")
    return Corpus(
        frames=length,
        steps=[
            Step(["detect", "--input", "qcif.y4m", "--out", "qcif-report.json"],
                 "qcif-report.json", "detect"),
            Step(["evaluate", "--input", "qcif-report.json", "--ground-truth", "qcif-truth.json",
                  "--out", "qcif-evaluate.txt"], "qcif-evaluate.txt", "evaluate"),
        ],
        setup=Step(["detect", "--input", "setup.y4m", "--out", "setup-report.json"],
                   "setup-report.json", "detect"),
        truth={"length": length, "distorted": sorted(burst)},
        probe="small-calls",
    )


CORPUS_MAKERS = {"detect-hd": detect_hd, "seba-cif": seba_cif, "detect-qcif-y4m": detect_qcif_y4m}


def build(workload: str, seed: int, work: Path, tiny: bool = False) -> Corpus:
    return CORPUS_MAKERS[workload](seed, work, tiny)


# --- output checks -----------------------------------------------------------
#
# Each check function returns a list of (name, passed) pairs; truth_match is
# the share of pairs that pass.


def _report_rows(data: bytes, key: str, length: int) -> tuple[list[dict], list[tuple[str, bool]]]:
    try:
        rows = json.loads(data)[key]
    except (ValueError, KeyError, TypeError):
        rows = None
    parsed = isinstance(rows, list) and all(isinstance(row, dict) for row in rows)
    rows = rows if parsed else []
    indices = [row.get("frame") for row in rows]
    return rows, [("report parses", parsed), ("one row per frame", indices == list(range(length)))]


def check_detect(data: bytes, truth: dict) -> list[tuple[str, bool]]:
    rows, checks = _report_rows(data, "frames", truth["length"])
    flagged = {row.get("frame") for row in rows if row.get("verdict") == "distorted"}
    expected = set(truth["distorted"])
    return checks + [("precision = 1", flagged <= expected), ("recall = 1", expected <= flagged)]


def check_evaluate(data: bytes, truth: dict) -> list[tuple[str, bool]]:
    fields = dict(line.split("=", 1) for line in data.decode("ascii", "replace").splitlines()
                  if "=" in line)
    return [
        ("evaluate precision = 1", fields.get("precision") == "1.000000"),
        ("evaluate recall = 1", fields.get("recall") == "1.000000"),
        ("evaluate true positives", fields.get("true_positives") == str(len(truth["distorted"]))),
    ]


def check_seba(data: bytes, truth: dict) -> list[tuple[str, bool]]:
    rows, checks = _report_rows(data, "blocks", truth["length"])
    if len(rows) != truth["length"]:
        rows = [{}] * truth["length"]
    for index, (row, expected) in enumerate(zip(rows, truth["expected"])):
        for key, value in expected.items():
            checks.append((f"frame {index} {key} = {value}", row.get(key) == value))
    return checks


CHECKS = {"detect": check_detect, "evaluate": check_evaluate, "seba": check_seba}


# The one-frame setup call: one row, nothing flagged.
SETUP_TRUTH = {"length": 1, "distorted": [], "expected": [{}]}


def check_outputs(steps: list[Step], outputs: list[bytes | None],
                  truth: dict) -> list[tuple[str, bool]]:
    """Every check of one iteration's outputs; a missing output fails them all."""
    checks = []
    for step, data in zip(steps, outputs):
        results = CHECKS[step.kind](data if data is not None else b"", truth)
        checks.extend((f"{step.out}: {name}", ok and data is not None) for name, ok in results)
    return checks
