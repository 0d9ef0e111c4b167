"""End-to-end acceptance suite.

Each criterion prints one [PASS]/[FAIL] line on the real stdout (visible in
captured runs too) and fails its test if the bar is missed.  Tolerances are
pinned in the assertions; nothing here is statistical except where a
correlation floor is the stated bar.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.signal import correlate2d
from scipy.stats import spearmanr

from conftest import frame_of, random_frame
import artifact
from artifact.blockiness import accumulate_buckets, blockiness_measure
from artifact.gradient import (
    KIRSCH_MASKS,
    SOBEL_X,
    SOBEL_Y,
    direction_grid,
    kirsch_gradient,
    sobel_gradient,
)
from artifact.seba import (
    direction_histogram,
    estimate_uniform_block,
    family_bins,
    matching_score,
    pattern_dimensions,
    rotation_offset,
)
from artifact.synth import PatternSpec, base_scene, inject_block_pattern, make_test_sequence, pattern_frame
from artifact.temporal_detect import detect_sequence, evaluate_detection


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def _score(frame, delta=8):
    return blockiness_measure(accumulate_buckets(kirsch_gradient(frame), delta=delta))


# --- criterion 1: convolution oracle equivalence ------------------------------


def test_criterion_1_convolution_oracle():
    rng = np.random.default_rng(100)
    started = time.perf_counter()
    clean = True
    for _ in range(50):
        frame = random_frame(rng, 64, 64)
        padded = np.pad(frame.samples.astype(np.int64), 1, mode="edge")
        responses = np.stack(
            [np.abs(correlate2d(padded, mask, mode="valid")) for mask in KIRSCH_MASKS]
        )
        kirsch = kirsch_gradient(frame)
        clean &= np.array_equal(kirsch.magnitude, responses.max(axis=0).astype(np.float64))
        clean &= np.array_equal(kirsch.direction_index, np.argmax(responses, axis=0) + 1)

        sobel = sobel_gradient(frame)
        osx = correlate2d(padded, SOBEL_X, mode="valid")
        osy = correlate2d(padded, SOBEL_Y, mode="valid")
        clean &= np.array_equal(sobel.sx, osx) and np.array_equal(sobel.sy, osy)
        clean &= np.allclose(sobel.magnitude, np.hypot(osx, osy), rtol=1e-12, atol=0.0)
        oracle_phase = np.degrees(np.arctan2(osy, osx)) % 360.0
        clean &= np.allclose(sobel.phase, oracle_phase, rtol=1e-12, atol=0.0)
    elapsed = time.perf_counter() - started
    _verdict(
        1,
        clean and elapsed < 5.0,
        f"kirsch+sobel match direct convolution on 50 random 64x64 frames "
        f"(exact ints, phase rel<=1e-12) in {elapsed:.2f}s",
    )


# --- criterion 2: blockiness nullity and grid phase recovery ------------------


def test_criterion_2_nullity_and_phase_recovery():
    started = time.perf_counter()
    null_ok = all(
        _score(frame_of(np.full((64, 64), level))).value == 0.0
        for level in (0, 64, 128, 255)
    )
    recovered = 0
    for phase in range(8):
        spec = PatternSpec(kind="block-grid", period=8, phase=phase, amplitude=64)
        frame = pattern_frame(spec, 64, 64)
        if _score(frame, delta=8).boundary_offset == phase:
            recovered += 1
    elapsed = time.perf_counter() - started
    _verdict(
        2,
        null_ok and recovered == 8 and elapsed < 1.0,
        f"constant frames score exactly 0 and delta-8 grid phase recovered "
        f"{recovered}/8 in {elapsed:.2f}s",
    )


# --- criterion 3: blockiness monotonicity --------------------------------------


def test_criterion_3_monotonicity():
    base = frame_of(base_scene(64, 64, seed=3))
    amplitudes = list(range(10, 101, 10))
    scores = []
    for amplitude in amplitudes:
        spec = PatternSpec(kind="block-grid", period=8, amplitude=amplitude)
        scores.append(_score(inject_block_pattern(base, spec)).value)
    non_decreasing = all(b >= a for a, b in zip(scores, scores[1:]))
    rho = float(spearmanr(amplitudes, scores).statistic)
    _verdict(
        3,
        non_decreasing and rho >= 0.95,
        f"scores non-decreasing over amplitudes 10..100 and spearman rho={rho:.3f} >= 0.95",
    )


# --- criterion 4: orientation table reproduction --------------------------------


def test_criterion_4_orientation_table():
    table = [
        (0.0, 15, 0),
        (30.0, 10, 30),
        (45.0, 8, 42),
        (60.0, 5, 60),
        (75.0, 2, 78),
        (90.0, 0, 90),
    ]
    matched = 0
    rows = []
    for orientation, want_bin, want_offset in table:
        spec = PatternSpec(kind="stripes", orientation=orientation, period=12, amplitude=64)
        sobel = sobel_gradient(pattern_frame(spec, 64, 64))
        result = rotation_offset(direction_histogram(sobel))
        got = (result.high_bin, result.offset_degrees)
        rows.append(f"{orientation:g}deg->bin {got[0]}/offset {got[1]}")
        if got == (want_bin, want_offset):
            matched += 1
    _verdict(4, matched == 6, f"stripe table matched {matched}/6 rows ({'; '.join(rows)})")


# --- criterion 5: pattern period recovery ----------------------------------------


def test_criterion_5_period_recovery():
    periods_ok = True
    histogram_ok = True
    for period in (8, 12, 16, 32):
        spec = PatternSpec(kind="checkerboard", period=period, amplitude=64)
        # 128x128 keeps the shift-32 overlap dominated by interior pixels.
        grid = direction_grid(sobel_gradient(pattern_frame(spec, 128, 128)))
        geometry = pattern_dimensions(grid)
        periods_ok &= geometry.period_width == period and geometry.period_height == period
        for shift in (1, period // 2, period):
            result = matching_score(grid, dx=shift)
            histogram_ok &= result.sum_histogram.shape == (119,)
            mass = np.flatnonzero(result.sum_histogram)
            histogram_ok &= mass.size == 0 or mass.max() <= 118
    _verdict(
        5,
        periods_ok and histogram_ok,
        "checkerboard periods {8,12,16,32} recovered exactly per axis; "
        "sum histogram confined to bins 0..118",
    )


# --- criterion 6: uniform block estimation ---------------------------------------


def test_criterion_6_uniform_block_estimation():
    def flat(value):
        return np.full((8, 8), float(value))

    constant = estimate_uniform_block(
        {"top": flat(77), "bottom": flat(77), "left": flat(77), "right": flat(77)},
        size=(8, 8),
    )
    constant_ok = np.array_equal(constant, flat(77))

    two_tone = estimate_uniform_block(
        {"top": flat(100), "bottom": flat(200), "left": flat(100), "right": flat(200)},
        size=(8, 8),
    )
    expected = np.empty((8, 8))
    expected[:4, :4], expected[:4, 4:] = 100.0, 150.0
    expected[4:, :4], expected[4:, 4:] = 150.0, 200.0
    two_tone_ok = np.array_equal(two_tone, expected)

    rng = np.random.default_rng(101)
    random_ok = True
    for _ in range(20):
        sides = {r: rng.uniform(0, 255, (8, 8)) for r in ("top", "bottom", "left", "right")}
        block = estimate_uniform_block(sides, size=(8, 8))
        tb = np.vstack([sides["top"][:4], sides["bottom"][4:]])
        lr = np.hstack([sides["left"][:, :4], sides["right"][:, 4:]])
        random_ok &= np.allclose(block, (tb + lr) / 2, rtol=1e-12, atol=0.0)
    _verdict(
        6,
        constant_ok and two_tone_ok and random_ok,
        "constant and two-tone neighbour cases exact; 20 random cases match "
        "the direct formula to rel 1e-12",
    )


# --- criterion 7: end-to-end detection --------------------------------------------


def test_criterion_7_end_to_end_detection():
    frames, truth = make_test_sequence(length=180, distorted={91, 92, 93}, seed=0)
    metrics = evaluate_detection(detect_sequence(frames).distorted_frames(), truth)
    seeded_ok = metrics.precision == 1.0 and metrics.recall == 1.0

    rng = np.random.default_rng(2024)
    kinds = ("block-grid", "checkerboard", "burst-noise")
    efficiencies = []
    for trial in range(20):
        length = int(rng.integers(40, 91))
        burst = int(rng.integers(1, 4))
        start = int(rng.integers(7, length - burst))
        spec = PatternSpec(
            kind=kinds[rng.integers(0, 3)],
            period=int(rng.choice((8, 12, 16))),
            amplitude=int(rng.integers(10, 91)),
        )
        distorted = set(range(start, start + burst))
        frames, truth = make_test_sequence(length, distorted, spec, seed=trial)
        metrics = evaluate_detection(detect_sequence(frames).distorted_frames(), truth)
        efficiencies.append(metrics.efficiency)
    mean_efficiency = float(np.mean(efficiencies))
    _verdict(
        7,
        seeded_ok and mean_efficiency >= 0.9,
        f"seeded 180-frame corpus at precision=recall=1.0; mean efficiency "
        f"{mean_efficiency:.4f} >= 0.9 over 20 randomized corpora",
    )


# --- criterion 8: bin-reduction speedup --------------------------------------------


def test_criterion_8_bin_reduction_speedup():
    frame = frame_of(base_scene(1920, 1080, seed=8))

    def best_of(runs, family):
        best = float("inf")
        for _ in range(runs):
            # Fresh field each run: the full path memoises its direction
            # grid, and a warm cache would flatter it.
            field = sobel_gradient(frame)
            started = time.perf_counter()
            direction_histogram(field, family=family)
            best = min(best, time.perf_counter() - started)
        return best

    full_time = best_of(5, None)
    reduced_time = best_of(5, 0)
    speedup = full_time / reduced_time

    field = sobel_gradient(frame)
    full = direction_histogram(field)
    equal = True
    for family in range(15):
        reduced = direction_histogram(field, family=family)
        kept = family_bins(family)
        equal &= np.array_equal(reduced.bins[kept], full.bins[kept])
    _verdict(
        8,
        speedup >= 2.0 and equal,
        f"12-bin accumulation {speedup:.2f}x faster than the 60-bin histogram "
        f"on a 1080-row frame; kept bins exactly equal for all 15 families",
    )


# --- criterion 9: CLI determinism ----------------------------------------------------


def _cli(args, cwd):
    # The child runs in cwd, where a relative PYTHONPATH would not resolve, so
    # it is handed the absolute directory this package was imported from.
    package_root = str(Path(artifact.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "artifact.cli", *args],
        capture_output=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": pythonpath},
        check=False,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_criterion_9_cli_determinism(tmp_path):
    runs = {name: tmp_path / name for name in ("a", "b")}
    outputs = {}
    for name, root in runs.items():
        root.mkdir()
        synth_out = _cli(
            ["synth", "--out", "corpus", "--length", "24", "--width", "32",
             "--height", "32", "--distorted", "12,13", "--seed", "9"],
            cwd=root,
        )
        source = ["--input", "corpus.yuv", "--format", "raw-yuv",
                  "--width", "32", "--height", "32", "--pixel-layout", "y-only"]
        outputs[name] = {
            "synth.stdout": synth_out,
            "corpus.yuv": (root / "corpus.yuv").read_bytes(),
            "corpus.json": (root / "corpus.json").read_bytes(),
            "measure": _cli(["measure", *source], cwd=root),
            "detect": _cli(["detect", *source], cwd=root),
            "seba": _cli(["seba", *source], cwd=root),
        }
        (root / "report.json").write_bytes(outputs[name]["detect"])
        outputs[name]["evaluate"] = _cli(
            ["evaluate", "--input", "report.json", "--ground-truth", "corpus.json"],
            cwd=root,
        )
    same = {key for key in outputs["a"] if outputs["a"][key] == outputs["b"][key]}
    _verdict(
        9,
        same == set(outputs["a"]),
        f"all five subcommands byte-identical across repeat runs "
        f"({len(same)}/{len(outputs['a'])} artifacts compared equal)",
    )
