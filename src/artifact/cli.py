"""Command-line front end.

Subcommands: measure, detect, seba, synth, evaluate.  Exit status is 0 on
success, 1 on usage errors, and 2 when an input cannot be read or parsed.
All output is deterministic: the same invocation always writes the same
bytes.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import seba, synth
from .blockiness import accumulate_buckets, blockiness_measure
from .frame_io import FrameSourceError, SourceSpec, load_frame_sequence
from .gradient import kirsch_gradient
from .report import DetectionReport, _fmt, parse_report, write_report
from .temporal_detect import (
    VERDICT_INSUFFICIENT,
    DetectionConfig,
    detect_sequence,
    evaluate_detection,
)

USAGE_ERROR = 1
INPUT_ERROR = 2


class _Parser(argparse.ArgumentParser):
    """argparse, but usage problems exit with status 1 instead of 2."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _add_source_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="frame source (file or directory)")
    parser.add_argument("--format", default="y4m", choices=("y4m", "raw-yuv", "image-sequence"))
    parser.add_argument("--width", type=int, help="frame width (raw-yuv only)")
    parser.add_argument("--height", type=int, help="frame height (raw-yuv only)")
    parser.add_argument("--pixel-layout", default="yuv420", choices=("yuv420", "yuv422", "y-only"))


def _add_blockiness_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--delta", type=int, default=8, help="block pitch in pixels")
    parser.add_argument("--scale", type=float, default=1.0, help="score scale factor")
    parser.add_argument("--clip-margin", type=int, default=0,
                        help="pixels shaved from every edge before accumulation")


def _add_out_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", help="output path (default: stdout)")


def build_parser() -> _Parser:
    parser = _Parser(prog="artifact", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    measure = commands.add_parser("measure", help="per-frame blockiness scores as CSV")
    _add_source_flags(measure)
    _add_blockiness_flags(measure)
    _add_out_flag(measure)

    detect = commands.add_parser("detect", help="flag distorted frames")
    _add_source_flags(detect)
    _add_blockiness_flags(detect)
    detect.add_argument("--beta", type=float, default=1.5, help="detection threshold (squared)")
    detect.add_argument("--window", type=int, default=7, help="analysis window in frames")
    detect.add_argument("--causal", action="store_true", help="trailing windows, no lookahead")
    detect.add_argument("--report-format", default="json", choices=("json", "csv"))
    _add_out_flag(detect)

    seba_cmd = commands.add_parser("seba", help="per-frame spatial block analysis")
    _add_source_flags(seba_cmd)
    seba_cmd.add_argument("--th-fix", type=float, default=0.2,
                          help="dominance margin as a fraction of the peak EMS")
    seba_cmd.add_argument("--texture-count", type=int, default=6,
                          help="dominant bins at which a block counts as texture")
    seba_cmd.add_argument("--max-shift", type=int, help="largest displacement swept per axis")
    _add_out_flag(seba_cmd)

    synth_cmd = commands.add_parser("synth", help="generate a synthetic corpus")
    synth_cmd.add_argument("--out", required=True, help="output prefix (.yuv/.json added)")
    synth_cmd.add_argument("--seed", type=int, default=0)
    synth_cmd.add_argument("--length", type=int, default=180)
    synth_cmd.add_argument("--width", type=int, default=64)
    synth_cmd.add_argument("--height", type=int, default=64)
    synth_cmd.add_argument("--distorted", default="91,92,93",
                           help="comma-separated distorted frame indices")
    synth_cmd.add_argument("--kind", default="block-grid", choices=synth.PATTERN_KINDS)
    synth_cmd.add_argument("--period", type=int, default=16)
    synth_cmd.add_argument("--phase", type=int, default=0)
    synth_cmd.add_argument("--orientation", type=float, default=0.0)
    synth_cmd.add_argument("--amplitude", type=int, default=64)
    synth_cmd.add_argument("--noise", type=int, default=synth.DEFAULT_NOISE_AMPLITUDE,
                           help="clean-scene noise amplitude")

    evaluate = commands.add_parser("evaluate", help="score a detection report against truth")
    evaluate.add_argument("--input", required=True, help="detection report JSON")
    evaluate.add_argument("--ground-truth", required=True,
                          help="sidecar JSON or newline-separated frame indices")
    _add_out_flag(evaluate)

    return parser


def _source_spec(args: argparse.Namespace) -> SourceSpec:
    geometry = None
    if args.width is not None or args.height is not None:
        if args.width is None or args.height is None:
            raise FrameSourceError("--width and --height must be given together")
        geometry = (args.width, args.height)
    if args.format == "raw-yuv" and geometry is None:
        raise FrameSourceError("raw-yuv input needs --width and --height")
    return SourceSpec(
        path=args.input,
        format=args.format,
        geometry=geometry,
        pixel_layout=args.pixel_layout,
    )


def _validate_flags(parser: _Parser, args: argparse.Namespace) -> None:
    """Reject bad flag values before any input is touched.

    Everything here is knowable from the command line alone, so failures
    are usage errors (exit 1), not input errors (exit 2).
    """
    def check(cond: bool, message: str) -> None:
        if not cond:
            parser.error(message)

    if args.command in ("measure", "detect", "seba"):
        check((args.width is None) == (args.height is None),
              "--width and --height must be given together")
        if args.width is not None:
            check(args.width >= 3 and args.height >= 3,
                  "--width and --height must be at least 3")
        if args.format == "raw-yuv":
            check(args.width is not None, "raw-yuv input needs --width and --height")
    if args.command in ("measure", "detect"):
        check(args.delta >= 1, "--delta must be at least 1")
        check(math.isfinite(args.scale) and args.scale > 0, "--scale must be finite and positive")
        check(args.clip_margin >= 0, "--clip-margin cannot be negative")
    if args.command == "detect":
        check(math.isfinite(args.beta) and args.beta > 0, "--beta must be finite and positive")
        check(args.window >= 1, "--window must be at least 1")
        if not args.causal:
            check(args.window % 2 == 1, "--window must be odd unless --causal is set")
    if args.command == "seba":
        check(0.0 <= args.th_fix < 1.0, "--th-fix must lie in [0, 1)")
        check(args.texture_count >= 1, "--texture-count must be at least 1")
        if args.max_shift is not None:
            check(args.max_shift >= 1, "--max-shift must be at least 1")
    if args.command == "synth":
        check(args.length >= 1, "--length must be at least 1")
        check(args.width >= 3 and args.height >= 3,
              "--width and --height must be at least 3")
        check(args.noise >= 0, "--noise cannot be negative")
        try:
            [int(part) for part in args.distorted.split(",") if part.strip()]
        except ValueError:
            parser.error("--distorted must be comma-separated frame indices")
        try:
            synth.PatternSpec(kind=args.kind, period=args.period, phase=args.phase,
                              orientation=args.orientation, amplitude=args.amplitude)
        except ValueError as exc:
            parser.error(str(exc))
        if args.kind == "block-grid":
            check(args.period >= 4, "block-grid patterns need --period of at least 4")
        if args.kind == "checkerboard":
            check(args.period % 2 == 0, "checkerboard patterns need an even --period")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _run_measure(args: argparse.Namespace) -> None:
    rows = ["frame,b_msr,boundary_offset"]
    for frame in load_frame_sequence(_source_spec(args)):
        buckets = accumulate_buckets(kirsch_gradient(frame),
                                     delta=args.delta, clip_margin=args.clip_margin)
        score = blockiness_measure(buckets, scale=args.scale)
        rows.append(f"{frame.frame_index},{_fmt(score.value)},{score.boundary_offset}")
    _emit("\n".join(rows) + "\n", args.out)


def _run_detect(args: argparse.Namespace) -> None:
    cfg = DetectionConfig(beta=args.beta, window=args.window, causal=args.causal)
    report = detect_sequence(
        load_frame_sequence(_source_spec(args)),
        cfg,
        delta=args.delta,
        scale=args.scale,
        clip_margin=args.clip_margin,
    )
    report.config["input_format"] = args.format
    if len(report.per_frame) < cfg.window + 1:
        print(f"artifact detect: warning: {len(report.per_frame)} frame(s) read, fewer than "
              f"window + 1 = {cfg.window + 1}; every verdict is {VERDICT_INSUFFICIENT}",
              file=sys.stderr)
    _emit(write_report(report, args.report_format), args.out)


def _run_seba(args: argparse.Namespace) -> None:
    blocks = [
        seba.analyze_frame(frame, th_fix=args.th_fix,
                           texture_count=args.texture_count, max_shift=args.max_shift)
        for frame in load_frame_sequence(_source_spec(args))
    ]
    report = DetectionReport(
        per_frame=[],
        seba_blocks=blocks,
        config={
            "th_fix": float(args.th_fix),
            "texture_count": args.texture_count,
            "max_shift": args.max_shift,
            "input_format": args.format,
        },
    )
    _emit(write_report(report, "json"), args.out)


def _run_synth(args: argparse.Namespace) -> None:
    distorted = {int(part) for part in args.distorted.split(",") if part.strip()}
    spec = synth.PatternSpec(
        kind=args.kind,
        period=args.period,
        phase=args.phase,
        orientation=args.orientation,
        amplitude=args.amplitude,
    )
    frames, truth = synth.make_test_sequence(
        args.length,
        distorted,
        spec,
        seed=args.seed,
        width=args.width,
        height=args.height,
        noise_amplitude=args.noise,
    )
    yuv_path, sidecar_path = synth.save_corpus(frames, truth, args.out, extra={"seed": args.seed})
    sys.stdout.write(f"{yuv_path}\n{sidecar_path}\n")


def _run_evaluate(args: argparse.Namespace) -> None:
    report = parse_report(Path(args.input).read_text())
    truth = synth.read_ground_truth(args.ground_truth)
    metrics = evaluate_detection(report.distorted_frames(), truth)
    text = (
        f"true_positives={metrics.true_positives}\n"
        f"false_positives={metrics.false_positives}\n"
        f"missed={metrics.missed}\n"
        f"precision={metrics.precision:.6f}\n"
        f"recall={metrics.recall:.6f}\n"
        f"efficiency={metrics.efficiency:.6f}\n"
    )
    _emit(text, args.out)


_HANDLERS = {
    "measure": _run_measure,
    "detect": _run_detect,
    "seba": _run_seba,
    "synth": _run_synth,
    "evaluate": _run_evaluate,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _validate_flags(parser, args)
    try:
        _HANDLERS[args.command](args)
    except (FrameSourceError, OSError, ValueError, KeyError) as exc:
        print(f"artifact {args.command}: {exc}", file=sys.stderr)
        return INPUT_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
