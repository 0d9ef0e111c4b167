"""Detection report types and deterministic serialization.

Serialization is byte-deterministic: keys are emitted in a fixed order and
every float is rendered with exactly six fractional digits, so identical
inputs always produce identical bytes.  ``write_report`` emits JSON (with
top-level keys ``config``, ``frames``, ``blocks``) or CSV (header plus one
row per frame).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any

VERDICTS = ("ok", "distorted", "insufficient-window")


@dataclass
class FrameScore:
    """Per-frame measurement row.

    window_mean / window_stddev are None for frames whose analysis window
    does not fit inside the sequence.
    """

    frame_index: int
    b_msr: float
    window_mean: float | None
    window_stddev: float | None
    verdict: str

    def __post_init__(self) -> None:
        if self.verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")


@dataclass
class BlockSummary:
    """Spatial analysis of one frame (or block region)."""

    frame_index: int
    block_class: str  # "uniform" | "edge" | "texture"
    orientation_degrees: int | None
    period_height: int | None
    period_width: int | None


@dataclass
class DetectionReport:
    per_frame: list[FrameScore] = field(default_factory=list)
    seba_blocks: list[BlockSummary] | None = None
    config: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        indices = [row.frame_index for row in self.per_frame]
        if indices != sorted(set(indices)):
            raise ValueError("per-frame rows must be sorted and free of duplicates")

    def distorted_frames(self) -> set[int]:
        return {row.frame_index for row in self.per_frame if row.verdict == "distorted"}


def write_report(report: DetectionReport, format: str = "json") -> str:
    if format == "json":
        return _write_json(report)
    if format == "csv":
        return _write_csv(report)
    raise ValueError(f"unknown report format {format!r}")


def parse_report(text: str) -> DetectionReport:
    """Inverse of the JSON writer (floats reparse at full precision)."""
    doc = json.loads(text)
    frames = [
        FrameScore(
            frame_index=row["frame"],
            b_msr=row["b_msr"],
            window_mean=row["window_mean"],
            window_stddev=row["window_stddev"],
            verdict=row["verdict"],
        )
        for row in doc.get("frames", [])
    ]
    blocks = None
    if doc.get("blocks") is not None:
        blocks = [
            BlockSummary(
                frame_index=row["frame"],
                block_class=row["class"],
                orientation_degrees=row["orientation_degrees"],
                period_height=row["period_height"],
                period_width=row["period_width"],
            )
            for row in doc["blocks"]
        ]
    return DetectionReport(per_frame=frames, seba_blocks=blocks, config=doc.get("config", {}))


# --- emitters ------------------------------------------------------------


def _fmt(value: Any) -> str:
    """One scalar, deterministically.

    Raises ValueError on a NaN or infinite float, which neither JSON nor the
    CSV readers of these reports accept.
    """
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"cannot write non-finite value {value}")
        return f"{value:.6f}"
    if isinstance(value, int):
        return str(value)
    return json.dumps(str(value))


def _write_json(report: DetectionReport) -> str:
    lines = ["{"]
    config_items = ", ".join(f"{json.dumps(k)}: {_fmt(v)}" for k, v in report.config.items())
    lines.append(f'  "config": {{{config_items}}},')
    lines.append('  "frames": [')
    frame_rows = []
    for row in report.per_frame:
        frame_rows.append(
            "    {"
            + f'"frame": {row.frame_index}, "b_msr": {_fmt(float(row.b_msr))}, '
            + f'"window_mean": {_fmt(row.window_mean)}, '
            + f'"window_stddev": {_fmt(row.window_stddev)}, '
            + f'"verdict": {json.dumps(row.verdict)}'
            + "}"
        )
    if frame_rows:
        lines.append(",\n".join(frame_rows))
    if report.seba_blocks is None:
        lines.append('  ],\n  "blocks": null')
    else:
        lines.append('  ],\n  "blocks": [')
        block_rows = []
        for blk in report.seba_blocks:
            block_rows.append(
                "    {"
                + f'"frame": {blk.frame_index}, "class": {json.dumps(blk.block_class)}, '
                + f'"orientation_degrees": {_fmt(blk.orientation_degrees)}, '
                + f'"period_height": {_fmt(blk.period_height)}, '
                + f'"period_width": {_fmt(blk.period_width)}'
                + "}"
            )
        if block_rows:
            lines.append(",\n".join(block_rows))
        lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _write_csv(report: DetectionReport) -> str:
    rows = ["frame,b_msr,window_mean,window_stddev,verdict"]
    for row in report.per_frame:
        mean = "" if row.window_mean is None else _fmt(float(row.window_mean))
        stddev = "" if row.window_stddev is None else _fmt(float(row.window_stddev))
        rows.append(f"{row.frame_index},{_fmt(float(row.b_msr))},{mean},{stddev},{row.verdict}")
    return "\n".join(rows) + "\n"
