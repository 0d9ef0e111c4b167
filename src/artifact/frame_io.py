"""Frame ingestion: luma extraction from y4m, raw YUV, and PGM sequences.

All analysis in this package runs on the luma plane only.  Chroma planes are
parsed (to keep file offsets correct) and discarded.
"""

from __future__ import annotations

import os
import re
import stat
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Iterator

import numpy as np

MIN_FRAME_EDGE = 3

FORMATS = ("y4m", "raw-yuv", "image-sequence")
PIXEL_LAYOUTS = ("yuv420", "yuv422", "y-only")


class FrameSourceError(Exception):
    """Unreadable, truncated, or otherwise malformed frame source."""


class GeometryError(FrameSourceError):
    """Frame geometry is missing, inconsistent, or below the 3x3 minimum."""


@dataclass
class LumaFrame:
    """A single luma plane.

    samples is a (height, width) uint8 array; index order is (row, column).
    """

    width: int
    height: int
    samples: np.ndarray
    frame_index: int = 0

    def __post_init__(self) -> None:
        if self.width < MIN_FRAME_EDGE or self.height < MIN_FRAME_EDGE:
            raise GeometryError(
                f"frame geometry {self.width}x{self.height} is below the "
                f"{MIN_FRAME_EDGE}x{MIN_FRAME_EDGE} minimum"
            )
        self.samples = np.asarray(self.samples, dtype=np.uint8)
        if self.samples.shape != (self.height, self.width):
            raise GeometryError(
                f"sample grid shape {self.samples.shape} does not match "
                f"declared geometry {self.height}x{self.width}"
            )


@dataclass
class SourceSpec:
    """Where frames come from and how to interpret the bytes.

    format: one of "y4m", "raw-yuv", "image-sequence".
    geometry: (width, height); mandatory for raw-yuv, ignored for y4m.
    pixel_layout: raw-yuv plane layout, one of "yuv420", "yuv422", "y-only".
    """

    path: str | Path
    format: str = "y4m"
    geometry: tuple[int, int] | None = None
    pixel_layout: str = "yuv420"

    def __post_init__(self) -> None:
        if self.format not in FORMATS:
            raise FrameSourceError(f"unsupported source format: {self.format!r}")
        if self.pixel_layout not in PIXEL_LAYOUTS:
            raise FrameSourceError(f"unsupported pixel layout: {self.pixel_layout!r}")


def load_frame_sequence(spec: SourceSpec) -> Iterator[LumaFrame]:
    """Yield luma frames from the source described by ``spec`` in stream order.

    Raises FrameSourceError (or GeometryError) on unreadable files, geometry
    mismatches, and unsupported format tags.
    """
    path = Path(spec.path)
    if spec.format == "image-sequence":
        yield from _iter_pgm_sequence(path)
        return
    if not path.is_file():
        raise FrameSourceError(f"cannot read frame source: {path}")
    if spec.format == "y4m":
        with open(path, "rb") as handle:
            yield from _iter_y4m(handle)
    else:
        if spec.geometry is None:
            raise GeometryError("raw-yuv sources need an explicit width/height")
        with open(path, "rb") as handle:
            yield from _iter_raw_yuv(handle, spec.geometry, spec.pixel_layout, path)


# --- y4m ---------------------------------------------------------------

_Y4M_MAGIC = b"YUV4MPEG2"
_Y4M_MAX_EDGE = 16384  # twice the width of 8K UHD

# Luma-plane frame size in bytes, as a fraction of width*height.
_Y4M_PLANE_FACTORS = {
    "420": (1, 2),  # + two quarter-size chroma planes -> 3/2 total
    "422": (1, 1),  # + two half-size chroma planes -> 2 total
    "444": (2, 1),  # + two full-size chroma planes -> 3 total
    "mono": (0, 1),
}


def _iter_y4m(handle: BinaryIO) -> Iterator[LumaFrame]:
    header = _read_line(handle)
    if not header.startswith(_Y4M_MAGIC):
        raise FrameSourceError("missing YUV4MPEG2 signature")
    width = height = None
    chroma = "420"
    for token in header.decode("ascii", "replace").split()[1:]:
        tag, value = token[0], token[1:]
        if tag == "W":
            width = _y4m_edge(tag, value)
        elif tag == "H":
            height = _y4m_edge(tag, value)
        elif tag == "C":
            chroma = _normalise_chroma_tag(value)
    if width is None or height is None:
        raise GeometryError("y4m header lacks W/H geometry")
    luma_bytes = width * height
    extra_num, extra_den = _Y4M_PLANE_FACTORS[chroma]
    chroma_bytes = luma_bytes * extra_num // extra_den
    remaining = _bytes_left(handle)
    # Once one frame is known to fit in the file, no read can ask for more
    # bytes than the file holds, however large the header says frames are.
    # Nothing left means a stream of no frames.
    if remaining and remaining < len(b"FRAME\n") + luma_bytes + chroma_bytes:
        raise FrameSourceError(
            f"truncated y4m stream: {remaining} bytes left after the header, "
            f"fewer than one {width}x{height} C{chroma} frame"
        )

    skipped = bytearray(chroma_bytes)
    index = 0
    while True:
        marker = _read_line(handle)
        if marker == b"":
            return
        if not marker.startswith(b"FRAME"):
            raise FrameSourceError(f"expected FRAME marker, got {marker[:20]!r}")
        plane = np.empty((height, width), dtype=np.uint8)
        if not _read_frame(handle, plane, skipped):
            raise FrameSourceError(f"truncated y4m frame payload at frame {index}")
        yield LumaFrame(width, height, plane, index)
        index += 1


def _y4m_edge(tag: str, value: str) -> int:
    if not re.fullmatch(r"[0-9]+", value) or not 0 < int(value) <= _Y4M_MAX_EDGE:
        raise GeometryError(
            f"y4m header has {tag}{value}; frame edges must be integers in 1..{_Y4M_MAX_EDGE}"
        )
    return int(value)


def _bytes_left(handle: BinaryIO) -> int:
    """Bytes from the read position to the end of a regular file; 0 for other handles."""
    try:
        info = os.fstat(handle.fileno())
    except OSError:  # io.UnsupportedOperation: no file behind the handle
        return 0
    return info.st_size - handle.tell() if stat.S_ISREG(info.st_mode) else 0


def _normalise_chroma_tag(value: str) -> str:
    # C420 has several siting variants (420jpeg, 420mpeg2, 420paldv); the
    # luma plane layout is identical for all of them.
    if value.startswith("420"):
        return "420"
    if value in ("422", "444", "mono"):
        return value
    raise FrameSourceError(f"unsupported y4m colourspace tag C{value}")


def _read_line(handle: BinaryIO) -> bytes:
    out = bytearray()
    while True:
        byte = handle.read(1)
        if byte in (b"", b"\n"):
            return bytes(out)
        out += byte
        if len(out) > 512:
            raise FrameSourceError("unterminated header line")


def _read_frame(handle: BinaryIO, plane: np.ndarray, skipped: bytearray) -> bool:
    """Read one frame's luma straight into ``plane`` and its chroma into the
    reused ``skipped`` buffer, which is discarded; False on a short read."""
    return handle.readinto(plane) == plane.size and handle.readinto(skipped) == len(skipped)


# --- headerless raw YUV -------------------------------------------------

_RAW_FRAME_BYTES = {
    "y-only": lambda w, h: w * h,
    "yuv420": lambda w, h: w * h * 3 // 2,
    "yuv422": lambda w, h: w * h * 2,
}


def _iter_raw_yuv(
    handle: BinaryIO,
    geometry: tuple[int, int],
    layout: str,
    path: Path,
) -> Iterator[LumaFrame]:
    width, height = geometry
    if width < MIN_FRAME_EDGE or height < MIN_FRAME_EDGE:
        raise GeometryError(f"raw-yuv geometry {width}x{height} too small")
    if layout == "yuv420" and (width % 2 or height % 2):
        raise GeometryError("yuv420 layout needs even width and height")
    stride = _RAW_FRAME_BYTES[layout](width, height)
    total = path.stat().st_size
    if total == 0 or total % stride:
        raise GeometryError(
            f"file size {total} is not a multiple of the {stride}-byte "
            f"frame stride implied by {width}x{height} {layout}"
        )
    skipped = bytearray(stride - width * height)
    for index in range(total // stride):
        plane = np.empty((height, width), dtype=np.uint8)
        if not _read_frame(handle, plane, skipped):
            raise FrameSourceError(f"short read at raw frame {index}")
        yield LumaFrame(width, height, plane, index)


# --- PGM image sequences -------------------------------------------------


def _iter_pgm_sequence(directory: Path) -> Iterator[LumaFrame]:
    if not directory.is_dir():
        raise FrameSourceError(f"image-sequence source must be a directory: {directory}")
    paths = sorted(directory.glob("*.pgm"))
    if not paths:
        raise FrameSourceError(f"no .pgm frames found under {directory}")
    geometry = None
    for index, path in enumerate(paths):
        frame = _read_pgm(path, index)
        if geometry is None:
            geometry = (frame.width, frame.height)
        elif geometry != (frame.width, frame.height):
            raise GeometryError(
                f"{path.name}: geometry {frame.width}x{frame.height} differs "
                f"from first frame {geometry[0]}x{geometry[1]}"
            )
        yield frame


def _read_pgm(path: Path, index: int) -> LumaFrame:
    """The first image of a binary PGM file; any bytes after it are ignored."""
    data = path.read_bytes()
    if not data.startswith(b"P5"):
        raise FrameSourceError(f"{path.name}: only binary (P5) PGM is supported")
    # Header = magic + three ASCII integers, with '#' comments allowed.
    pos, fields = 2, []
    while len(fields) < 3:
        match = re.compile(rb"\s*(?:#[^\n]*\n\s*)*(\d+)").match(data, pos)
        if match is None:
            raise FrameSourceError(f"{path.name}: malformed PGM header")
        fields.append(int(match.group(1)))
        pos = match.end()
    width, height, maxval = fields
    if maxval > 255:
        raise FrameSourceError(f"{path.name}: 16-bit PGM (maxval {maxval}) unsupported")
    if maxval == 0:
        raise FrameSourceError(f"{path.name}: PGM maxval must be at least 1")
    if not data[pos : pos + 1].isspace():
        raise FrameSourceError(f"{path.name}: malformed PGM header (no whitespace after maxval)")
    pos += 1  # single whitespace byte after maxval
    pixels = data[pos : pos + width * height]
    if len(pixels) != width * height:
        raise FrameSourceError(f"{path.name}: truncated pixel payload")
    grid = np.frombuffer(pixels, dtype=np.uint8).reshape(height, width)
    return LumaFrame(width, height, grid.copy(), index)
