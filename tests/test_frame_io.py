"""Loaders: y4m, headerless raw YUV, and PGM sequences."""

import io

import numpy as np
import pytest

from artifact.frame_io import (
    FrameSourceError,
    GeometryError,
    LumaFrame,
    SourceSpec,
    _iter_raw_yuv,
    _iter_y4m,
    load_frame_sequence,
)


def _plane(height, width, start=0):
    return (np.arange(height * width, dtype=np.int64) + start).astype(np.uint8)


def _y4m_bytes(width, height, frames, chroma=None, header_extra=b""):
    tag = b"" if chroma is None else b" C" + chroma
    out = bytearray(b"YUV4MPEG2 W%d H%d F25:1" % (width, height) + tag + header_extra + b"\n")
    factors = {None: 0.5, b"420": 0.5, b"420jpeg": 0.5, b"420mpeg2": 0.5,
               b"422": 1.0, b"444": 2.0, b"mono": 0.0}
    chroma_bytes = int(width * height * factors[chroma])
    for plane in frames:
        out += b"FRAME\n" + plane.tobytes() + bytes(chroma_bytes)
    return bytes(out)


# --- y4m ---------------------------------------------------------------------


def test_y4m_reads_luma_and_skips_chroma(tmp_path):
    planes = [_plane(4, 6, start=i * 10) for i in range(3)]
    clip = tmp_path / "clip.y4m"
    clip.write_bytes(_y4m_bytes(6, 4, planes))
    frames = list(load_frame_sequence(SourceSpec(clip)))
    assert len(frames) == 3
    for index, frame in enumerate(frames):
        assert (frame.width, frame.height, frame.frame_index) == (6, 4, index)
        assert np.array_equal(frame.samples, planes[index].reshape(4, 6))


@pytest.mark.parametrize("chroma", [b"420", b"420jpeg", b"420mpeg2", b"422", b"444", b"mono"])
def test_y4m_chroma_variants_leave_luma_intact(tmp_path, chroma):
    planes = [_plane(4, 4), _plane(4, 4, start=7)]
    clip = tmp_path / "clip.y4m"
    clip.write_bytes(_y4m_bytes(4, 4, planes, chroma=chroma))
    frames = list(load_frame_sequence(SourceSpec(clip)))
    assert len(frames) == 2
    assert np.array_equal(frames[1].samples, planes[1].reshape(4, 4))


def test_y4m_frame_headers_may_carry_parameters(tmp_path):
    plane = _plane(4, 4)
    body = b"YUV4MPEG2 W4 H4 C420 Ip A1:1\nFRAME Xtag\n" + plane.tobytes() + bytes(8)
    clip = tmp_path / "clip.y4m"
    clip.write_bytes(body)
    frames = list(load_frame_sequence(SourceSpec(clip)))
    assert np.array_equal(frames[0].samples, plane.reshape(4, 4))


def test_y4m_rejects_bad_signature(tmp_path):
    clip = tmp_path / "clip.y4m"
    clip.write_bytes(b"RIFFxxxx")
    with pytest.raises(FrameSourceError):
        list(load_frame_sequence(SourceSpec(clip)))


def test_y4m_rejects_missing_geometry(tmp_path):
    clip = tmp_path / "clip.y4m"
    clip.write_bytes(b"YUV4MPEG2 F25:1\nFRAME\n")
    with pytest.raises(GeometryError):
        list(load_frame_sequence(SourceSpec(clip)))


def test_y4m_rejects_bad_frame_marker(tmp_path):
    clip = tmp_path / "clip.y4m"
    clip.write_bytes(b"YUV4MPEG2 W4 H4\nGARBAGE\n" + bytes(24))
    with pytest.raises(FrameSourceError):
        list(load_frame_sequence(SourceSpec(clip)))


def test_y4m_rejects_truncated_payload(tmp_path):
    clip = tmp_path / "clip.y4m"
    clip.write_bytes(b"YUV4MPEG2 W4 H4 C420\nFRAME\n" + bytes(10))
    with pytest.raises(FrameSourceError):
        list(load_frame_sequence(SourceSpec(clip)))


@pytest.mark.parametrize("cut", [1, 6, 7, 12])
def test_y4m_rejects_a_later_frame_cut_in_luma_or_chroma(tmp_path, cut):
    # 6x4 4:2:0 frames hold 24 luma and 12 chroma bytes; the cut drops the
    # last bytes of the second frame, from its chroma or into its luma.
    planes = [_plane(4, 6), _plane(4, 6, start=5)]
    body = _y4m_bytes(6, 4, planes, chroma=b"420")[:-cut]
    clip = tmp_path / "clip.y4m"
    clip.write_bytes(body)
    for source in (lambda: load_frame_sequence(SourceSpec(clip)), lambda: _iter_y4m(io.BytesIO(body))):
        frames = []
        with pytest.raises(FrameSourceError, match="truncated y4m frame payload at frame 1"):
            frames.extend(source())
        assert len(frames) == 1
        assert np.array_equal(frames[0].samples, planes[0].reshape(4, 6))


def test_y4m_rejects_unknown_colourspace(tmp_path):
    clip = tmp_path / "clip.y4m"
    clip.write_bytes(b"YUV4MPEG2 W4 H4 C410\nFRAME\n" + bytes(24))
    with pytest.raises(FrameSourceError):
        list(load_frame_sequence(SourceSpec(clip)))


def test_y4m_header_only_stream_has_no_frames(tmp_path):
    clip = tmp_path / "clip.y4m"
    clip.write_bytes(b"YUV4MPEG2 W4 H4 C420\n")
    assert list(load_frame_sequence(SourceSpec(clip))) == []


def test_y4m_reads_from_a_handle_without_a_file(tmp_path):
    planes = [_plane(4, 6), _plane(4, 6, start=3)]
    frames = list(_iter_y4m(io.BytesIO(_y4m_bytes(6, 4, planes))))
    assert [f.frame_index for f in frames] == [0, 1]
    assert np.array_equal(frames[1].samples, planes[1].reshape(4, 6))


def test_missing_file_is_a_source_error(tmp_path):
    with pytest.raises(FrameSourceError):
        list(load_frame_sequence(SourceSpec(tmp_path / "absent.y4m")))


# --- raw YUV -----------------------------------------------------------------


@pytest.mark.parametrize(
    "layout,stride_factor",
    [("y-only", 1.0), ("yuv420", 1.5), ("yuv422", 2.0)],
)
def test_raw_yuv_strides(tmp_path, layout, stride_factor):
    width, height = 6, 4
    luma = [_plane(height, width, start=i) for i in range(2)]
    stride = int(width * height * stride_factor)
    blob = b"".join(p.tobytes() + bytes(stride - width * height) for p in luma)
    raw = tmp_path / "clip.yuv"
    raw.write_bytes(blob)
    spec = SourceSpec(raw, format="raw-yuv", geometry=(width, height), pixel_layout=layout)
    frames = list(load_frame_sequence(spec))
    assert len(frames) == 2
    for index, frame in enumerate(frames):
        assert np.array_equal(frame.samples, luma[index].reshape(height, width))


@pytest.mark.parametrize("cut", [1, 12, 13, 36])
def test_raw_yuv_short_read_is_a_source_error(tmp_path, cut):
    # A file that shrinks while it is read: the handle ends before the
    # size checked up front, in the last frame's chroma or luma.
    luma = [_plane(4, 6), _plane(4, 6, start=9)]
    blob = b"".join(p.tobytes() + bytes(12) for p in luma)
    raw = tmp_path / "clip.yuv"
    raw.write_bytes(blob)
    frames = []
    with pytest.raises(FrameSourceError, match="short read at raw frame 1"):
        frames.extend(_iter_raw_yuv(io.BytesIO(blob[:-cut]), (6, 4), "yuv420", raw))
    assert len(frames) == 1
    assert np.array_equal(frames[0].samples, luma[0].reshape(4, 6))


def test_raw_yuv_needs_geometry(tmp_path):
    raw = tmp_path / "clip.yuv"
    raw.write_bytes(bytes(36))
    with pytest.raises(GeometryError):
        list(load_frame_sequence(SourceSpec(raw, format="raw-yuv")))


def test_raw_yuv_rejects_partial_final_frame(tmp_path):
    raw = tmp_path / "clip.yuv"
    raw.write_bytes(bytes(16 + 7))  # one 4x4 y-only frame plus a stub
    spec = SourceSpec(raw, format="raw-yuv", geometry=(4, 4), pixel_layout="y-only")
    with pytest.raises(GeometryError):
        list(load_frame_sequence(spec))


def test_raw_yuv_rejects_odd_420_geometry(tmp_path):
    raw = tmp_path / "clip.yuv"
    raw.write_bytes(bytes(5 * 4 * 3 // 2))
    spec = SourceSpec(raw, format="raw-yuv", geometry=(5, 4), pixel_layout="yuv420")
    with pytest.raises(GeometryError):
        list(load_frame_sequence(spec))


def test_raw_yuv_rejects_empty_file(tmp_path):
    raw = tmp_path / "clip.yuv"
    raw.write_bytes(b"")
    spec = SourceSpec(raw, format="raw-yuv", geometry=(4, 4), pixel_layout="y-only")
    with pytest.raises(GeometryError):
        list(load_frame_sequence(spec))


# --- PGM sequences -------------------------------------------------------------


def _write_pgm(path, grid, comment=False):
    height, width = grid.shape
    header = b"P5\n"
    if comment:
        header += b"# synthetic test frame\n"
    header += b"%d %d\n255\n" % (width, height)
    path.write_bytes(header + grid.astype(np.uint8).tobytes())


def test_pgm_sequence_sorted_with_comments(tmp_path):
    grids = [np.full((4, 5), i * 3, dtype=np.uint8) for i in range(3)]
    # Write out of order; globbing sorts by name.
    _write_pgm(tmp_path / "frame_0002.pgm", grids[2])
    _write_pgm(tmp_path / "frame_0000.pgm", grids[0], comment=True)
    _write_pgm(tmp_path / "frame_0001.pgm", grids[1])
    frames = list(load_frame_sequence(SourceSpec(tmp_path, format="image-sequence")))
    assert [f.frame_index for f in frames] == [0, 1, 2]
    for frame, grid in zip(frames, grids):
        assert np.array_equal(frame.samples, grid)


def test_pgm_rejects_ascii_variant(tmp_path):
    (tmp_path / "a.pgm").write_bytes(b"P2\n4 4\n255\n" + b"0 " * 16)
    with pytest.raises(FrameSourceError):
        list(load_frame_sequence(SourceSpec(tmp_path, format="image-sequence")))


def test_pgm_rejects_sixteen_bit(tmp_path):
    (tmp_path / "a.pgm").write_bytes(b"P5\n4 4\n65535\n" + bytes(32))
    with pytest.raises(FrameSourceError):
        list(load_frame_sequence(SourceSpec(tmp_path, format="image-sequence")))


def test_pgm_rejects_truncated_pixels(tmp_path):
    (tmp_path / "a.pgm").write_bytes(b"P5\n4 4\n255\n" + bytes(9))
    with pytest.raises(FrameSourceError):
        list(load_frame_sequence(SourceSpec(tmp_path, format="image-sequence")))


@pytest.mark.parametrize(
    "header",
    [b"P5\n4 4\n0\n", b"P5\n4 4\n255x"],
    ids=["maxval-0", "no-whitespace-after-maxval"],
)
def test_pgm_rejects_malformed_maxval(tmp_path, header):
    (tmp_path / "a.pgm").write_bytes(header + bytes(16))
    with pytest.raises(FrameSourceError):
        list(load_frame_sequence(SourceSpec(tmp_path, format="image-sequence")))


def test_pgm_ignores_bytes_after_the_payload(tmp_path):
    grid = np.arange(16, dtype=np.uint8).reshape(4, 4)
    (tmp_path / "a.pgm").write_bytes(b"P5\n4 4\n255\n" + grid.tobytes() + b"P5\n4 4\n255\n" + bytes(16))
    (frame,) = load_frame_sequence(SourceSpec(tmp_path, format="image-sequence"))
    assert np.array_equal(frame.samples, grid)


def test_pgm_sequence_requires_consistent_geometry(tmp_path):
    _write_pgm(tmp_path / "a.pgm", np.zeros((4, 4), dtype=np.uint8))
    _write_pgm(tmp_path / "b.pgm", np.zeros((4, 6), dtype=np.uint8))
    with pytest.raises(GeometryError):
        list(load_frame_sequence(SourceSpec(tmp_path, format="image-sequence")))


def test_pgm_empty_directory_is_an_error(tmp_path):
    with pytest.raises(FrameSourceError):
        list(load_frame_sequence(SourceSpec(tmp_path, format="image-sequence")))


def test_pgm_directory_must_exist(tmp_path):
    with pytest.raises(FrameSourceError):
        list(load_frame_sequence(SourceSpec(tmp_path / "nope", format="image-sequence")))


# --- frame and spec validation --------------------------------------------------


def test_luma_frame_validation():
    with pytest.raises(GeometryError):
        LumaFrame(2, 2, np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(GeometryError):
        LumaFrame(4, 4, np.zeros((4, 5), dtype=np.uint8))
    frame = LumaFrame(4, 3, np.zeros((3, 4), dtype=np.int64))
    assert frame.samples.dtype == np.uint8  # coerced


def test_source_spec_validation():
    with pytest.raises(FrameSourceError):
        SourceSpec("x.y4m", format="avi")
    with pytest.raises(FrameSourceError):
        SourceSpec("x.yuv", format="raw-yuv", pixel_layout="nv12")
