"""In-memory span tracing around the package's layer functions.

A traced run rebinds the layer functions, as the modules that call them
see them, to wrappers that record a span per call and count the work done
at the same place.  Nothing under ``src/`` is edited.  Spans stay in memory
and are written out once, when the run ends.

A span is ``[name, start, end, parent, run]``: ``parent`` is the index of
the enclosing span in the list (-1 for a root) and ``run`` identifies the
iteration it belongs to.  A span's self time is its duration minus the
durations of its direct children; calls are synchronous and
single-threaded, so children never overlap one another.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Spans and counts of one process, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, dict[str, float]]] = {}
        self.run = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, self.run]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, **amounts: float) -> None:
        totals = self.counts.setdefault(self.run, {}).setdefault(name, {})
        for key, value in amounts.items():
            totals[key] = totals.get(key, 0) + value


def _pixels(args, result) -> dict:
    return {"pixels": args[0].width * args[0].height}


def _sweep_counts(args, geometry) -> dict:
    # The sweep reads every shift up to max_shift; only the shifts up to the
    # period it reports were needed (all of them when it finds none).
    swept = len(geometry.width_scores) + len(geometry.height_scores)
    useful = sum(len(scores) if period is None else period
                 for period, scores in ((geometry.period_width, geometry.width_scores),
                                        (geometry.period_height, geometry.height_scores)))
    return {"swept": swept, "useful": useful}


def _timed(tracer: Tracer, name: str, fn, counter=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        tracer.count(name, calls=1, **(counter(args, result) if counter else {}))
        return result
    return wrapper


def _timed_frames(tracer: Tracer, name: str, fn):
    """Wrap a frame generator: one span per frame pulled from it."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frames = iter(fn(*args, **kwargs))
        while True:
            with tracer.span(name):
                frame = next(frames, None)
            if frame is None:
                return
            tracer.count(name, frames=1, pixels=frame.width * frame.height,
                         bytes=frame.samples.nbytes)
            yield frame
    return wrapper


def _counted(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(name, calls=1)
        return fn(*args, **kwargs)
    return wrapper


FRAMES = "frames"  # a frame generator: one span per frame pulled
COUNT_ONLY = "count"  # too fine-grained to time call by call: calls are only counted

# (module, function, span name, counter).  Each function is rebound in the
# module that calls it, because those modules bind the names at import.
LAYERS = [
    ("cli", "load_frame_sequence", "frame_io.decode", FRAMES),
    ("temporal_detect", "kirsch_gradient", "gradient.kirsch", _pixels),
    ("temporal_detect", "accumulate_buckets", "blockiness.buckets", None),
    ("temporal_detect", "blockiness_measure", "blockiness.buckets", None),
    # detect_sequence's own time is the window statistics and the verdicts;
    # decoding, Kirsch and buckets run inside it as child spans.
    ("cli", "detect_sequence", "temporal_detect.window", None),
    ("cli", "write_report", "report.write", lambda args, text: {"bytes": len(text)}),
    ("cli", "parse_report", "report.parse", lambda args, report: {"bytes": len(args[0])}),
    ("seba", "sobel_gradient", "gradient.sobel", _pixels),
    ("seba", "direction_grid", "gradient.direction_grid", None),
    ("seba", "accumulate_ems", "seba.ems", None),
    ("seba", "direction_histogram", "seba.histogram", None),
    ("seba", "classify_block", "seba.classify", None),
    ("seba", "rotation_offset", "seba.classify", None),
    # The sweep's span holds its matching_score calls, which are counted.
    ("seba", "pattern_dimensions", "seba.sweep", _sweep_counts),
    ("seba", "matching_score", "seba.match", COUNT_ONLY),
]


def layer_patches(tracer: Tracer) -> list[tuple[object, str, object]]:
    """(module, attribute, wrapper) for every layer boundary in LAYERS.

    A function a module no longer has raises LookupError, which fails the
    traced run: skipping it would read as zero time, a false gain, so a
    renamed layer has to be re-pointed in LAYERS.
    """
    patches = []
    for module_name, attr, name, counter in LAYERS:
        module = importlib.import_module(f"artifact.{module_name}")
        if not hasattr(module, attr):
            raise LookupError(f"artifact.{module_name} has no {attr}; "
                              f"re-point span {name} in perfbench/spans.py LAYERS")
        fn = getattr(module, attr)
        if counter == FRAMES:
            wrapper = _timed_frames(tracer, name, fn)
        elif counter == COUNT_ONLY:
            wrapper = _counted(tracer, name, fn)
        else:
            wrapper = _timed(tracer, name, fn, counter)
        patches.append((module, attr, wrapper))
    return patches


@contextmanager
def patched(patches: list[tuple[object, str, object]]):
    """Rebind every patched attribute for the duration of the block."""
    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
    try:
        for module, attr, wrapper in patches:
            setattr(module, attr, wrapper)
        yield
    finally:
        for module, attr, original in originals:
            setattr(module, attr, original)


def span_self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, run in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return [(end - start) - child
            for (name, start, end, parent, run), child in zip(spans, child_time)]


def self_times(spans: list[list]) -> dict[int, dict[str, float]]:
    """Seconds of self time per run and span name."""
    totals: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for (name, start, end, parent, run), own in zip(spans, span_self_times(spans)):
        totals[run][name] += own
    return {run: dict(names) for run, names in totals.items()}


def accounting_errors(spans: list[list], walls: dict[int, float],
                      tolerance: float = 0.01) -> list[str]:
    """Where the spans plus the CLI's own time fail to add up to the wall.

    ``walls`` is each traced run's wall time, measured outside the spans.
    Summed over a run, the self times of all its spans (the root's self
    time is the CLI's own) must match that wall within ``tolerance`` of it,
    and no span may have negative self time.

    This checks only that spans nest and that the root covers the wall.
    It cannot see time a layer spends outside every wrapper: that time is
    counted as the CLI's own (``cli.self``), which is why LAYERS must name
    every layer boundary and a missing one fails the run.
    """
    errors = []
    accounted = defaultdict(float)
    for (name, start, end, parent, run), own in zip(spans, span_self_times(spans)):
        accounted[run] += own
        if own < -1e-6:
            errors.append(f"run {run}: span {name} has negative self time {own:.6f} s")
    for run, wall in walls.items():
        if abs(wall - accounted[run]) > tolerance * wall:
            errors.append(f"run {run}: spans explain {accounted[run]:.6f} s of {wall:.6f} s")
    return errors
