"""Tests of the benchmark itself: tiny runs, span arithmetic, output checks."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_is_correct_and_reports_every_metric(tmp_path, workload, trace):
    result = run.run_workload(workload, seed=5, seconds=0.2, trace=trace, work_root=tmp_path,
                              tiny=True, setup_launches=1)
    assert result["correct"], (result["failed_checks"], result["problems"])
    assert result["failed"] == 0 and result["attempted"] >= 3
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    if not trace:
        assert result["metrics"]["truth_match"]["value"] == 1.0
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not list(tmp_path.glob(f"{workload}-*")), "the corpus is removed after the run"


def test_workloads_match_the_benchmark_file():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_each_sample_is_scaled_by_its_own_host_reading():
    corpus = workloads.Corpus(frames=10, steps=[], setup=None, truth={}, probe="small-calls")
    iterations = [{"walls": [9.0]}] + [{"walls": [wall], "slowdown": slow}
                                       for wall, slow in ((5.0, 2.0), (4.0, 1.5), (2.0, 1.0))]
    child = {"iterations": iterations, "peak_rss_kb": 2048}
    setup = [{"walls": [wall], "baseline": base} for wall, base in ((0.4, 0.3), (0.2, 0.1),
                                                                     (0.3, 0.3))]
    values, raw = run.end_to_end_metrics(corpus, child, setup, [True], [("check", True)])
    # Paired products 4.0, 3.75 and 5.0, not the product of the medians (2.5 x 1.5).
    assert values["scaled_frames_per_s"] == pytest.approx(4.0)
    assert raw["frames_per_s"]["values"] == [2.0, 2.5, 5.0]
    # Ratios 4/3, 2 and 1 to the baseline, in seconds of the reference baseline.
    assert values["setup_s"] == pytest.approx(4 / 3 * run.BASELINE_REFERENCE_S)
    assert raw["setup_s"]["values"] == [0.4, 0.2, 0.3]
    assert values["peak_rss_mb"] == 2.0


def test_probes_are_fixed_work():
    import hostspeed

    for name in hostspeed.PROBES:
        assert hostspeed.slowdown(name, count=1) > 0


def test_prober_runs_the_probe_in_another_process():
    import hostspeed

    with hostspeed.Prober("small-calls") as prober:
        readings = [prober.slowdown(), prober.slowdown()]
        pid = prober._proc.pid
    assert all(reading > 0 for reading in readings)
    assert pid != os.getpid() and prober._proc.returncode == 0


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 9]
    trace = [["cli.main", 0.0, 10.0, -1, 1], ["a", 1.0, 4.0, 0, 1],
             ["b", 2.0, 3.0, 1, 1], ["c", 5.0, 9.0, 0, 1]]
    assert spans.span_self_times(trace) == [3.0, 2.0, 1.0, 4.0]
    assert spans.self_times(trace) == {1: {"cli.main": 3.0, "a": 2.0, "b": 1.0, "c": 4.0}}
    assert spans.accounting_errors(trace, {1: 10.0}) == []
    assert spans.accounting_errors(trace, {1: 11.0})  # a second the spans do not explain
    overlapping = trace + [["d", 1.0, 6.0, 1, 1]]  # a child outliving its parent
    assert any("negative" in error for error in spans.accounting_errors(overlapping, {1: 10.0}))


def test_tracer_records_parents_runs_and_counts():
    tracer = spans.Tracer()
    tracer.run = 7
    with tracer.span("cli.main"):
        with tracer.span("inner"):
            tracer.count("inner", calls=1, pixels=4)
        tracer.count("inner", calls=1)
    names = [(name, parent, run) for name, _, _, parent, run in tracer.spans]
    assert names == [("cli.main", -1, 7), ("inner", 0, 7)]
    assert tracer.counts == {7: {"inner": {"calls": 2, "pixels": 4}}}


def test_a_missing_layer_function_fails_the_traced_run(monkeypatch):
    from artifact import seba

    monkeypatch.delattr(seba, "direction_grid")
    with pytest.raises(LookupError, match="direction_grid"):
        spans.layer_patches(spans.Tracer())


def test_patched_restores_the_originals():
    from artifact import cli, seba

    before = (cli.load_frame_sequence, seba.matching_score)
    patches = spans.layer_patches(spans.Tracer())
    with spans.patched(patches):
        assert (cli.load_frame_sequence, seba.matching_score) != before
    assert (cli.load_frame_sequence, seba.matching_score) == before


def test_peak_rss_leaves_out_the_parents_peak():
    import resource

    import numpy as np

    ballast = np.ones(12_500_000)  # 100 MB resident in this process
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss > 100_000
    code = "import child; print(child.peak_rss_kb())"
    proc = subprocess.run([sys.executable, "-c", code], cwd=BENCH, capture_output=True,
                          text=True, timeout=60, check=True)
    del ballast
    assert 0 < int(proc.stdout) < 50_000


def test_y4m_writer_round_trips_through_the_reader(tmp_path):
    from artifact import synth
    from artifact.frame_io import SourceSpec, load_frame_sequence

    frames, _ = synth.make_test_sequence(3, {1}, seed=2, width=18, height=10)
    workloads.write_y4m(frames, tmp_path / "clip.y4m")
    read = list(load_frame_sequence(SourceSpec(tmp_path / "clip.y4m")))
    assert [f.samples.tobytes() for f in read] == [f.samples.tobytes() for f in frames]


def _detect_once(tmp_path, monkeypatch):
    from artifact import cli

    corpus = workloads.build("detect-hd", 3, tmp_path, tiny=True)
    monkeypatch.chdir(tmp_path)
    assert cli.main(corpus.steps[0].argv) == 0
    return corpus, (tmp_path / corpus.steps[0].out).read_bytes()


def _record(digest):
    return {"walls": [0.1], "codes": [0], "hashes": [digest], "error": None, "traced": False}


def test_corrupted_output_is_caught(tmp_path, monkeypatch):
    corpus, good = _detect_once(tmp_path, monkeypatch)
    burst = corpus.truth["distorted"][0]
    row = f'{{"frame": {burst}, '
    start = good.index(row.encode())
    end = good.index(b"}", start)
    corrupted = good[:start] + good[start:end].replace(b'"distorted"', b'"ok"') + good[end:]
    assert corrupted != good
    outputs = {"good": good, "bad": corrupted}
    passed, checks = run.judge(corpus.steps, corpus.truth,
                               [_record("good"), _record("bad"), _record("good")],
                               outputs.__getitem__)
    assert passed == [True, False, True]
    assert ("hd-report.json: recall = 1", False) in checks

    # Bytes that stay identical across runs still fail when they are wrong.
    passed, checks = run.judge(corpus.steps, corpus.truth, [_record("bad"), _record("bad")],
                               outputs.__getitem__)
    assert passed == [False, False]


def test_failed_and_missing_runs_count_as_failures(tmp_path, monkeypatch):
    corpus, good = _detect_once(tmp_path, monkeypatch)
    crashed = {**_record(None), "codes": [None], "error": "Traceback ..."}
    exited = {**_record("good"), "codes": [2]}
    passed, _ = run.judge(corpus.steps, corpus.truth, [_record("good"), crashed, exited],
                          {"good": good}.__getitem__)
    assert passed == [True, False, False]


def test_without_the_package_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "detect-hd",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
