"""The repository benchmark: run one workload and print its metrics.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of detect-hd, seba-cif, detect-qcif-y4m, or ``all`` for every
workload in turn.  The seed fixes the corpus.  Each workload is one CLI
pipeline, run in a closed loop by one caller in a fresh single-threaded
child process (``child.py``) for S seconds after a warm-up iteration.

With ``--trace 0`` the metrics are end to end: scaled_frames_per_s (the
median over iterations of each iteration's frames/s scaled to a reference
host speed by the hostspeed.py probes run just before and after it),
peak_rss_mb (the child's peak resident set), setup_s (the median cost of
a fresh interpreter running a one-frame 64x64 CLI call, each launch
scaled by a bare ``python -c "import numpy"`` launched just before it),
truth_match (share of ground-truth checks passed) and success_rate
(1 - error_rate).  The raw frames/s and setup seconds are printed and
saved next to them.  With
``--trace 1`` the child alternates untraced and traced iterations and the
metrics are per layer: self time per frame, counts per frame, the period
sweep's useful share and the tracing overhead.

Every run's outputs are checked against the corpus's ground truth and
against the first run's bytes.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  The exit
status is 1 when any check fails, and 2 when the package cannot be found.
Corpora live under .perfbench_work/ at the repository root and are
removed afterwards; each run's full results (output SHA-256s, every
sample, the environment and, when traced, the spans) are kept under
.perfbench_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_LAUNCHES = 12
# setup_s reads in seconds on a host where the baseline launch takes this long.
BASELINE_REFERENCE_S = 0.150
BASELINE_ARGV = ("-c", "import numpy")
TIMEOUT_S = 60  # per setup launch, and for the child beyond --seconds
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {
    "scaled_frames_per_s": "frames/s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "truth_match": "ratio",
    "success_rate": "ratio",
}

# Per-layer self times per frame: metric name -> span name.
LAYER_TIMES = {
    "gradient.kirsch_ms_per_frame": "gradient.kirsch",
    "blockiness.buckets_ms_per_frame": "blockiness.buckets",
    "frame_io.decode_ms_per_frame": "frame_io.decode",
    "temporal_detect.window_ms_per_frame": "temporal_detect.window",
    "report.write_ms_per_frame": "report.write",
    "report.parse_ms_per_frame": "report.parse",
    "seba.sweep_ms_per_frame": "seba.sweep",
    "gradient.sobel_ms_per_frame": "gradient.sobel",
    "gradient.direction_grid_ms_per_frame": "gradient.direction_grid",
    "seba.ems_ms_per_frame": "seba.ems",
    "seba.histogram_ms_per_frame": "seba.histogram",
    "seba.classify_ms_per_frame": "seba.classify",
    "cli.self_ms_per_frame": "cli.main",
}
# Per-layer counts per frame: metric name -> (span or counter name, counter).
LAYER_COUNTS = {
    "seba.match_calls_per_frame": ("seba.match", "calls"),
    "gradient.direction_grid_calls_per_frame": ("gradient.direction_grid", "calls"),
}


def _thread_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def environment() -> dict:
    import numpy

    model = ""
    try:
        with open("/proc/cpuinfo") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


# --- running ------------------------------------------------------------------


def _launch(argv: list[str], work: Path) -> tuple[int | None, float]:
    """Exit status (None on timeout) and wall seconds of one fresh interpreter."""
    start = time.perf_counter()
    try:
        code = subprocess.run([sys.executable, *argv], cwd=work, env=_thread_env(),
                              capture_output=True, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        code = None
    return code, time.perf_counter() - start


def measure_setup(corpus, work: Path, launches: int) -> tuple[list[dict], dict[str, bytes]]:
    """Fresh interpreters each running the one-frame setup call.

    Each launch follows a baseline launch (BASELINE_ARGV), whose wall time
    is kept with it, so the host's speed at that moment can be divided out.
    Returns one record per launch, shaped like the child's iteration
    records, and the bytes of each distinct output by SHA-256.
    """
    records, outputs = [], {}
    out = work / corpus.setup.out
    for _ in range(launches):
        out.unlink(missing_ok=True)
        baseline_code, baseline = _launch(list(BASELINE_ARGV), work)
        code, wall = _launch(["-m", "artifact.cli", *corpus.setup.argv], work)
        digest = None
        if out.is_file():
            data = out.read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            outputs[digest] = data
        error = None if baseline_code == 0 else f"baseline launch exited {baseline_code}"
        records.append({"walls": [wall], "codes": [code], "hashes": [digest], "error": error,
                        "baseline": baseline})
    return records, outputs


def run_child(corpus, work: Path, seconds: float, trace: bool) -> dict:
    plan = {
        "steps": [{"argv": step.argv, "out": step.out} for step in corpus.steps],
        "seconds": seconds,
        "min_iterations": 2 if trace else 3,
        "probe": corpus.probe,
        "trace": trace,
        "outputs": str(work / "outputs"),
    }
    plan_path, result_path = work / "plan.json", work / "result.json"
    plan_path.write_text(json.dumps(plan))
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(plan_path),
                               str(result_path)], cwd=work, env=_thread_env(),
                              capture_output=True, timeout=seconds + TIMEOUT_S)
        error = proc.stderr.decode("utf-8", "replace")[-4000:] or f"child exited {proc.returncode}"
    except subprocess.TimeoutExpired:
        proc, error = None, f"child still running after {seconds + TIMEOUT_S} s; killed"
    if proc is None or proc.returncode != 0 or not result_path.is_file():
        return {"iterations": [], "peak_rss_kb": 0, "spans": [], "counts": {}, "child_error": error}
    return json.loads(result_path.read_text())


# --- judging ------------------------------------------------------------------


def judge(steps, truth: dict, iterations: list[dict],
          read_output) -> tuple[list[bool], list[tuple[str, bool]]]:
    """Per-iteration pass/fail, and every ground-truth check made.

    An iteration fails if a step exits non-zero or raises, if a truth
    check on its outputs fails, or if its output bytes differ from the
    first iteration's.  ``read_output(hash)`` returns the bytes kept for a
    hash.
    """
    import workloads

    first = iterations[0]["hashes"] if iterations else None
    cache: dict[tuple, list[tuple[str, bool]]] = {}
    passed, checks = [], []
    for record in iterations:
        key = tuple(record["hashes"])
        if key not in cache:
            outputs = [None if digest is None else read_output(digest) for digest in key]
            cache[key] = workloads.check_outputs(steps, outputs, truth)
        checks.extend(cache[key])
        ok = (record["error"] is None
              and len(record["codes"]) == len(steps)
              and all(code == 0 for code in record["codes"])
              and all(result for _, result in cache[key])
              and record["hashes"] == first)
        passed.append(ok)
    return passed, checks


def end_to_end_metrics(corpus, child: dict, setup: list[dict],
                       passed: list[bool], checks: list[tuple[str, bool]]) -> tuple[dict, dict]:
    """The end-to-end values, and the raw figures behind the scaled ones.

    Each measured iteration's rate is multiplied by the host slowdown
    probed around it (see hostspeed.py), and each setup launch is
    divided by the baseline launch just before it, so a slow spell on a
    shared host does not read as a regression.  The scaled figures are the
    medians of those per-sample products.
    """
    measured = [record for record in child["iterations"][1:]
                if record["walls"] and sum(record["walls"]) > 0]
    rates = [corpus.frames / sum(record["walls"]) for record in measured]
    scaled_rates = [rate * record["slowdown"] for rate, record in zip(rates, measured)]
    setup_walls = [launch["walls"][0] for launch in setup]
    scaled_setup = [launch["walls"][0] / launch["baseline"] * BASELINE_REFERENCE_S
                    for launch in setup if launch["baseline"] > 0]
    values = {
        "scaled_frames_per_s": statistics.median(scaled_rates) if scaled_rates else 0.0,
        "peak_rss_mb": child["peak_rss_kb"] / 1024.0,
        "setup_s": statistics.median(scaled_setup) if scaled_setup else 0.0,
        "truth_match": sum(ok for _, ok in checks) / len(checks) if checks else 0.0,
        "success_rate": sum(passed) / len(passed) if passed else 0.0,
    }
    raw = {
        "frames_per_s": {"unit": "frames/s", "values": rates},
        "setup_s": {"unit": "s", "values": setup_walls},
    }
    return values, raw


def layer_metrics(corpus, child: dict, gen_s: float) -> tuple[dict, list[str]]:
    import spans

    iterations = child["iterations"]
    traced = [i for i, record in enumerate(iterations) if record["traced"]]
    untraced = [i for i, record in enumerate(iterations[1:], start=1) if not record["traced"]]
    walls = {i: sum(iterations[i]["walls"]) for i in traced}
    errors = spans.accounting_errors(child["spans"], walls)
    selfs = spans.self_times(child["spans"])
    counts = {int(run): names for run, names in child["counts"].items()}

    def per_frame(values: list[float]) -> float:
        return statistics.median(values) / corpus.frames if values else 0.0

    metrics = {}
    for metric, name in LAYER_TIMES.items():
        metrics[metric] = 1000.0 * per_frame([selfs.get(i, {}).get(name, 0.0) for i in traced])
    for metric, (name, counter) in LAYER_COUNTS.items():
        metrics[metric] = per_frame([counts.get(i, {}).get(name, {}).get(counter, 0)
                                     for i in traced])
    sweeps = [counts.get(i, {}).get("seba.sweep", {}) for i in traced]
    ratios = [sweep["useful"] / sweep["swept"] for sweep in sweeps if sweep.get("swept")]
    metrics["seba.sweep_useful_ratio"] = statistics.median(ratios) if ratios else 0.0
    metrics["synth.generate_ms_per_frame"] = 1000.0 * gen_s / corpus.frames
    traced_wall = statistics.median([walls[i] for i in traced]) if traced else 0.0
    plain_wall = statistics.median([sum(iterations[i]["walls"]) for i in untraced]) if untraced else 0.0
    metrics["trace.overhead_ratio"] = traced_wall / plain_wall - 1.0 if plain_wall else 0.0
    if not traced:
        errors.append("no traced iteration ran")
    return metrics, errors


LAYER_UNITS = {
    **{metric: "ms/frame" for metric in LAYER_TIMES},
    **{metric: "calls/frame" for metric in LAYER_COUNTS},
    "seba.sweep_useful_ratio": "ratio",
    "synth.generate_ms_per_frame": "ms/frame",
    "trace.overhead_ratio": "ratio",
}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, work_root: Path,
                 tiny: bool = False, setup_launches: int = SETUP_LAUNCHES) -> dict:
    """One benchmark run: build the corpus, measure, check, and summarise."""
    import workloads

    work = work_root / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        start = time.perf_counter()
        corpus = workloads.build(workload, seed, work, tiny=tiny)
        gen_s = time.perf_counter() - start
        setup, setup_outputs = ([], {}) if trace else measure_setup(corpus, work, setup_launches)
        child = run_child(corpus, work, seconds, trace)
        passed, checks = judge(corpus.steps, corpus.truth, child["iterations"],
                               lambda digest: (work / "outputs" / digest).read_bytes())
        problems = [child["child_error"]] if "child_error" in child else []
        if not trace:
            setup_passed, setup_checks = judge([corpus.setup], workloads.SETUP_TRUTH, setup,
                                               setup_outputs.__getitem__)
            passed, checks = passed + setup_passed, checks + setup_checks
            values, raw = end_to_end_metrics(corpus, child, setup, passed, checks)
            units = END_TO_END
        else:
            values, trace_errors = layer_metrics(corpus, child, gen_s)
            problems += trace_errors
            raw, units = {}, LAYER_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed_checks = sorted({name for name, ok in checks if not ok})
    failed = passed.count(False) + (1 if "child_error" in child else 0)
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": failed == 0 and not failed_checks and not problems and bool(passed),
        "attempted": max(len(passed), 1),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        "raw": raw,
        "frames_per_iteration": corpus.frames,
        "iterations": len(child["iterations"]),
        "pinned_cpu": child.get("cpu"),
        "output_sha256": {step.out: digest for step, digest in
                          zip(corpus.steps, child["iterations"][0]["hashes"])}
                         if child["iterations"] else {},
        "failed_checks": failed_checks,
        "problems": problems,
        "samples": {"walls": [record["walls"] for record in child["iterations"]],
                    "slowdowns": [record.get("slowdown") for record in child["iterations"]],
                    "setup_walls": [launch["walls"][0] for launch in setup],
                    "baseline_walls": [launch["baseline"] for launch in setup]},
        "spans": child["spans"],
    }


# --- reporting ----------------------------------------------------------------


def _print_summary(result: dict) -> None:
    print(f"workload {result['workload']} seed {result['seed']} "
          f"trace {int(result['trace'])}: {result['iterations']} iterations of "
          f"{result['frames_per_iteration']} frames, "
          f"{result['failed']}/{result['attempted']} runs failed "
          f"(error_rate {result['failed'] / result['attempted']:.6g})")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    for name, figure in result["raw"].items():
        if figure["values"]:
            q1, q2, q3 = _quartiles(figure["values"])
            print(f"  {name} (raw, unscaled) = {q2:.6g} {figure['unit']}  "
                  f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(figure['values'])})")
    for out, digest in result["output_sha256"].items():
        print(f"  sha256 {out} {digest}")
    for name in result["failed_checks"]:
        print(f"  FAILED CHECK: {name}")
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}")


def _save(result: dict, work_root: Path, env: dict) -> None:
    results = work_root / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{result['workload']}-seed{result['seed']}-trace{int(result['trace'])}"
    spans_list = result.pop("spans")
    (results / f"{stem}.json").write_text(json.dumps({**result, "environment": env}, indent=1))
    if spans_list:
        (results / f"{stem}.spans.json").write_text(json.dumps(spans_list))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "artifact" / "__init__.py").is_file():
        print(f"perfbench: the artifact package is not at {SRC / 'artifact'}", file=sys.stderr)
        return 2
    for name in THREAD_VARS:
        os.environ[name] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if any(name not in workloads.WORKLOADS for name in names):
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)} or all")

    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), WORK)
        _print_summary(result)
        _save(result, WORK, env)
        results.append(result)

    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else f"{result['workload']}."
        metrics.update({prefix + name: metric for name, metric in result["metrics"].items()})
    summary = {
        "correct": all(result["correct"] for result in results),
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
