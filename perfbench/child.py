"""Closed-loop runner: one caller runs a workload's CLI pipeline again and
again through ``artifact.cli.main``, in this fresh single-threaded process.

Usage: python3 perfbench/child.py PLAN_JSON RESULT_JSON

The plan names the CLI steps of one iteration, the seconds to measure and
whether to trace.  The first iteration is the warm-up; timing stops once
``seconds`` of measured iterations have run (at least ``min_iterations``).
A traced plan alternates untraced and traced iterations, so the tracing
overhead is measured in the same process.  Before and after each measured
iteration the host's speed is probed in a helper process
(``hostspeed.Prober``), so the probe's memory stays out of this process's
peak.  This process and the helper are pinned to one CPU, so the probe
times the core the workload runs on.  The result records, per iteration,
each step's wall time, exit status and output SHA-256 and the mean of the
host slowdowns probed just before and just after it; then the process's
peak RSS, and the spans and counts of the traced iterations.
Each distinct output is kept under the plan's ``outputs`` directory, named
by its hash, for the parent to check.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import hostspeed

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_cli():
    sys.path.insert(0, str(SRC))
    import artifact
    from artifact import cli

    if Path(artifact.__file__).resolve().parent != SRC / "artifact":
        raise SystemExit(f"imported artifact from {artifact.__file__}, not from {SRC}")
    return cli


def peak_rss_kb() -> int:
    """Peak resident set size of this process, in KiB.

    Linux carries the parent's peak into ``ru_maxrss`` across the exec that
    started this process, so the high-water mark of this process's own
    address space (VmHWM) is read first.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def pin_to_one_cpu() -> int | None:
    """Pin this process, and the processes it starts, to the CPU it is on.

    Returns that CPU, or None where affinity cannot be set.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    try:
        with open("/proc/self/stat") as stat:
            cpu = int(stat.read().rsplit(")", 1)[1].split()[36])  # field 39, "processor"
    except (OSError, IndexError, ValueError):
        cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _exit_code(exc: SystemExit) -> int:
    return exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)


def run_iteration(cli, steps: list[dict], outputs: Path, tracer=None) -> dict:
    """Run every step once; a step that raises ends the iteration."""
    record = {"walls": [], "codes": [], "hashes": [None] * len(steps),
              "error": None, "traced": tracer is not None}
    for index, step in enumerate(steps):
        out = Path(step["out"])
        out.unlink(missing_ok=True)
        start = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(step["argv"])
            else:
                with tracer.span("cli.main"):
                    code = cli.main(step["argv"])
        except SystemExit as exc:
            code = _exit_code(exc)
        except Exception:  # a crash is a failed run, recorded and reported
            record["error"] = traceback.format_exc()
            code = None
        record["walls"].append(time.perf_counter() - start)
        record["codes"].append(code)
        if out.is_file():
            data = out.read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            record["hashes"][index] = digest
            kept = outputs / digest
            if not kept.exists():
                kept.write_bytes(data)
        if code != 0:
            break
    return record


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    cpu = pin_to_one_cpu()
    cli = _import_cli()
    outputs = Path(plan["outputs"])
    outputs.mkdir(parents=True, exist_ok=True)
    tracer = patches = None
    if plan["trace"]:
        import spans

        tracer = spans.Tracer()
        patches = spans.layer_patches(tracer)

    iterations = [run_iteration(cli, plan["steps"], outputs)]  # warm-up
    measured = 0.0
    with hostspeed.Prober(plan["probe"]) as prober:
        before = prober.slowdown()
        while True:
            count = len(iterations) - 1
            if count >= plan["min_iterations"] and measured + measured / count > plan["seconds"]:
                break
            start = time.perf_counter()
            if tracer is not None and count % 2 == 1:
                tracer.run = len(iterations)
                with spans.patched(patches):
                    iterations.append(run_iteration(cli, plan["steps"], outputs, tracer))
            else:
                iterations.append(run_iteration(cli, plan["steps"], outputs))
            measured += time.perf_counter() - start
            after = prober.slowdown()
            iterations[-1]["slowdown"] = (before + after) / 2
            before = after

    result = {
        "iterations": iterations,
        "peak_rss_kb": peak_rss_kb(),
        "cpu": cpu,
        "spans": tracer.spans if tracer else [],
        "counts": {str(run): names for run, names in tracer.counts.items()} if tracer else {},
    }
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
