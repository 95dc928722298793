"""Cordial benchmark: one command for the ``serve`` and ``fleet`` workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; timings
are gated at the reference machine speed (see ``pace.py``) and printed
as measured too.
``--trace 1`` is a separate run that wraps the public callables of each
layer from the benchmark's own files (see ``spans.py``), reports the
per-layer ledger and writes it, with a Chrome trace, under ``--out``.

Standard output carries one report line per metric, each with its unit
and sample count, then the fixed-field run record, and as its last line
one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The run exits non-zero when an output check fails (see ``gate.py``),
when the program under test is missing, and, for ``fleet``, on a machine
with fewer than two cores, after recording ``skipped: cores=N``.
Self-tests: ``python -m pytest perfbench``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUT = ROOT / ".perfbench"

#: Numeric libraries must not start thread pools of their own: the
#: fleet workload's worker processes are the only parallelism measured.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

RECORD_FIELDS = ("workload", "seed", "seconds", "trace", "scale", "commit",
                 "dirty", "code_sha256", "nproc", "python", "numpy",
                 "threads", "train_seed", "train_scale", "serve_scale", "model",
                 "shards", "workers", "skipped")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("serve", "fleet"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="minimum measured time; whole replays of the "
                             "log repeat until it is reached")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplier on both fleet scales (self-tests "
                             "use a small one; golden digests need 1.0)")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="directory for run records, traces and the "
                             "serving-digest cross-check")
    return parser.parse_args(argv)


def cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def git_state():
    """``(commit, dirty)`` of the checkout, or ``(None, None)`` outside git."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
            check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return None, None
    return commit, bool(status.strip())


def run_record(args, skipped=None) -> dict:
    import gate
    import numpy
    import workloads

    commit, dirty = git_state()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "commit": commit,
        "dirty": dirty,
        "code_sha256": gate.code_id(ROOT),
        "nproc": cores(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {name: os.environ.get(name) for name in THREAD_ENV},
        "train_seed": workloads.TRAIN_SEED,
        "train_scale": workloads.TRAIN_SCALE * args.scale,
        "serve_scale": workloads.SERVE_SCALE * args.scale,
        "model": workloads.MODEL,
        "shards": workloads.FLEET_SHARDS if args.workload == "fleet" else None,
        "workers": (workloads.FLEET_WORKERS if args.workload == "fleet"
                    else 1),
        "skipped": skipped,
    }
    assert tuple(record) == RECORD_FIELDS
    return record


def write_record(args, record: dict) -> Path:
    runs = args.out / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    path = runs / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                   ".json")
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print("record: " + json.dumps(record, sort_keys=True), flush=True)
    return path


def stop_children() -> None:
    """Stop every process the run started and wait until each has ended.

    Besides the fleet's workers (joined by ``engine.close``), spawning a
    process starts multiprocessing's resource tracker, which would
    otherwise outlive this process: it is only told to stop when the
    interpreter's last descriptor to it closes, after exit, and nobody
    then waits for it.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=5)
        if child.is_alive():
            child.kill()
            child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def format_line(name: str, value: float, unit: str, detail: str) -> str:
    if unit == "sha256":
        return f"{name:<32} {detail}"
    text = f"{name:<32} {value:>14.6g} {unit:<6}"
    return f"{text} ({detail})" if detail else text


def main(argv=None) -> int:
    args = parse_args(argv)
    for name in THREAD_ENV:
        os.environ[name] = "1"
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    args.out = args.out.resolve()

    import workloads

    if args.workload == "fleet" and cores() < workloads.FLEET_WORKERS:
        write_record(args, run_record(args, skipped=f"cores={cores()}"))
        print(f"perfbench: fleet skipped: cores={cores()}", file=sys.stderr)
        return 3

    ctx = workloads.Context(seed=args.seed, seconds=args.seconds,
                            scale=args.scale, out_dir=args.out, root=ROOT)
    try:
        outcome = workloads.WORKLOADS[args.workload](ctx, bool(args.trace))
    except Exception:  # noqa: BLE001 - reported as a failed run below
        traceback.print_exc()
        outcome = workloads.Outcome()
        outcome.check("run_completed", False, "the workload raised")
    finally:
        stop_children()

    for line in outcome.report:
        print(format_line(*line))
    failure_ratio = outcome.failed / max(outcome.attempted, 1)
    print(format_line("failure_ratio", failure_ratio, "ratio",
                      f"{outcome.failed} of {outcome.attempted} operations"))
    for name, ok, detail in outcome.checks:
        print(f"check {name:<26} {'ok' if ok else 'FAILED'} ({detail})")
    for kind, path in sorted(outcome.artifacts.items()):
        print(f"artifact {kind:<23} {path}")
    write_record(args, run_record(args))
    metrics = {} if not outcome.correct else {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in outcome.metrics.items()}
    print(json.dumps({"correct": outcome.correct,
                      "attempted": max(outcome.attempted, 1),
                      "failed": outcome.failed,
                      "metrics": metrics}), flush=True)
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
