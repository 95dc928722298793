"""Perf smoke test of the chaos harness.

Measures what the harness itself costs on top of a plain serve: one
clean serve of the benchmark test split, the same stream through the
full operator pipeline, and a faulted serve with kill/restore plus
tamper trials.  Writes a ``BENCH_chaos.json`` artifact so CI can track
the campaign's per-run cost over time.

The harness is test scaffolding, not a production path, so the bound is
generous — but it must stay within a small multiple of the serve it
wraps, or chaos campaigns silently become the slowest thing in CI.

Tunables: ``REPRO_BENCH_SCALE`` / ``REPRO_BENCH_SEED`` (shared via
``conftest``), ``REPRO_PERF_CHAOS_OUTPUT`` (default ``BENCH_chaos.json``
in the working directory).
"""

import json
import os
import time

import numpy as np

from repro.chaos import KillHook, default_plan
from repro.chaos.campaign import perturb_stream
from repro.core.online import CordialService
from repro.serving import serve

PERF_OUTPUT = os.environ.get("REPRO_PERF_CHAOS_OUTPUT", "BENCH_chaos.json")

#: A faulted serve (operators + kills + tampering) may cost this multiple
#: of the clean serve it wraps.
HARNESS_OVERHEAD_TOLERANCE = 12.0
MAX_SKEW = 3600.0


def test_chaos_harness_overhead(context, tmp_path):
    cordial = context.model("LightGBM")
    _, test_banks = context.split
    test_set = set(test_banks)
    stream = [r for r in context.dataset.store if r.bank_key in test_set]
    plan = default_plan(max_skew=MAX_SKEW, kills_per_run=2)

    clean = CordialService(cordial, max_skew=MAX_SKEW)
    start = time.perf_counter()
    serve(clean, stream)
    t_clean = time.perf_counter() - start

    root = np.random.SeedSequence(0)
    children = root.spawn(len(plan.operators) + 1)
    operator_rngs = [np.random.default_rng(c) for c in children[:-1]]
    fault_rng = np.random.default_rng(children[-1])

    start = time.perf_counter()
    perturbed, applied = perturb_stream(stream, plan, operator_rngs)
    t_operators = time.perf_counter() - start

    kill_points = sorted(int(k) for k in fault_rng.choice(
        np.arange(1, len(perturbed)), size=2, replace=False))
    start = time.perf_counter()
    hook = KillHook(fault_rng, tamper_modes=plan.tamper_modes)
    _, served = serve(
        CordialService(cordial, max_skew=MAX_SKEW), perturbed, kill_points,
        str(tmp_path / "bench-chaos.ckpt"), on_kill=hook)
    outcome = hook.outcome(served)
    t_faulted = time.perf_counter() - start

    record = {
        "events": len(stream),
        "perturbed_events": len(perturbed),
        "operators_applied": {op["name"]: op["applied"] for op in applied},
        "kills": len(kill_points),
        "restores": outcome.restore_count,
        "tamper_trials": len(outcome.tamper_trials),
        "clean_serve_s": round(t_clean, 3),
        "operator_pipeline_s": round(t_operators, 3),
        "faulted_serve_s": round(t_faulted, 3),
        "events_per_s_clean": round(len(stream) / t_clean, 1),
        "events_per_s_faulted": round(len(perturbed) / t_faulted, 1),
        "harness_overhead_x": round((t_operators + t_faulted)
                                    / max(t_clean, 1e-9), 2),
    }
    with open(PERF_OUTPUT, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(f"\nchaos harness: {record}")

    # The perf claim never compromises the fault contract.
    assert outcome.restore_count == len(kill_points)
    assert all(t.detected for t in outcome.tamper_trials)
    assert t_operators + t_faulted <= t_clean * HARNESS_OVERHEAD_TOLERANCE, (
        f"chaos harness too slow: operators {t_operators:.2f}s + faulted "
        f"serve {t_faulted:.2f}s vs clean {t_clean:.2f}s "
        f"(timings in {PERF_OUTPUT})")
