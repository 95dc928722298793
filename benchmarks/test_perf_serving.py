"""Perf smoke test of the hardened online serving path.

Streams the benchmark fleet's test split through ``CordialService``
twice — in order with no reorder buffer, and shuffled through a
``max_skew`` window — and records both throughputs plus the
checkpoint save/restore latency to a ``BENCH_serving.json`` artifact.
The reorder buffer must not cost more than a small multiple of the
in-order path, and a checkpoint round-trip must stay sub-second at this
scale.

Tunables: ``REPRO_BENCH_SCALE`` / ``REPRO_BENCH_SEED`` (shared with the
other benches via ``conftest``), ``REPRO_PERF_SERVING_OUTPUT`` (default
``BENCH_serving.json`` in the working directory).
"""

import json
import os
import time

from repro.core.online import CordialService
from repro.core.persistence import (load_service_checkpoint,
                                    save_service_checkpoint)
from repro.experiments.serve import bounded_shuffle
from repro.serving import serve

PERF_OUTPUT = os.environ.get("REPRO_PERF_SERVING_OUTPUT",
                             "BENCH_serving.json")

#: Reorder-buffer staging may cost this multiple of the in-order path.
REORDER_OVERHEAD_TOLERANCE = 5.0
MAX_SKEW = 3600.0


def test_serving_throughput_and_checkpoint_latency(context, tmp_path):
    cordial = context.model("LightGBM")
    _, test_banks = context.split
    test_set = set(test_banks)
    stream = [r for r in context.dataset.store if r.bank_key in test_set]

    in_order = CordialService(cordial)
    start = time.perf_counter()
    decisions = serve(in_order, stream)[1].decisions
    t_in_order = time.perf_counter() - start

    shuffled = bounded_shuffle(stream, MAX_SKEW, seed=1)
    reordered = CordialService(cordial, max_skew=MAX_SKEW)
    start = time.perf_counter()
    reordered_decisions = serve(reordered, shuffled)[1].decisions
    t_reordered = time.perf_counter() - start

    path = str(tmp_path / "bench.ckpt.json")
    start = time.perf_counter()
    save_service_checkpoint(reordered, path)
    t_save = time.perf_counter() - start
    start = time.perf_counter()
    restored = load_service_checkpoint(path)
    t_restore = time.perf_counter() - start

    record = {
        "events": len(stream),
        "decisions": len(decisions),
        "in_order_s": round(t_in_order, 3),
        "reordered_s": round(t_reordered, 3),
        "events_per_s_in_order": round(len(stream) / t_in_order, 1),
        "events_per_s_reordered": round(len(stream) / t_reordered, 1),
        "checkpoint_save_s": round(t_save, 3),
        "checkpoint_restore_s": round(t_restore, 3),
        "checkpoint_bytes": os.path.getsize(path),
    }
    with open(PERF_OUTPUT, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(f"\nserving path: {record}")

    # The perf claim never compromises the equivalence contract.
    assert len(reordered_decisions) == len(decisions)
    assert restored.stats.to_dict() == reordered.stats.to_dict()
    assert t_reordered <= t_in_order * REORDER_OVERHEAD_TOLERANCE, (
        f"reorder buffer too slow: {t_reordered:.2f}s vs in-order "
        f"{t_in_order:.2f}s (timings in {PERF_OUTPUT})")
