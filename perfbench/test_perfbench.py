"""Self-tests of the benchmark: run with ``python -m pytest perfbench``.

Each workload runs at a quarter of its fleet scales (about 15 s each) and
must print every metric ``BENCHMARK.json`` names, with its unit, and no
failed operation.  The negative tests show that a perturbed decision
list, or a serving digest that disagrees, trips the output gate.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

TINY = ["--seed", "3", "--seconds", "1", "--scale", "0.25"]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def result_of(completed) -> dict:
    return json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["serve", "fleet"])
def test_tiny_workload_emits_every_metric(workload, trace, tmp_path):
    completed = run_bench("--workload", workload, "--trace", str(trace),
                          "--out", str(tmp_path), *TINY)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = result_of(completed)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], float)
    assert f"0 of {result['attempted']} operations" in completed.stdout
    record = json.loads((tmp_path / "runs" /
                         f"{workload}-seed3-trace{trace}.json").read_text())
    assert tuple(record) == run.RECORD_FIELDS


def test_end_to_end_metrics_are_never_zero(tmp_path):
    completed = run_bench("--workload", "serve", "--out", str(tmp_path),
                          *TINY)
    values = [m["value"] for m in result_of(completed)["metrics"].values()]
    assert all(value > 0 for value in values)


def _decisions():
    from repro.core.online import Decision
    from repro.faults.types import FailurePattern

    pattern = next(iter(FailurePattern))
    return [Decision(timestamp=10.0 + i, bank_key=(0, 0, 0, 0, 0, i),
                     pattern=pattern, action="row-spare",
                     rows=(8 * i, 8 * i + 1), sequence=i)
            for i in range(3)]


def replay_of(decisions, icr=0.25):
    return workloads.StreamResult(decisions=decisions, icr=icr, stream_s=1.0,
                                  event_latencies=[], decision_latencies=[])


def test_perturbed_decision_list_trips_the_gate(tmp_path):
    ctx = workloads.Context(seed=5, seconds=1.0, scale=0.25,
                            out_dir=tmp_path, root=ROOT)
    decisions = _decisions()
    reference = workloads.decisions_digest(decisions, 0.25)

    clean = workloads.Outcome()
    workloads.check_serving(clean, ctx, "fleet", [replay_of(decisions)],
                            reference)
    assert clean.correct and clean.failed == 0

    perturbed = list(decisions)
    perturbed[1] = dataclasses.replace(decisions[1],
                                       rows=decisions[1].rows + (99,))
    tripped = workloads.Outcome()
    workloads.check_serving(tripped, ctx, "fleet", [replay_of(perturbed)],
                            reference)
    assert not tripped.correct and tripped.failed == 1


def test_golden_mismatch_trips_the_gate(tmp_path):
    ctx = workloads.Context(seed=gate.DEFAULT_SEED, seconds=1.0, scale=1.0,
                            out_dir=tmp_path, root=ROOT)
    outcome = workloads.Outcome()
    workloads.check_serving(outcome, ctx, "serve", [replay_of(_decisions())],
                            None)
    assert not outcome.correct and outcome.failed == 1


def test_fleet_disagreeing_with_serve_exits_nonzero(tmp_path):
    gate.store_reference(tmp_path, gate.code_id(ROOT), 3, 0.25, "0" * 64)
    completed = run_bench("--workload", "fleet", "--out", str(tmp_path),
                          *TINY)
    assert completed.returncode != 0
    result = result_of(completed)
    assert result["correct"] is False and result["failed"] >= 1
    assert any(line.startswith("check matches_serving_reference")
               and "FAILED" in line
               for line in completed.stdout.splitlines())


def test_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = run_bench("--workload", "serve", "--seed", "1",
                          "--seconds", "10", "--trace", "0", cwd=tmp_path,
                          script=tmp_path / "perfbench" / "run.py")
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout


def test_metric_map_covers_every_declared_metric():
    mapping = json.loads((HERE / "metric_map.json").read_text())
    for section in ("end_to_end", "per_layer"):
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {name: entry["unit"] for name, entry in
                mapping[section].items()} == declared
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(
        workloads.E2E_METRICS)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(
        workloads.LAYER_METRICS)


def test_tracer_self_time_and_restore():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    layer = Layer()
    tracer = Tracer()
    assert tracer.wrap(layer, "outer", "outer")
    assert tracer.wrap(layer, "inner", "inner")
    assert not tracer.wrap(layer, "missing", "missing")
    tracer.request = 7
    assert layer.outer() == 2
    ledger = tracer.layers()
    spans = {span[0]: span for span in tracer.spans}
    inner_s = spans["inner"][2] - spans["inner"][1]
    outer_s = spans["outer"][2] - spans["outer"][1]
    assert ledger["outer"]["self_s"] == pytest.approx(outer_s - inner_s)
    assert spans["inner"][3] == 0 and spans["inner"][4] == 7
    tracer.restore()
    assert "outer" not in vars(layer) and "inner" not in vars(layer)
    events = tracer.chrome_trace()["traceEvents"]
    assert [e["name"] for e in events] == ["outer", "inner"]
