"""The Cordial benchmark workloads: ``serve`` and ``fleet``.

Both are closed-loop backlog replays driven by one caller: the next call
starts when the previous one returns, as ``serve-replay`` and BMC log
replays drive the service.  The inputs derive from ``--seed``, except
the model:

* the *training fleet* is scale 0.12 at seed ``TRAIN_SEED``, split
  70/30 by bank with split seed 7; an XGBoost ``Cordial`` is fitted on
  the 70 %.  The model is the system under test, so it stays the same
  for every ``--seed``: a per-seed model changed decision latency by
  more than the machine's own run-to-run noise;
* the *serving fleet* is scale 0.35 at ``seed + 1``; its complete,
  time-ordered log is the stream (almost every event is a CE on a bank
  that never fails, as in field logs);
* ``fleet`` shuffles that log within a one-hour skew with shuffle seed
  ``seed + 2``.

``serve`` streams the log through one ``CordialService``.  ``fleet``
streams the shuffled log through a supervised 4-shard, 2-process
``ShardedCordialEngine`` with a fleet checkpoint at the stream midpoint,
and must emit exactly the decisions ``serve`` emits.

Each workload returns an :class:`Outcome`: the metrics the run reports,
the human-readable report lines, operation counts and the output checks.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from pace import CHUNK_EVENTS, Pace
from spans import Tracer

TRAIN_SCALE = 0.12
TRAIN_SEED = 0
SERVE_SCALE = 0.35
SPLIT_SEED = 7
TEST_FRACTION = 0.3
MODEL = "XGBoost"
FLEET_SHARDS = 4
FLEET_WORKERS = 2
FLEET_MAX_SKEW = 3600.0
#: Full set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 2
#: ``serve`` replays the log at least this often per run (more while
#: ``--seconds`` is not reached), doubling its latency samples for ~10 s;
#: ``fleet`` replays once, since each replay costs a fresh engine and
#: ~20 s, and a run's time budget covers one.
SERVE_REPLAYS = 2

#: The gated metrics: every workload reports each of them, and each kept
#: its spread between runs within its bound on both workloads.  Timings
#: are gated at the reference machine speed (see ``pace.py``); the raw
#: figures, events per second and the latency percentiles are printed
#: with their sample counts; ``metric_map.json`` says why each is or is
#: not gated.
E2E_METRICS: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("throughput_at_ref", "1/s"),
    ("event_latency_p50_us_at_ref", "us"),
    ("peak_rss_mb", "MB"),
)

LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("ml.predict_proba.calls", "count"),
    ("ml.predict_proba.rows", "count"),
    ("ml.predict_proba.self_s", "s"),
    ("core.crossrow.predict_from_features.self_s", "s"),
    ("core.classifier.predict.self_s", "s"),
    ("core.features.extract_blocks.calls", "count"),
    ("core.features.extract_blocks.self_s", "s"),
    ("core.features.extract_from_aggregates.calls", "count"),
    ("core.features.extract_from_aggregates.self_s", "s"),
    ("telemetry.collector.ingest.calls", "count"),
    ("telemetry.collector.ingest.self_s", "s"),
    ("core.online.ingest.self_s", "s"),
    ("core.isolation.isolate.calls", "count"),
    ("core.isolation.isolate.self_s", "s"),
    ("core.isolation.rows_useful_ratio", "ratio"),
    ("serving.router.route.calls", "count"),
    ("serving.router.route.self_s", "s"),
    ("serving.engine.submit.self_s", "s"),
    ("serving.supervisor.dispatch.calls", "count"),
    ("serving.supervisor.dispatch.self_s", "s"),
    ("serving.supervisor.records_per_batch", "count"),
    ("serving.checkpoint.save_s", "s"),
    ("serving.checkpoint.restore_s", "s"),
    ("serving.checkpoint.bytes", "bytes"),
    ("serving.engine.finish.wait_s", "s"),
    ("serving.merge.self_s", "s"),
    ("ml.fit.classifier_s", "s"),
    ("ml.fit.threshold_probe_s", "s"),
    ("ml.fit.crossrow_s", "s"),
    ("ml.fit.rows", "count"),
    ("ml.tree.nodes", "count"),
    ("datasets.generate.self_s", "s"),
    ("datasets.generate.events", "count"),
    ("core.pipeline.collect.self_s", "s"),
    ("trace.inference_share", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
)


@dataclass
class Outcome:
    """What one benchmark run measured and checked."""

    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    report: List[Tuple[str, float, str, str]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    artifacts: Dict[str, str] = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str) -> None:
        """Record one output check; a failed check is a failed operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
        self.checks.append((name, ok, detail))

    def note(self, name: str, value: float, unit: str, detail: str = "") -> None:
        """Add one report line (printed, not part of the JSON metrics)."""
        self.report.append((name, value, unit, detail))

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks) and self.failed == 0


@dataclass
class Context:
    """Run parameters shared by every workload."""

    seed: int
    seconds: float
    scale: float
    out_dir: Path
    root: Path

    @property
    def train_scale(self) -> float:
        return TRAIN_SCALE * self.scale

    @property
    def serve_scale(self) -> float:
        return SERVE_SCALE * self.scale


# -- statistics and digests ------------------------------------------------------

def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (an observed sample, never interpolated)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def decisions_digest(decisions, icr: float) -> str:
    """SHA-256 of the canonical decision list plus the ICR."""
    payload = json.dumps({"decisions": [d.to_obj() for d in decisions],
                          "icr": icr},
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def count_nodes(trees) -> int:
    """Tree nodes in a (possibly nested) list of fitted trees."""
    if isinstance(trees, (list, tuple)):
        return sum(count_nodes(tree) for tree in trees)
    return len(trees)


def directory_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# -- set-up ------------------------------------------------------------------------

def generate(scale: float, seed: int, tracer: Optional[Tracer]):
    from repro.datasets import FleetGenConfig, generate_fleet_dataset

    if tracer is None:
        return generate_fleet_dataset(FleetGenConfig(scale=scale), seed=seed)
    with tracer.span("datasets.generate"):
        dataset = generate_fleet_dataset(FleetGenConfig(scale=scale),
                                         seed=seed)
    tracer.count("datasets.generate.events", len(dataset.store))
    return dataset


def split(dataset):
    from repro.ml.selection import train_test_split_groups

    return train_test_split_groups(dataset.uer_banks,
                                   test_fraction=TEST_FRACTION,
                                   seed=SPLIT_SEED)


def instrument_fit(tracer: Tracer, cordial) -> None:
    """Spans over both stages' training and the pipeline's trigger replay."""
    import repro.core.pipeline as pipeline

    tracer.wrap(cordial.classifier, "fit", "ml.fit.classifier",
                observe=lambda args, _: tracer.count("ml.fit.rows",
                                                     len(args[0])))
    tracer.wrap(cordial.predictor, "_select_threshold",
                "ml.fit.threshold_probe")
    tracer.wrap(cordial.predictor.model, "fit", "ml.fit.crossrow",
                observe=lambda args, _: tracer.count("ml.fit.rows",
                                                     args[0].shape[0]))
    for name in ("collect_triggers", "collect_snapshots"):
        tracer.wrap(pipeline, name, "core.pipeline.collect")


def fit(dataset, train_banks, tracer: Optional[Tracer]):
    from repro.core.pipeline import Cordial

    cordial = Cordial(MODEL, random_state=0)
    if tracer is None:
        return cordial.fit(dataset, train_banks)
    instrument_fit(tracer, cordial)
    try:
        with tracer.span("core.pipeline.fit"):
            cordial.fit(dataset, train_banks)
    finally:
        tracer.restore()
    tracer.count("ml.tree.nodes", pipeline_nodes(cordial))
    return cordial


def pipeline_nodes(cordial) -> int:
    return (count_nodes(cordial.classifier.model.trees_)
            + count_nodes(cordial.predictor.model.trees_))


@dataclass
class ServingSetup:
    cordial: object
    stream: list
    truth: dict


def serving_setup(ctx: Context, tracer: Optional[Tracer] = None
                  ) -> ServingSetup:
    """Training fleet → fitted XGBoost pipeline; serving fleet → stream."""
    training = generate(ctx.train_scale, TRAIN_SEED, tracer)
    train_banks, _ = split(training)
    cordial = fit(training, train_banks, tracer)
    del training
    serving = generate(ctx.serve_scale, ctx.seed + 1, tracer)
    truth = {bank: t.uer_row_sequence
             for bank, t in serving.bank_truth.items() if t.uer_row_sequence}
    return ServingSetup(cordial=cordial, stream=list(serving.store),
                        truth=truth)


# -- serving-path instrumentation --------------------------------------------------

def instrument_service(tracer: Tracer, cordial) -> None:
    """Spans over admit → featurize → infer → isolate on the serve path."""
    from repro.core.isolation import IsolationReplay
    from repro.core.online import CordialService
    from repro.telemetry.collector import BMCCollector

    tracer.wrap(CordialService, "ingest", "core.online.ingest")
    tracer.wrap(BMCCollector, "ingest", "telemetry.collector.ingest")
    predictor = cordial.predictor
    for model in (cordial.classifier.model, predictor.model):
        tracer.wrap(model, "predict_proba", "ml.predict_proba",
                    observe=lambda args, _: tracer.count(
                        "ml.predict_proba.rows", len(args[0])))
        tracer.wrap(model, "predict", "ml.predict")
    tracer.wrap(cordial.classifier, "predict_many", "core.classifier.predict")
    tracer.wrap(cordial.classifier.featurizer, "extract_many",
                "core.features.extract_many")
    tracer.wrap(predictor, "predict_from_features",
                "core.crossrow.predict_from_features")
    for name in ("extract_blocks", "extract_from_aggregates"):
        tracer.wrap(predictor.featurizer, name, f"core.features.{name}")

    def rows_outcome(args, spared):
        tracer.count("isolation.rows_requested", len(args[2]))
        tracer.count("isolation.rows_spared", spared)

    tracer.wrap(IsolationReplay, "isolate_rows", "core.isolation.isolate",
                observe=rows_outcome)
    tracer.wrap(IsolationReplay, "isolate_bank", "core.isolation.isolate")


def instrument_engine(tracer: Tracer, engine) -> None:
    """Spans over the coordinator side of one fleet engine."""
    tracer.wrap(engine, "submit", "serving.engine.submit")
    tracer.wrap(engine.router, "route", "serving.router.route")
    tracer.wrap(engine, "finish", "serving.engine.finish")
    supervisor = getattr(engine, "_supervisor", None)
    if supervisor is not None:
        tracer.wrap(supervisor, "dispatch", "serving.supervisor.dispatch",
                    observe=lambda args, _: tracer.count(
                        "serving.dispatch.records", len(args[1])))


def instrument_merge(tracer: Tracer) -> None:
    import repro.serving.engine as engine_module

    for name in ("merge_decisions", "merge_stats", "merge_metrics",
                 "merge_service_states", "split_service_state"):
        tracer.wrap(engine_module, name, "serving.merge")


# -- serve -------------------------------------------------------------------------

@dataclass
class StreamResult:
    """One replay of the serving stream."""

    decisions: list
    icr: float
    stream_s: float
    event_latencies: List[float]
    decision_latencies: List[float]
    reference_s: float = 0.0
    event_latencies_ref: List[float] = field(default_factory=list)
    decision_latencies_ref: List[float] = field(default_factory=list)
    operations: int = 0
    failures: int = 0
    checkpoint_s: float = 0.0
    checkpoint_bytes: int = 0
    worker_peak_mb: float = 0.0


def serve_stream(setup: ServingSetup, tracer: Optional[Tracer] = None
                 ) -> StreamResult:
    """Ingest the whole log through one ``CordialService``, then flush."""
    from repro.core.online import CordialService

    service = CordialService(setup.cordial, max_skew=0.0)
    if tracer is not None:
        instrument_service(tracer, setup.cordial)
    clock = time.perf_counter
    pace = Pace()
    decisions: list = []
    events: List[Tuple[float, int]] = []
    with_decision: List[Tuple[float, int]] = []
    failures = 0
    try:
        pace.start()
        for index, record in enumerate(setup.stream):
            if tracer is not None:
                tracer.request = record.sequence
            before = clock()
            try:
                emitted = service.ingest(record)
            except Exception:  # noqa: BLE001 - counted, the run is then wrong
                traceback.print_exc(file=sys.stderr)
                failures += 1
                continue
            sample = (clock() - before, pace.chunk)
            events.append(sample)
            if emitted:
                with_decision.append(sample)
                decisions.extend(emitted)
            if (index + 1) % CHUNK_EVENTS == 0:
                pace.lap()
        decisions.extend(service.flush())
        pace.lap()
    finally:
        if tracer is not None:
            tracer.request = None
            tracer.restore()
    icr = service.replay.result(setup.truth).icr
    return stream_result(pace, decisions, icr, events, with_decision,
                         operations=len(setup.stream) + 1, failures=failures)


def stream_result(pace: Pace, decisions: list, icr: float,
                  events: List[Tuple[float, int]],
                  with_decision: List[Tuple[float, int]],
                  **extra) -> StreamResult:
    """Raw and reference-speed figures of one replay."""
    return StreamResult(
        decisions=decisions, icr=icr, stream_s=pace.wall_s,
        reference_s=pace.reference_s,
        event_latencies=[s for s, _ in events],
        decision_latencies=[s for s, _ in with_decision],
        event_latencies_ref=[pace.adjust(s, c) for s, c in events],
        decision_latencies_ref=[pace.adjust(s, c) for s, c in with_decision],
        **extra)


# -- fleet -------------------------------------------------------------------------

def shuffled(setup: ServingSetup, seed: int) -> list:
    """The fleet workload's arrival order: the log displaced within skew."""
    from repro.experiments.serve import bounded_shuffle

    return bounded_shuffle(setup.stream, FLEET_MAX_SKEW, seed=seed + 2)


def start_engine(cordial):
    from repro.serving import ShardedCordialEngine, SupervisorConfig

    return ShardedCordialEngine(cordial, FLEET_SHARDS, n_jobs=FLEET_WORKERS,
                                max_skew=FLEET_MAX_SKEW,
                                supervisor=SupervisorConfig())


def supervision_failures(engine) -> int:
    registry = engine.supervisor_metrics
    if registry is None:
        return 0
    return int(registry.counter_value("supervisor.restarts_total")
               + registry.counter_value("supervisor.degraded_shards"))


def run_fleet(engine, stream: list, truth: dict, checkpoint_dir: Path,
              tracer: Optional[Tracer] = None) -> StreamResult:
    """Submit the shuffled log; checkpoint and restore at the midpoint.

    Decisions are drained after every submit, so a decision's latency is
    the time from its causing event's submit until the coordinator holds
    it (supervisor snapshot, checkpoint or finish).
    """
    import repro.serving.engine as engine_module

    clock = time.perf_counter
    pace = Pace()
    submitted: Dict[int, float] = {}
    segments: list = []
    events: List[Tuple[float, int]] = []
    delivered: List[Tuple[float, int]] = []
    failures = 0

    def collect(drained) -> None:
        now = clock()
        for segment in drained:
            for decision in segment:
                sent = submitted.get(decision.sequence)
                if sent is not None:
                    delivered.append((now - sent, pace.chunk))
            segments.append(segment)

    def span(name: str):
        if tracer is None:
            return contextlib.nullcontext()
        tracer.request = None
        return tracer.span(name)

    if tracer is not None:
        instrument_engine(tracer, engine)
        instrument_merge(tracer)
    midpoint = len(stream) // 2
    checkpoint_s = 0.0
    shutil.rmtree(checkpoint_dir, ignore_errors=True)
    try:
        pace.start()
        for index, record in enumerate(stream):
            if tracer is not None:
                tracer.request = record.sequence
            before = clock()
            engine.submit(record)
            events.append((clock() - before, pace.chunk))
            submitted[record.sequence] = before
            collect(engine.drain_segments())
            if index + 1 == midpoint:
                saved = clock()
                with span("serving.checkpoint.save"):
                    engine.checkpoint(str(checkpoint_dir))
                collect(engine.drain_segments())
                failures += supervision_failures(engine)
                engine.close()
                with span("serving.checkpoint.restore"):
                    engine = engine.restore_successor(str(checkpoint_dir))
                checkpoint_s = clock() - saved
                if tracer is not None:
                    instrument_engine(tracer, engine)
            if (index + 1) % CHUNK_EVENTS == 0:
                pace.lap()
        outcome = engine.finish()
        collect([outcome.decisions])
        pace.lap()
        failures += supervision_failures(engine)
        decisions = engine_module.merge_decisions(segments)
    finally:
        if tracer is not None:
            tracer.request = None
            tracer.restore()
        engine.close()
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    checkpoint_bytes = directory_bytes(checkpoint_dir)
    if tracer is not None:
        tracer.count("serving.checkpoint.bytes", checkpoint_bytes)
    shutil.rmtree(checkpoint_dir, ignore_errors=True)
    icr = outcome.service.replay.result(truth).icr
    return stream_result(pace, decisions, icr, events, delivered,
                         operations=len(stream) + 3, failures=failures,
                         checkpoint_s=checkpoint_s,
                         checkpoint_bytes=checkpoint_bytes,
                         worker_peak_mb=children / 1024.0)


# -- per-layer ledger --------------------------------------------------------------

def layer_metrics(tracer: Tracer, layers: Dict[str, dict],
                  inference_wall: float,
                  overhead_share: float) -> Dict[str, float]:
    """Fold the traced run's spans and counters into ``LAYER_METRICS``."""
    counters = tracer.counters

    def stat(name: str, key: str) -> float:
        return layers.get(name, {}).get(key, 0)

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    inference = (stat("core.crossrow.predict_from_features", "total_s")
                 + stat("core.classifier.predict", "total_s"))
    derived = {
        "core.isolation.rows_useful_ratio": ratio(
            counters.get("isolation.rows_spared", 0),
            counters.get("isolation.rows_requested", 0)),
        "serving.supervisor.records_per_batch": ratio(
            counters.get("serving.dispatch.records", 0),
            stat("serving.supervisor.dispatch", "calls")),
        "serving.checkpoint.save_s": stat("serving.checkpoint.save",
                                          "total_s"),
        "serving.checkpoint.restore_s": stat("serving.checkpoint.restore",
                                             "total_s"),
        "serving.engine.finish.wait_s": stat("serving.engine.finish",
                                             "self_s"),
        "ml.fit.classifier_s": stat("ml.fit.classifier", "total_s"),
        "ml.fit.threshold_probe_s": stat("ml.fit.threshold_probe",
                                         "total_s"),
        "ml.fit.crossrow_s": stat("ml.fit.crossrow", "total_s"),
        "trace.inference_share": ratio(inference, inference_wall),
        "trace.overhead_share": overhead_share,
        "trace.spans": len(tracer.spans),
    }
    values = {}
    for name, _ in LAYER_METRICS:
        layer, _, key = name.rpartition(".")
        values[name] = derived.get(name, counters.get(name,
                                                      stat(layer, key)))
    return values


def finish_trace(outcome: Outcome, tracer: Tracer, ctx: Context,
                 workload: str, inference_wall: float,
                 overhead_share: float) -> None:
    """Per-layer metrics into ``outcome``; ledger and Chrome trace to disk."""
    layers = tracer.layers()
    values = layer_metrics(tracer, layers, inference_wall, overhead_share)
    units = dict(LAYER_METRICS)
    outcome.metrics = {name: (float(values[name]), units[name])
                       for name, _ in LAYER_METRICS}
    trace_dir = ctx.out_dir / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{ctx.seed}"
    ledger = trace_dir / f"{stem}.layers.json"
    ledger.write_text(json.dumps({"layers": layers,
                                  "counters": tracer.counters,
                                  "metrics": values},
                                 indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
    chrome = trace_dir / f"{stem}.chrome.json"
    chrome.write_text(json.dumps(tracer.chrome_trace()), encoding="utf-8")
    outcome.artifacts.update({"layers": str(ledger), "chrome": str(chrome)})


# -- the workloads -----------------------------------------------------------------

def timed_setups(build, count: int, discard=lambda product: None):
    """Run ``build`` ``count`` times; keep the last product, time each."""
    times: List[float] = []
    product = None
    for _ in range(count):
        if product is not None:
            discard(product)
            product = None
            gc.collect()
        start = time.perf_counter()
        product = build()
        times.append(time.perf_counter() - start)
    return product, times


def report_stream(outcome: Outcome, runs: List[StreamResult], events: int,
                  unit: str, what_decision: str, what_event: str) -> None:
    """Throughput and latency of the replays; lines carry sample counts.

    Every figure is printed as measured and at the reference machine
    speed (``_at_ref``, see ``pace.py``).  Host bursts moved the raw
    figures by a third between runs of one input, so only reference-speed
    figures are gated.  ``throughput_at_ref`` counts ``unit`` per second:
    the unit that bounds the workload's replay time, so the share of
    failing banks in a seed's fleet does not move it.
    """
    stream_s = sum(run.stream_s for run in runs)
    reference_s = sum(run.reference_s for run in runs)
    counts = {"events": events,
              "decisions": sum(len(run.decisions) for run in runs)}
    outcome.metrics["throughput_at_ref"] = (counts[unit] / reference_s,
                                            "1/s")
    for name, count in counts.items():
        outcome.note(f"{name}_per_s", count / stream_s, "1/s",
                     f"{count} {name} in {stream_s:.2f} s, "
                     f"{len(runs)} replay(s)")
        outcome.note(f"{name}_per_s_at_ref", count / reference_s, "1/s",
                     f"{reference_s:.2f} s at the reference speed")
    for ref in (False, True):
        suffix = "_at_ref" if ref else ""
        latencies = [x for run in runs for x in (
            run.decision_latencies_ref if ref else run.decision_latencies)]
        beyond = len(latencies) - math.ceil(0.98 * len(latencies))
        for pct in (50, 90, 98):
            detail = f"n={len(latencies)}"
            if pct == 50:
                detail = f"{what_decision}, {detail}"
            if pct == 98:
                detail += f", {beyond} samples beyond"
            outcome.note(f"decision_latency_p{pct}_ms{suffix}",
                         percentile(latencies, pct) * 1e3, "ms", detail)
        event_latencies = [x for run in runs for x in (
            run.event_latencies_ref if ref else run.event_latencies)]
        event_p50 = percentile(event_latencies, 50) * 1e6
        outcome.note(f"event_latency_p50_us{suffix}", event_p50, "us",
                     f"{what_event}, n={len(event_latencies)}")
    outcome.metrics["event_latency_p50_us_at_ref"] = (event_p50, "us")


def report_common(outcome: Outcome, setup_times: List[float],
                  rss: float) -> None:
    """Set-up time and ``rss``, the peak RSS after set-up and one replay.

    Later replays only add the benchmark's own records, and how many run
    depends on the host's speed, so they are left out of the peak.
    """
    setup = statistics.median(setup_times)
    outcome.metrics["setup_s"] = (setup, "s")
    outcome.metrics["peak_rss_mb"] = (rss, "MB")
    outcome.note("setup_s", setup, "s",
                 f"median of {len(setup_times)} set-ups")
    outcome.note("peak_rss_mb", rss, "MB",
                 "benchmark process, set-up and first replay")


def check_serving(outcome: Outcome, ctx: Context, workload: str,
                  runs: List[StreamResult], reference: Optional[str]) -> str:
    """Output gate shared by ``serve`` and ``fleet``; returns the digest."""
    import gate

    for run in runs:
        outcome.attempted += run.operations
        outcome.failed += run.failures
    outcome.note("decisions", len(runs[0].decisions), "count")
    outcome.note("icr", runs[0].icr, "ratio")
    digests = [decisions_digest(run.decisions, run.icr) for run in runs]
    digest = digests[0]
    outcome.note("output_digest", 0, "sha256", digest)
    outcome.check("replays_identical", len(set(digests)) == 1,
                  f"{len(digests)} replays, traced and untraced alike")
    if gate.is_golden_run(ctx.seed, ctx.scale):
        expected = gate.golden()
        outcome.check("golden_digest", digest == expected,
                      f"got {digest}, golden {expected}")
    if reference is not None:
        outcome.check("matches_serving_reference", digest == reference,
                      f"{workload} {digest}, serving reference {reference}")
    return digest


def serve(ctx: Context, traced: bool) -> Outcome:
    """One ``CordialService`` ingests the whole serving log, then flushes."""
    import gate

    outcome = Outcome()
    code = gate.code_id(ctx.root)
    if traced:
        tracer = Tracer()
        with tracer.span("setup"):
            setup = serving_setup(ctx, tracer)
        plain = serve_stream(setup)
        traced_run = serve_stream(setup, tracer)
        runs = [plain, traced_run]
        overhead = 1.0 - plain.reference_s / traced_run.reference_s
        finish_trace(outcome, tracer, ctx, "serve", traced_run.stream_s,
                     overhead)
    else:
        setup, setup_times = timed_setups(lambda: serving_setup(ctx),
                                          SETUPS)
        runs = [serve_stream(setup)]
        rss = peak_rss_mb()
        while (len(runs) < SERVE_REPLAYS
               or sum(run.stream_s for run in runs) < ctx.seconds):
            runs.append(serve_stream(setup))
        report_stream(outcome, runs, len(setup.stream) * len(runs),
                      "decisions", "ingest calls that returned a decision",
                      "all ingest calls")
        report_common(outcome, setup_times, rss)
    reference = gate.load_reference(ctx.out_dir, code, ctx.seed, ctx.scale)
    digest = check_serving(outcome, ctx, "serve", runs, reference)
    if reference is None:
        gate.store_reference(ctx.out_dir, code, ctx.seed, ctx.scale, digest)
    return outcome


def fleet(ctx: Context, traced: bool) -> Outcome:
    """The shuffled log through a supervised 4-shard, 2-process engine."""
    import gate

    outcome = Outcome()
    code = gate.code_id(ctx.root)
    checkpoint_dir = ctx.out_dir / "fleet-checkpoint"

    def build(tracer=None):
        setup = serving_setup(ctx, tracer)
        return setup, shuffled(setup, ctx.seed), start_engine(setup.cordial)

    if traced:
        tracer = Tracer()
        with tracer.span("setup"):
            setup, stream, engine = build(tracer)
        plain = run_fleet(engine, stream, setup.truth, checkpoint_dir)
        traced_run = run_fleet(start_engine(setup.cordial), stream,
                               setup.truth, checkpoint_dir, tracer)
        runs = [plain, traced_run]
        overhead = 1.0 - plain.reference_s / traced_run.reference_s
        finish_trace(outcome, tracer, ctx, "fleet", traced_run.stream_s,
                     overhead)
    else:
        (setup, stream, engine), setup_times = timed_setups(
            build, SETUPS, discard=lambda product: product[2].close())
        runs = [run_fleet(engine, stream, setup.truth, checkpoint_dir)]
        rss = peak_rss_mb()
        while sum(run.stream_s for run in runs) < ctx.seconds:
            runs.append(run_fleet(start_engine(setup.cordial), stream,
                                  setup.truth, checkpoint_dir))
        report_stream(outcome, runs, len(stream) * len(runs), "events",
                      "submit of the causing event until the caller holds "
                      "the decision", "all submit calls")
        checkpoint_s = statistics.median(run.checkpoint_s for run in runs)
        outcome.note("checkpoint_s", checkpoint_s, "s",
                     "engine.checkpoint + restore_successor")
        outcome.note("checkpoint_mb", runs[0].checkpoint_bytes / 2**20, "MB",
                     "fleet checkpoint directory")
        report_common(outcome, setup_times, rss)
        outcome.note("worker_peak_rss_mb",
                     max(run.worker_peak_mb for run in runs), "MB",
                     "largest worker process")
    reference = gate.load_reference(ctx.out_dir, code, ctx.seed, ctx.scale)
    if reference is None:
        plain = serve_stream(setup)
        reference = decisions_digest(plain.decisions, plain.icr)
        gate.store_reference(ctx.out_dir, code, ctx.seed, ctx.scale,
                             reference)
    check_serving(outcome, ctx, "fleet", runs, reference)
    return outcome


WORKLOADS = {"serve": serve, "fleet": fleet}
