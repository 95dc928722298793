"""Streaming serve-replay harness: drive ``CordialService`` over a fleet.

``cordial-repro serve-replay`` generates a fleet, trains a pipeline on
the 70 % bank split, then streams the 30 % test split through a
:class:`~repro.core.online.CordialService` event by event — optionally
shuffled within a skew bound, and optionally checkpoint/restored halfway
— and dumps a metrics JSON report.  The report's trigger and decision
counts match ``Cordial.evaluate`` on the same data (locked down by
``tests/test_serving_equivalence.py``), so the serving path can be
smoke-checked in CI without a separate ground-truth harness.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.online import CordialService, Decision
from repro.core.pipeline import Cordial
from repro.datasets import FleetGenConfig, generate_fleet_dataset
from repro.ml.selection import train_test_split_groups
from repro.obs import Observability, build_provenance
from repro.obs.tracer import resolve_clock
from repro.serving import ShardedCordialEngine, SupervisorConfig, serve
from repro.telemetry.events import ErrorRecord
from repro.telemetry.metrics import MetricsRegistry

#: Split seed matching the test-suite convention (`tests/conftest.py`).
SPLIT_SEED = 7


def bounded_shuffle(records: Sequence[ErrorRecord], max_skew: float,
                    seed: int = 0) -> List[ErrorRecord]:
    """Shuffle a time-sorted stream so displacement stays within the skew.

    Each record's *arrival* position is perturbed by sorting on
    ``timestamp + jitter`` with ``|jitter| < max_skew / 2``, so no event
    arrives after an event more than ``max_skew`` newer — the exact
    disorder the collector's reorder buffer guarantees to absorb.
    Timestamps themselves are untouched.

    Non-finite timestamps are rejected: NaN compares false against
    everything, so a single poisoned value would silently scramble the
    ``argsort`` ordering far beyond the skew bound.  The strict MCE
    parser already refuses them at ingest; a shuffle harness fed one
    got a malformed stream, not a shuffle request.
    """
    if max_skew <= 0:
        return list(records)
    timestamps = np.asarray([r.timestamp for r in records], dtype=float)
    if timestamps.size and not np.isfinite(timestamps).all():
        bad = int(np.count_nonzero(~np.isfinite(timestamps)))
        raise ValueError(
            f"bounded_shuffle: {bad} record(s) carry non-finite "
            "timestamps, which would silently poison the argsort "
            "ordering; reject them upstream (the MCE parser does)")
    rng = np.random.default_rng(seed)
    half = 0.49 * max_skew
    jitter = rng.uniform(-half, half, size=len(records))
    order = np.argsort(timestamps + jitter, kind="stable")
    return [records[i] for i in order]


def build_report(service: CordialService, decisions: Sequence[Decision],
                 uer_rows_by_bank: Dict[tuple, Sequence[Tuple[float, int]]],
                 config: Optional[dict] = None,
                 timing: Optional[dict] = None) -> dict:
    """Assemble the serve-replay metrics report (JSON-ready).

    Args:
        timing: optional wall/CPU duration block (see
            :class:`TimingProbe`), included verbatim under
            ``"timing"``.
    """
    icr = service.replay.result(uer_rows_by_bank)
    actions = dict(service.stats.decisions_by_action)
    dead = service.collector.dead_letter_counts
    trigger_decisions = [d for d in decisions if not d.is_reprediction]
    report = {
        "config": dict(config or {}),
        "summary": {
            "events_ingested": service.stats.events_ingested,
            # Sorted like decisions_by_action below: quarantine order
            # varies run to run, report bytes must not.
            "events_dead_lettered": {k: dead[k] for k in sorted(dead)},
            "triggers_fired": service.stats.triggers_fired,
            "repredictions": service.stats.repredictions,
            "decisions_total": len(decisions),
            "decisions_by_action": {k: actions[k] for k in sorted(actions)},
            "trigger_decisions": len(trigger_decisions),
            "bank_spares": sum(1 for d in trigger_decisions
                               if d.action == "bank-spare"),
            "row_spare_triggers": sum(1 for d in trigger_decisions
                                      if d.action == "row-spare"),
            "spared_rows": service.spared_rows,
            "spared_banks": service.spared_banks,
            "sparing_requests_truncated": service.replay.truncated_requests,
            "sparing_rows_truncated": service.replay.truncated_rows,
            "sparing_duplicate_rows": service.replay.duplicate_rows,
            "icr": icr.icr,
            "icr_row_sparing_only": icr.icr_row_sparing_only,
            "covered_rows": icr.covered_rows,
            "total_uer_rows": icr.total_rows,
        },
        "metrics": service.metrics.as_dict(),
    }
    if timing is not None:
        report["timing"] = dict(timing)
    return report


class TimingProbe:
    """Wall/CPU stopwatch for one serving stretch.

    Wall time reads the *trace clock* — the tracer's clock when an
    :class:`~repro.obs.Observability` bundle is given, otherwise
    :func:`repro.obs.tracer.resolve_clock` (which honours
    ``REPRO_FAKE_CLOCK``, making the wall figures reproducible in
    tests); CPU time always reads :func:`time.process_time`.
    """

    def __init__(self, obs: Optional[Observability] = None) -> None:
        self._clock = (obs.tracer.clock if obs is not None
                       else resolve_clock(None))
        self._wall_start = self._clock()
        self._cpu_start = time.process_time()

    def finish(self, events: int) -> dict:
        """The ``timing`` report block after ``events`` stream events."""
        wall = self._clock() - self._wall_start
        cpu = time.process_time() - self._cpu_start
        return {
            "wall_seconds": wall,
            "cpu_seconds": cpu,
            "events": int(events),
            "events_per_second": events / wall if wall > 0 else 0.0,
        }


def prepare_serving_run(scale: float = 0.12, seed: int = 42,
                        model_name: str = "LightGBM", jobs: int = 1,
                        ) -> Tuple[Cordial, List[ErrorRecord], Dict, dict]:
    """Generate a fleet, train a pipeline, and carve out the test stream.

    The shared front half of every serving harness (serve-replay, the
    chaos campaign): returns ``(cordial, stream, truth, meta)`` where
    ``stream`` is the time-sorted test-split event stream, ``truth`` is
    the per-bank ``(first_uer_time, row)`` ground truth for ICR scoring,
    and ``meta`` carries split bookkeeping for reports.
    """
    dataset = generate_fleet_dataset(FleetGenConfig(scale=scale), seed=seed,
                                     jobs=jobs)
    train_banks, test_banks = train_test_split_groups(
        dataset.uer_banks, test_fraction=0.3, seed=SPLIT_SEED)
    cordial = Cordial(model_name=model_name, random_state=0, n_jobs=jobs)
    cordial.fit(dataset, train_banks)

    test_set = set(test_banks)
    stream = [r for r in dataset.store if r.bank_key in test_set]
    truth = {bank: dataset.bank_truth[bank].uer_row_sequence
             for bank in test_banks
             if dataset.bank_truth[bank].uer_row_sequence}
    meta = {"test_banks": len(test_banks)}
    return cordial, stream, truth, meta


def run_serve_replay(scale: float = 0.12, seed: int = 42,
                     model_name: str = "LightGBM", max_skew: float = 0.0,
                     shuffle: bool = False, shuffle_seed: int = 0,
                     spares_per_bank: int = 64, jobs: int = 1,
                     checkpoint_path: Optional[str] = None,
                     checkpoint_at: Optional[int] = None,
                     shards: Optional[int] = None,
                     obs_dir: Optional[str] = None,
                     audit_attributions: bool = False,
                     supervise: bool = False, max_restarts: int = 3,
                     batch_timeout: float = 30.0, poison_threshold: int = 2,
                     snapshot_every: int = 8) -> dict:
    """Generate, train, stream, and report — the full serve-replay run.

    Args:
        shards: when given, serve through the sharded fleet engine
            (``repro.serving``) with this many bank-key shards and
            ``jobs`` worker processes; decisions, ICR, and the merged
            metrics document are identical for any shard count (only
            the timing block differs).  ``checkpoint_path`` then names
            a fleet checkpoint *directory* (manifest + per-shard
            files), and ``obs_dir`` grows per-shard subdirectories.
        supervise: run the fleet under a
            :class:`~repro.serving.supervisor.ShardSupervisor` (requires
            ``shards``): worker failures are detected, workers restarted
            deterministically, poison records quarantined, and exhausted
            shards failed over to in-process execution — with output
            still byte-identical.  ``max_restarts`` / ``batch_timeout``
            / ``poison_threshold`` / ``snapshot_every`` tune the policy;
            the report gains a ``supervision`` counters block.
        obs_dir: when given, attach a full observability bundle and
            write its artifacts (journal, trace, audit trail, metrics,
            Prometheus exposition, summary) into this directory; the
            decisions and ICR stay byte-identical to an unobserved run.
        audit_attributions: record per-feature attributions for every
            flagged block in the audit trail (slow; implies ``obs_dir``).
    """
    if supervise and shards is None:
        raise ValueError("supervision requires a sharded fleet "
                         "(--supervise needs --shards)")
    cordial, stream, truth, meta = prepare_serving_run(
        scale=scale, seed=seed, model_name=model_name, jobs=jobs)
    if shuffle:
        stream = bounded_shuffle(stream, max_skew, seed=shuffle_seed)
    if checkpoint_path is not None and checkpoint_at is None:
        checkpoint_at = max(1, len(stream) // 2)

    config = {
        "scale": scale,
        "seed": seed,
        "model_name": model_name,
        "max_skew": max_skew,
        "shuffle": shuffle,
        "shuffle_seed": shuffle_seed,
        "spares_per_bank": spares_per_bank,
        "test_banks": meta["test_banks"],
        "stream_events": len(stream),
        "checkpointed_at": checkpoint_at if checkpoint_path else None,
    }
    obs = provenance = supervisor = None
    if shards is not None:
        config["shards"] = shards
    if supervise:
        config["supervise"] = {
            "max_restarts": max_restarts,
            "batch_timeout": batch_timeout,
            "poison_threshold": poison_threshold,
            "snapshot_every": snapshot_every,
        }
        supervisor = SupervisorConfig(**config["supervise"])
    if obs_dir is not None:
        provenance = build_provenance(
            seeds={"generator": seed, "shuffle": shuffle_seed,
                   "split": SPLIT_SEED},
            config=config)
    if shards is not None:
        sink = ShardedCordialEngine(
            cordial, n_shards=shards, n_jobs=jobs,
            spares_per_bank=spares_per_bank, max_skew=max_skew,
            obs_dir=obs_dir, obs_provenance=provenance,
            obs_attributions=audit_attributions, supervisor=supervisor)
    else:
        metrics = MetricsRegistry()
        if obs_dir is not None:
            obs = Observability.create(obs_dir, metrics=metrics,
                                       provenance=provenance,
                                       attributions=audit_attributions)
        sink = CordialService(cordial, spares_per_bank=spares_per_bank,
                              max_skew=max_skew, metrics=metrics, obs=obs)

    probe = TimingProbe(obs)
    sink, outcome = serve(sink, stream, checkpoint_path=checkpoint_path,
                          kill_points=[checkpoint_at] if checkpoint_path
                          else ())
    timing = probe.finish(len(stream))

    report = build_report(outcome.service, outcome.decisions, truth,
                          config=config, timing=timing)
    # A fleet's metrics block is the merged counters document (gauges
    # and histograms are per-shard wall-clock series), which makes the
    # report byte-comparable across shard counts modulo timing.
    report["metrics"] = outcome.metrics
    if supervisor is not None:
        # Coordinator-side supervision counters live outside the merged
        # registry so the merged metrics stay byte-identical under
        # faults; the report carries them as their own block.
        report["supervision"] = sink.supervisor_metrics.as_dict()
    if obs is not None:
        artifacts = obs.export(obs_dir, metrics=outcome.service.metrics)
        report["obs"] = {"artifacts": artifacts, "summary": obs.summary()}
    elif outcome.obs is not None:
        report["obs"] = outcome.obs
    return report
