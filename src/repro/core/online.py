"""Cordial as an online service: one object, one event at a time.

The batch pipeline (:mod:`repro.core.pipeline`) trains and evaluates on
full traces; a deployment instead feeds events as they arrive and wants a
decision back the moment a bank becomes actionable.  ``CordialService``
wraps a fitted :class:`~repro.core.pipeline.Cordial` behind exactly that
interface, and keeps the isolation ledger so operators can query coverage
and cost at any point in time.

The serving path is hardened for field telemetry:

* **out-of-order tolerance** — events are staged through the collector's
  reorder buffer (``max_skew``); any stream displaced by less than the
  skew window yields decisions identical to the sorted stream, and
  hopelessly late or malformed inputs land in a dead-letter list instead
  of crashing the service (see :mod:`repro.telemetry.collector`);
* **checkpoint/restore** — :meth:`state_dict` captures every piece of
  mutable state (collector buffers, reorder buffer, sparing ledgers,
  per-bank prediction state, stats, metrics); a service restored from a
  checkpoint resumes mid-stream and emits byte-identical decisions
  versus an uninterrupted run (``repro.core.persistence`` wraps this in
  a versioned file format);
* **observability** — a shared :class:`MetricsRegistry` counts ingest
  latency, trigger/re-prediction rates, reorder-buffer depth,
  dead-letter reasons and sparing-budget pressure.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.incremental import IncrementalFeatureState
from repro.core.isolation import IsolationReplay
from repro.core.pipeline import Cordial
from repro.faults.types import FailurePattern
from repro.obs import Observability
from repro.telemetry.collector import BMCCollector
from repro.telemetry.events import ErrorRecord, ErrorType
from repro.telemetry.metrics import MetricsRegistry


@dataclass(frozen=True)
class Decision:
    """One actionable decision emitted by the service.

    Attributes:
        timestamp: when the decision fired.
        bank_key: the bank acted on.
        pattern: classified failure pattern (set on trigger decisions).
        action: ``"row-spare"`` or ``"bank-spare"``.
        rows: rows newly isolated (empty for bank sparing).
        is_reprediction: True when this came from a post-trigger re-run.
        sequence: sequence number of the *causing* released record.  A
            released record causes at most one decision and sequences are
            unique, so ``(timestamp, sequence)`` totally orders decisions
            — the key the sharded fleet engine merges per-shard streams
            on.  Deliberately excluded from :meth:`to_obj` (the canonical
            JSON is unchanged, so decision digests stay stable) and from
            equality; ``-1`` marks a decision built without one.
    """

    timestamp: float
    bank_key: tuple
    pattern: Optional[FailurePattern]
    action: str
    rows: tuple
    is_reprediction: bool = False
    sequence: int = field(default=-1, compare=False)

    def to_obj(self) -> dict:
        """JSON-ready rendering (canonical: used for equivalence checks)."""
        return {
            "timestamp": self.timestamp,
            "bank_key": list(self.bank_key),
            "pattern": None if self.pattern is None else self.pattern.value,
            "action": self.action,
            "rows": [int(r) for r in self.rows],
            "is_reprediction": self.is_reprediction,
        }


@dataclass
class ServiceStats:
    """Running counters of an online session."""

    events_ingested: int = 0
    triggers_fired: int = 0
    repredictions: int = 0
    decisions_by_action: Dict[str, int] = field(default_factory=dict)

    def record_decision(self, decision: Decision) -> None:
        """Count one decision."""
        self.decisions_by_action[decision.action] = (
            self.decisions_by_action.get(decision.action, 0) + 1)

    def to_dict(self) -> dict:
        """JSON-ready state."""
        return {
            "events_ingested": self.events_ingested,
            "triggers_fired": self.triggers_fired,
            "repredictions": self.repredictions,
            "decisions_by_action": {
                k: self.decisions_by_action[k]
                for k in sorted(self.decisions_by_action)},
        }

    @classmethod
    def from_dict(cls, state: dict) -> "ServiceStats":
        """Rebuild from :meth:`to_dict` output."""
        return cls(events_ingested=int(state["events_ingested"]),
                   triggers_fired=int(state["triggers_fired"]),
                   repredictions=int(state["repredictions"]),
                   decisions_by_action=dict(state["decisions_by_action"]))


@dataclass
class ServeOutcome:
    """What a finished serve hands back, from one service or a fleet.

    Attributes:
        decisions: every decision of the run in emission order
            (checkpoint/restart epochs included).
        service: a real ``CordialService`` holding the final state — for
            a fleet, the merged shard states — so reports, coverage
            queries and checkpoints work on either.
        stats: the :class:`ServiceStats` document.
        metrics: the metrics export document (a fleet keeps counters
            only: its gauges and histograms are per-shard wall-clock
            series with no shard-count-invariant meaning).
        obs: a fleet's per-shard observability blocks plus roll-up,
            when it ran observed.
    """

    decisions: List[Decision]
    service: "CordialService"
    stats: dict
    metrics: dict
    obs: Optional[dict] = field(default=None)


class CordialService:
    """Streaming front-end over a fitted Cordial model.

    Feed MCE events through :meth:`ingest` as they arrive; it returns the
    decisions (possibly none) that the event caused, then call
    :meth:`flush` at end of stream (or before a final coverage query) to
    release anything the reorder buffer still holds.  Semantics match
    the batch replay in ``Cordial.evaluate``: classify at the k-th
    distinct UER row, bank-spare scattered banks, row-spare predicted
    blocks for aggregation banks, optionally re-predict on every further
    UER.

    The service is also a stream sink for :func:`repro.serving.serve`:
    ``submit`` / ``checkpoint`` / ``restore_successor`` /
    ``drain_segments`` / ``finish`` / ``close``, the surface of the
    sharded fleet engine.

    Args:
        cordial: a *fitted* Cordial pipeline.
        spares_per_bank: row-sparing budget for the internal ledger.
        max_skew: tolerated timestamp disorder (stream-time seconds);
            0 keeps the historical release-immediately behaviour.
        metrics: optional shared metrics registry (one is created when
            omitted; collector and ledger record into the same registry).
        incremental_features: when True (default), re-predictions build
            their cross-row features from a per-bank
            :class:`IncrementalFeatureState` folded O(1) per released
            event instead of re-walking the bank's full history; the
            decisions are bit-identical either way
            (``tests/test_feature_equivalence.py``), so False exists only
            as the recompute reference for equivalence tests and
            benchmarks.
        obs: optional :class:`~repro.obs.Observability` bundle.  Strictly
            passive — with it attached the decisions and ICR are
            byte-identical to an unobserved run
            (``tests/test_obs_equivalence.py``); the journal and audit
            trail record what the service did, never influence it.
    """

    def __init__(self, cordial: Cordial, spares_per_bank: int = 64,
                 max_skew: float = 0.0,
                 metrics: Optional[MetricsRegistry] = None,
                 incremental_features: bool = True,
                 obs: Optional[Observability] = None) -> None:
        if not getattr(cordial, "_fitted", False):
            raise ValueError("CordialService requires a fitted Cordial")
        self.cordial = cordial
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.obs = obs
        if obs is not None and not obs.audit.feature_names:
            obs.audit.feature_names = list(
                cordial.predictor.featurizer.feature_names())
        self.collector = BMCCollector(
            trigger_uer_rows=cordial.trigger_uer_rows,
            max_skew=max_skew, metrics=self.metrics, obs=obs)
        self.replay = IsolationReplay(spares_per_bank=spares_per_bank,
                                      metrics=self.metrics)
        self.stats = ServiceStats()
        self.incremental_features = incremental_features
        self._pattern_of: Dict[tuple, FailurePattern] = {}
        self._uer_rows: Dict[tuple, List[int]] = {}
        self._feature_state: Dict[tuple, IncrementalFeatureState] = {}
        self._explainer = None  # lazily built when obs.audit.attributions
        self._undelivered: List[Decision] = []

    # -- event path ----------------------------------------------------------
    def ingest(self, record: ErrorRecord) -> List[Decision]:
        """Feed one event; returns any decisions it caused.

        With a positive ``max_skew`` the decisions may belong to earlier
        events that this arrival released from the reorder buffer.
        """
        span = (self.obs.tracer.span("service.ingest")
                if self.obs is not None else nullcontext())
        with span, self.metrics.timer("service.ingest_seconds"):
            self.stats.events_ingested += 1
            decisions = self._process_released(self.collector.ingest(record))
        return decisions

    def flush(self) -> List[Decision]:
        """Release the reorder buffer (end of stream); returns decisions."""
        span = (self.obs.tracer.span("service.flush")
                if self.obs is not None else nullcontext())
        with span:
            decisions = self._process_released(self.collector.flush())
        return decisions

    def _process_released(self, released) -> List[Decision]:
        """Process released events in order; count their decisions."""
        decisions: List[Decision] = []
        for record, trigger in released:
            decisions.extend(self._process(record, trigger))
        for decision in decisions:
            self.stats.record_decision(decision)
            self.metrics.counter(
                "service.decisions",
                labels={"action": decision.action}).inc()
        return decisions

    def _process(self, record: ErrorRecord, trigger) -> List[Decision]:
        """Handle one *released* (in-order) event."""
        if trigger is not None:
            return self._on_trigger(trigger)
        state = self._feature_state.get(record.bank_key)
        if state is not None:
            # Fold first: the state must mirror "history through this
            # record" before any re-prediction reads it, exactly like the
            # truncated recompute in ``_history_through``.
            state.update(record)
        if (record.error_type is ErrorType.UER
                and record.bank_key in self._pattern_of):
            decision = self._on_subsequent_uer(record)
            if decision is not None:
                return [decision]
        return []

    def _on_trigger(self, trigger) -> List[Decision]:
        self.stats.triggers_fired += 1
        pattern = self.cordial.classifier.predict(trigger.history)
        if self.obs is not None:
            self.obs.journal.trigger(trigger.bank_key, trigger.timestamp,
                                     pattern.value, tuple(trigger.uer_rows))
        if not pattern.is_aggregation:
            # Bank sparing retires the whole bank: keep no per-bank
            # prediction state (it would never be read again and grows
            # without bound over a long stream).
            self.replay.isolate_bank(trigger.bank_key, trigger.timestamp)
            if self.obs is not None:
                self.obs.journal.isolation(
                    trigger.bank_key, trigger.timestamp, "bank-spare",
                    (), 0, None)
                self.obs.audit.record_decision(
                    kind="trigger", timestamp=trigger.timestamp,
                    bank_key=trigger.bank_key, action="bank-spare",
                    pattern=pattern.value)
            return [Decision(timestamp=trigger.timestamp,
                             bank_key=trigger.bank_key, pattern=pattern,
                             action="bank-spare", rows=(),
                             sequence=trigger.history[-1].sequence)]
        self._pattern_of[trigger.bank_key] = pattern
        self._uer_rows[trigger.bank_key] = list(trigger.uer_rows)
        if self.incremental_features:
            self._feature_state[trigger.bank_key] = (
                IncrementalFeatureState.from_history(trigger.history))
        # extract + predict_from_features is exactly what predict() does
        # internally; splitting it here hands the audit trail the very
        # feature matrix the model scored.
        predictor = self.cordial.predictor
        X = predictor.featurizer.extract_blocks(trigger.history,
                                                trigger.uer_rows[-1])
        prediction = predictor.predict_from_features(X, trigger.uer_rows[-1])
        rows = tuple(int(r) for r in prediction.rows_to_isolate())
        budget_before = (self.replay.row_ctrl.remaining(trigger.bank_key)
                         if self.obs is not None else None)
        newly = self.replay.isolate_rows(trigger.bank_key, rows,
                                         trigger.timestamp)
        if self.obs is not None:
            self._observe_row_decision(
                kind="trigger", timestamp=trigger.timestamp,
                bank_key=trigger.bank_key, pattern=pattern,
                prediction=prediction, X=X, rows=rows, newly=newly,
                budget_before=budget_before)
        return [Decision(timestamp=trigger.timestamp,
                         bank_key=trigger.bank_key, pattern=pattern,
                         action="row-spare", rows=rows,
                         sequence=trigger.history[-1].sequence)]

    def _on_subsequent_uer(self, record: ErrorRecord) -> Optional[Decision]:
        if not self.cordial.repredict_each_uer:
            return None
        rows_seen = self._uer_rows[record.bank_key]
        if record.row in rows_seen:
            return None
        rows_seen.append(record.row)
        self.stats.repredictions += 1
        self.metrics.counter("service.repredictions").inc()
        if self.obs is not None:
            self.obs.journal.reprediction(record.bank_key, record.timestamp,
                                          record.row)
        predictor = self.cordial.predictor
        if self.incremental_features:
            # O(1)-per-event fold already happened in _process; build the
            # block features from the running aggregates instead of
            # re-walking the bank history.
            agg = self._feature_state[record.bank_key].aggregates()
            X = predictor.featurizer.extract_from_aggregates(agg, record.row)
        else:
            history = self._history_through(record)
            X = predictor.featurizer.extract_blocks(history, record.row)
        prediction = predictor.predict_from_features(X, record.row)
        rows = tuple(int(r) for r in prediction.rows_to_isolate())
        budget_before = (self.replay.row_ctrl.remaining(record.bank_key)
                         if self.obs is not None else None)
        newly = self.replay.isolate_rows(record.bank_key, rows,
                                         record.timestamp)
        pattern = self._pattern_of[record.bank_key]
        if self.obs is not None:
            self._observe_row_decision(
                kind="reprediction", timestamp=record.timestamp,
                bank_key=record.bank_key, pattern=pattern,
                prediction=prediction, X=X, rows=rows, newly=newly,
                budget_before=budget_before)
        return Decision(timestamp=record.timestamp,
                        bank_key=record.bank_key,
                        pattern=pattern,
                        action="row-spare", rows=rows,
                        is_reprediction=True,
                        sequence=record.sequence)

    def _observe_row_decision(self, *, kind: str, timestamp: float,
                              bank_key: tuple, pattern: FailurePattern,
                              prediction, X: np.ndarray, rows: tuple,
                              newly: int, budget_before: int) -> None:
        """Journal + audit one row-sparing decision (obs is attached)."""
        budget_after = self.replay.row_ctrl.remaining(bank_key)
        self.obs.journal.isolation(bank_key, timestamp, "row-spare", rows,
                                   newly, budget_after)
        attributions = None
        if self.obs.audit.attributions:
            attributions = self.obs.audit.attribute_flagged(
                self._block_explainer(), X, prediction.flagged)
        self.obs.audit.record_decision(
            kind=kind, timestamp=timestamp, bank_key=bank_key,
            action="row-spare", pattern=pattern.value,
            threshold=self.cordial.predictor.effective_threshold,
            probabilities=prediction.probabilities,
            flagged=prediction.flagged,
            block_ranges=prediction.block_ranges, features=X,
            rows_requested=rows, newly_spared=newly,
            budget_before=budget_before, budget_after=budget_after,
            attributions=attributions)

    def _block_explainer(self):
        """Lazily built explainer for audit attributions.

        The baseline is a zero vector — the natural neutral point for
        count/recency features — so building it needs no training data.
        """
        if self._explainer is None:
            from repro.core.explain import BlockExplainer

            n = self.cordial.predictor.featurizer.n_features
            self._explainer = BlockExplainer(
                self.cordial.predictor, baseline=np.zeros(n))
        return self._explainer

    def _history_through(self, record: ErrorRecord) -> tuple:
        """The bank's history up to and including ``record``.

        One collector ingest can release a *batch* of reordered events,
        all already applied to the bank buffers by the time the service
        processes the first of them.  Re-predicting from the full buffer
        would leak later same-batch events into the features; truncating
        at the record keeps decisions identical to the sorted stream.
        """
        history = self.collector.bank_history(record.bank_key)
        for index in range(len(history) - 1, -1, -1):
            if history[index] is record:
                return history[:index + 1]
        return history

    # -- stream-sink surface ---------------------------------------------------
    def submit(self, record: ErrorRecord) -> None:
        """Ingest one event; its decisions wait for a drain or finish."""
        self._undelivered.extend(self.ingest(record))

    def drain_segments(self) -> List[List[Decision]]:
        """Take the decisions submitted events caused since the last drain."""
        segment, self._undelivered = self._undelivered, []
        return [segment]

    def checkpoint(self, path: str) -> str:
        """Write a service checkpoint file mid-stream; returns its path."""
        from repro.core.persistence import save_service_checkpoint

        if self.obs is not None:
            self.obs.journal.checkpoint(
                "save", at_event=self.stats.events_ingested)
        save_service_checkpoint(self, path)
        return path

    def restore_successor(self, path: str) -> "CordialService":
        """The restarted service that resumes from checkpoint ``path``.

        The successor takes over this service's undrained decisions and
        its live observability bundle: the journal keeps appending and
        the audit trail resumes from the checkpointed records.
        """
        from repro.core.persistence import load_service_checkpoint

        successor = load_service_checkpoint(path, obs=self.obs)
        successor._undelivered = self._undelivered
        if self.obs is not None:
            self.obs.journal.checkpoint(
                "restore", at_event=successor.stats.events_ingested)
        return successor

    def finish(self) -> ServeOutcome:
        """Flush the reorder buffer; every undrained decision, in order."""
        [decisions] = self.drain_segments()
        decisions.extend(self.flush())
        return ServeOutcome(decisions=decisions, service=self,
                            stats=self.stats.to_dict(),
                            metrics=self.metrics.as_dict())

    def close(self) -> None:
        """Nothing to release: a service runs in the caller's process."""

    # -- queries ------------------------------------------------------------------
    def is_row_isolated(self, bank_key: tuple, row: int,
                        at_time: Optional[float] = None) -> bool:
        """Whether a row is covered by row- or bank-sparing.

        Args:
            at_time: when given, answers time-aware — was the row
                isolated *strictly before* ``at_time``? — through the
                same path :meth:`IsolationReplay.is_row_covered` uses for
                scoring, so live queries and ICR scoring always agree.
        """
        if at_time is not None:
            covered, _ = self.replay.is_row_covered(bank_key, row, at_time)
            return covered
        return (self.replay.bank_ctrl.is_isolated(bank_key)
                or self.replay.row_ctrl.is_isolated(bank_key, row))

    def coverage(self, uer_rows_by_bank) -> float:
        """ICR of this session against the given ground truth."""
        return self.replay.result(uer_rows_by_bank).icr

    @property
    def spared_rows(self) -> int:
        """Total rows spared so far."""
        return self.replay.row_ctrl.total_spared_rows()

    @property
    def spared_banks(self) -> int:
        """Total banks retired so far."""
        return self.replay.bank_ctrl.spared_bank_count()

    def has_bank_state(self, bank_key: tuple) -> bool:
        """Whether per-bank prediction state is retained for ``bank_key``."""
        return (bank_key in self._pattern_of or bank_key in self._uer_rows
                or bank_key in self._feature_state)

    # -- checkpointing -------------------------------------------------------
    def state_dict(self) -> dict:
        """Every piece of mutable service state, JSON-ready.

        The model itself is *not* included — persistence
        (:func:`repro.core.persistence.save_service_checkpoint`) stores
        the fitted pipeline next to this state in the same document.
        When an observability bundle is attached, its checkpointable
        slice (the audit trail — see ``Observability.state_dict``) rides
        along under ``"obs"``; unobserved services omit the key, so
        their checkpoints are byte-identical to pre-observability ones.
        """
        state = self._base_state_dict()
        if self.obs is not None:
            state["obs"] = self.obs.state_dict()
        return state

    def _base_state_dict(self) -> dict:
        return {
            "spares_per_bank": self.replay.spares_per_bank,
            "max_skew": self.collector.max_skew,
            "collector": self.collector.state_dict(),
            "replay": self.replay.state_dict(),
            "stats": self.stats.to_dict(),
            "pattern_of": [[[int(b) for b in bank], pattern.value]
                           for bank, pattern in
                           sorted(self._pattern_of.items())],
            "uer_rows": [[[int(b) for b in bank], [int(r) for r in rows]]
                         for bank, rows in sorted(self._uer_rows.items())],
            "feature_state": [[[int(b) for b in bank], state.to_dict()]
                              for bank, state in
                              sorted(self._feature_state.items())],
            "metrics": self.metrics.as_dict(),
        }

    def load_state_dict(self, state: dict) -> "CordialService":
        """Restore state captured by :meth:`state_dict`.

        The restore is **transactional**: every piece of the document is
        parsed into fresh objects before anything is committed, so a
        truncated or tampered state dict raises (see
        :class:`~repro.core.persistence.CheckpointCorruptionError` for
        the file-level wrapper) and leaves this service exactly as it
        was — a failed recovery must never corrupt the survivor.
        """
        # Parse phase: build everything aside; self stays untouched.
        collector = BMCCollector(metrics=self.metrics)
        collector.load_state_dict(state["collector"])
        replay = IsolationReplay(metrics=self.metrics)
        replay.load_state_dict(state["replay"])
        stats = ServiceStats.from_dict(state["stats"])
        pattern_of = {tuple(bank): FailurePattern(value)
                      for bank, value in state["pattern_of"]}
        uer_rows = {tuple(bank): list(rows)
                    for bank, rows in state["uer_rows"]}
        feature_state: Dict[tuple, IncrementalFeatureState] = {}
        if self.incremental_features:
            # Version-2 checkpoints carry the folded state; for version-1
            # documents (or a snapshot taken with the recompute path) the
            # state is rebuilt from the collector's released histories,
            # which are identical to a fold over the same events.
            saved = {tuple(bank): folded
                     for bank, folded in state.get("feature_state", [])}
            for bank in pattern_of:
                folded = saved.get(bank)
                feature_state[bank] = (
                    IncrementalFeatureState.from_dict(folded)
                    if folded is not None
                    else IncrementalFeatureState.from_history(
                        collector.bank_history(bank)))
        # Dry-run the metrics document against a scratch registry before
        # touching the shared one.
        MetricsRegistry().restore(state["metrics"])
        # The obs slice (audit trail) parses into a scratch bundle too —
        # only version-3 checkpoints taken with obs attached carry it.
        obs_state = state.get("obs")
        if obs_state is not None:
            Observability().load_state_dict(obs_state)

        # Commit phase: nothing below can raise.
        self.collector = collector
        self.replay = replay
        self.stats = stats
        self._pattern_of = pattern_of
        self._uer_rows = uer_rows
        self._feature_state = feature_state
        self.metrics.restore(state["metrics"])
        if obs_state is not None:
            if self.obs is None:
                self.obs = Observability()
            self.obs.load_state_dict(obs_state)
        if self.obs is not None:
            self.collector.obs = self.obs
        return self
