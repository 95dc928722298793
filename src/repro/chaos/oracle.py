"""The invariant oracle: system-level properties every chaos run must keep.

A chaos run has no golden output to diff against — drops, duplicates and
corruption legitimately change the decision stream.  What must *never*
change are the structural guarantees of the serving path, checked here
after every run:

``event_conservation``
    Every ingested input is accounted for exactly once:
    ``ingested == released + dead-lettered + still buffered``, at both
    the service and the collector ledger.
``spare_budget``
    No bank ever exceeds its row-sparing budget, no matter how many
    re-predictions or restores fired.
``isolation_monotonicity``
    Isolation is irrevocable: snapshots taken across kill/restore points
    only ever grow, isolation timestamps never change, and the
    time-aware ``is_row_isolated`` answers flip exactly at the recorded
    isolation time (False strictly at/before, True after).
``checkpoint_roundtrip``
    A checkpoint of the final state restores to a bit-identical
    ``state_dict`` — persistence loses nothing a crash could expose.
``metrics_consistency``
    The metrics registry agrees with the ground-truth ledgers it
    mirrors (dead-letter counts, trigger/re-prediction/decision counts,
    spared banks) — observability must not drift from reality.
``tamper_detection``
    Every deliberately damaged checkpoint was rejected with the typed
    corruption error.
``bounded_divergence``
    Decisions and ICR stay within the plan's tolerance of the
    clean-stream run — chaos may degrade the service, not derail it.
``supervision``
    A supervised fleet run disturbed by worker crashes/hangs/garbage and
    poison records ends **byte-identical** to the undisturbed run of its
    twin stream: same decisions, same ICR, same merged state — the only
    permitted difference is the poison records' own ``"poison"``
    dead-letter accounting, which this check strips before comparing.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.chaos.faults import FaultedRun
from repro.chaos.plan import ChaosPlan
from repro.core.online import CordialService
from repro.core.persistence import (load_service_checkpoint,
                                    save_service_checkpoint)


@dataclass(frozen=True)
class InvariantViolation:
    """One broken invariant, with enough detail to debug the run."""

    invariant: str
    detail: str

    def to_obj(self) -> dict:
        """JSON-ready rendering."""
        return {"invariant": self.invariant, "detail": self.detail}


@dataclass(frozen=True)
class CleanBaseline:
    """Summary of the unperturbed run the oracle compares against."""

    decision_count: int
    icr: float


def _isolation_entries(snapshot: dict) -> Dict[tuple, float]:
    """Flatten a ``IsolationReplay.state_dict()`` into (key -> time)."""
    entries: Dict[tuple, float] = {}
    for bank, rows in snapshot["spared_rows"]:
        for row, when in rows:
            entries[("row", tuple(bank), int(row))] = float(when)
    for bank, when in snapshot["spared_banks"]:
        entries[("bank", tuple(bank))] = float(when)
    return entries


def strip_poison_accounting(state: dict) -> dict:
    """A deep copy of a merged ``state_dict`` minus poison accounting.

    A supervised run of a poisoned stream differs from its twin (the
    stream with the poison positions removed) in exactly four places, all
    bookkeeping for the poison records themselves: the coordinator
    counted their submissions (``stats.events_ingested`` and the merged
    ``collector.events_ingested`` counter) and quarantined them under
    reason ``"poison"`` (the dead-letter list/counts and the
    ``collector.dead_letters{reason=poison}`` counter series).  Undo
    those and the states must match byte for byte.
    """
    from repro.telemetry.collector import REASON_POISON
    from repro.telemetry.metrics import _series_key

    state = copy.deepcopy(state)
    collector = state["collector"]
    planted = collector["dead_letter_counts"].pop(REASON_POISON, 0)
    collector["dead_letters"] = [
        entry for entry in collector["dead_letters"]
        if entry["reason"] != REASON_POISON]
    state["stats"]["events_ingested"] -= planted
    counters = state["metrics"]["counters"]
    counters["collector.events_ingested"] -= planted
    counters.pop(_series_key("collector.dead_letters",
                             {"reason": REASON_POISON}), None)
    return state


class InvariantOracle:
    """Validates a finished chaos run against the invariant catalogue.

    Args:
        plan: the plan that produced the run (divergence tolerances).
        clean: summary of the clean-stream run; omit to skip the
            divergence check (e.g. when validating the clean run itself).
    """

    def __init__(self, plan: ChaosPlan,
                 clean: Optional[CleanBaseline] = None) -> None:
        self.plan = plan
        self.clean = clean

    # -- individual invariants -----------------------------------------------
    def check_event_conservation(self, service: CordialService
                                 ) -> List[InvariantViolation]:
        """ingested == released + dead-lettered + buffered, both ledgers."""
        violations = []
        collector = service.collector
        metrics = service.metrics
        ingested = metrics.counter_value("collector.events_ingested")
        released = metrics.counter_value("collector.events_released")
        dead = sum(collector.dead_letter_counts.values())
        buffered = collector.pending_count
        if ingested != released + dead + buffered:
            violations.append(InvariantViolation(
                "event_conservation",
                f"collector ledger leaks events: ingested {ingested:g} != "
                f"released {released:g} + dead-lettered {dead} + "
                f"buffered {buffered}"))
        if service.stats.events_ingested != ingested:
            violations.append(InvariantViolation(
                "event_conservation",
                f"service counted {service.stats.events_ingested} ingests "
                f"but the collector counted {ingested:g}"))
        return violations

    def check_spare_budget(self, service: CordialService
                           ) -> List[InvariantViolation]:
        """No bank may exceed its row-sparing budget."""
        violations = []
        budget = service.replay.spares_per_bank
        for bank, rows in service.replay.spared_rows_by_bank().items():
            if len(rows) > budget:
                violations.append(InvariantViolation(
                    "spare_budget",
                    f"bank {bank} holds {len(rows)} spared rows, "
                    f"budget is {budget}"))
        return violations

    def check_isolation_monotonicity(self, service: CordialService,
                                     snapshots: Sequence[dict]
                                     ) -> List[InvariantViolation]:
        """Isolation only grows, and time-aware queries flip at the
        recorded isolation instant."""
        violations = []
        previous: Optional[Dict[tuple, float]] = None
        for index, snapshot in enumerate(snapshots):
            entries = _isolation_entries(snapshot)
            if previous is not None:
                for key, when in previous.items():
                    if key not in entries:
                        violations.append(InvariantViolation(
                            "isolation_monotonicity",
                            f"{key} isolated at snapshot {index - 1} "
                            f"but gone at snapshot {index}"))
                    elif entries[key] != when:
                        violations.append(InvariantViolation(
                            "isolation_monotonicity",
                            f"{key} isolation time changed "
                            f"{when} -> {entries[key]}"))
            previous = entries
        # Time-aware queries on the final state: strictly-before
        # semantics at the recorded instant, covered ever after.
        for bank, rows in service.replay.spared_rows_by_bank().items():
            for row, when in rows.items():
                if service.is_row_isolated(bank, row, at_time=when):
                    violations.append(InvariantViolation(
                        "isolation_monotonicity",
                        f"row {row} of bank {bank} reports isolated "
                        f"strictly before its own isolation time {when}"))
                if not service.is_row_isolated(bank, row,
                                               at_time=when + 1e-6):
                    violations.append(InvariantViolation(
                        "isolation_monotonicity",
                        f"row {row} of bank {bank} not isolated just "
                        f"after its isolation time {when}"))
                if not service.is_row_isolated(bank, row):
                    violations.append(InvariantViolation(
                        "isolation_monotonicity",
                        f"row {row} of bank {bank} has an isolation time "
                        f"but an untimed query denies it"))
        return violations

    def check_checkpoint_roundtrip(self, service: CordialService,
                                   scratch_path: str
                                   ) -> List[InvariantViolation]:
        """Final state must survive save -> load bit-identically."""
        try:
            save_service_checkpoint(service, scratch_path)
            restored = load_service_checkpoint(scratch_path)
        except Exception as exc:
            return [InvariantViolation(
                "checkpoint_roundtrip",
                f"checkpointing the final state failed: "
                f"{type(exc).__name__}: {exc}")]
        if restored.state_dict() != service.state_dict():
            return [InvariantViolation(
                "checkpoint_roundtrip",
                "restored state_dict differs from the live service")]
        return []

    def check_metrics_consistency(self, service: CordialService
                                  ) -> List[InvariantViolation]:
        """The registry must agree with the ledgers it mirrors."""
        violations = []
        metrics = service.metrics
        for reason, count in service.collector.dead_letter_counts.items():
            counted = metrics.counter_value("collector.dead_letters",
                                            labels={"reason": reason})
            if counted != count:
                violations.append(InvariantViolation(
                    "metrics_consistency",
                    f"dead-letter reason {reason!r}: registry says "
                    f"{counted:g}, ledger says {count}"))
        pairs = [
            ("collector.triggers_fired", service.stats.triggers_fired),
            ("service.repredictions", service.stats.repredictions),
            ("isolation.banks_spared", service.spared_banks),
        ]
        for name, truth in pairs:
            counted = metrics.counter_value(name)
            if counted != truth:
                violations.append(InvariantViolation(
                    "metrics_consistency",
                    f"counter {name}: registry says {counted:g}, "
                    f"ground truth is {truth}"))
        for action, count in service.stats.decisions_by_action.items():
            counted = metrics.counter_value("service.decisions",
                                            labels={"action": action})
            if counted != count:
                violations.append(InvariantViolation(
                    "metrics_consistency",
                    f"decision action {action!r}: registry says "
                    f"{counted:g}, stats say {count}"))
        return violations

    def check_tamper_detection(self, outcome: FaultedRun
                               ) -> List[InvariantViolation]:
        """Every damaged checkpoint must have been rejected, typed."""
        return [InvariantViolation(
            "tamper_detection",
            f"tampered checkpoint ({trial.mode}) was not rejected with "
            f"CheckpointCorruptionError "
            f"(got {trial.error or 'a successful load'})")
            for trial in outcome.tamper_trials if not trial.detected]

    def check_bounded_divergence(self, decision_count: int, icr: float
                                 ) -> List[InvariantViolation]:
        """Chaos may degrade the run, only within the plan's tolerance."""
        if self.clean is None:
            return []
        violations = []
        allowed = max(
            10.0, self.plan.max_decision_divergence
            * max(1, self.clean.decision_count))
        drift = abs(decision_count - self.clean.decision_count)
        if drift > allowed:
            violations.append(InvariantViolation(
                "bounded_divergence",
                f"decision count drifted by {drift} "
                f"({decision_count} vs clean "
                f"{self.clean.decision_count}; allowed {allowed:g})"))
        if abs(icr - self.clean.icr) > self.plan.max_icr_divergence:
            violations.append(InvariantViolation(
                "bounded_divergence",
                f"ICR drifted to {icr:.4f} from clean {self.clean.icr:.4f} "
                f"(allowed +/-{self.plan.max_icr_divergence})"))
        return violations

    def check_supervision(self, faulted_state: dict, twin_state: dict,
                          faulted_decisions: Sequence[Any],
                          twin_decisions: Sequence[Any],
                          faulted_icr: float, twin_icr: float,
                          poison_planted: int = 0
                          ) -> List[InvariantViolation]:
        """Faulted supervised run == undisturbed twin, byte for byte.

        ``faulted_state``/``twin_state`` are merged ``state_dict()``
        documents.  ``poison_planted`` poison records are expected in the
        faulted run's dead-letter ledger under reason ``"poison"`` (and
        nowhere else); their accounting is normalized away with
        :func:`strip_poison_accounting`, after which every field must
        match exactly.
        """
        violations: List[InvariantViolation] = []
        if len(faulted_decisions) != len(twin_decisions):
            violations.append(InvariantViolation(
                "supervision",
                f"decision count diverged: faulted run emitted "
                f"{len(faulted_decisions)}, twin emitted "
                f"{len(twin_decisions)}"))
        else:
            for index, (ours, theirs) in enumerate(
                    zip(faulted_decisions, twin_decisions)):
                if ours.to_obj() != theirs.to_obj():
                    violations.append(InvariantViolation(
                        "supervision",
                        f"decision {index} diverged: "
                        f"{ours.to_obj()} vs twin {theirs.to_obj()}"))
                    break
        if faulted_icr != twin_icr:
            violations.append(InvariantViolation(
                "supervision",
                f"ICR diverged: faulted {faulted_icr!r} "
                f"vs twin {twin_icr!r}"))
        counted = faulted_state["collector"]["dead_letter_counts"].get(
            "poison", 0)
        if counted != poison_planted:
            violations.append(InvariantViolation(
                "supervision",
                f"poison ledger mismatch: {poison_planted} poison records "
                f"planted, {counted} quarantined"))
        normalized = strip_poison_accounting(faulted_state)
        if normalized != twin_state:
            diverged = sorted(
                key for key in set(normalized) | set(twin_state)
                if json.dumps(normalized.get(key), sort_keys=True,
                              default=str)
                != json.dumps(twin_state.get(key), sort_keys=True,
                              default=str))
            violations.append(InvariantViolation(
                "supervision",
                "merged state diverged from the twin run after poison "
                f"normalization (differing sections: {diverged})"))
        return violations

    # -- the full battery ----------------------------------------------------
    def check_run(self, outcome: FaultedRun, icr: float,
                  scratch_path: str) -> List[InvariantViolation]:
        """Run every invariant over one finished serve; [] means healthy."""
        service = outcome.service
        violations: List[InvariantViolation] = []
        violations += self.check_event_conservation(service)
        violations += self.check_spare_budget(service)
        violations += self.check_isolation_monotonicity(
            service, outcome.isolation_snapshots)
        violations += self.check_checkpoint_roundtrip(service, scratch_path)
        violations += self.check_metrics_consistency(service)
        violations += self.check_tamper_detection(outcome)
        violations += self.check_bounded_divergence(
            len(outcome.decisions), icr)
        return violations
