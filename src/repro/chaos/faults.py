"""Process-level faults: kill/restore cycles and checkpoint tampering.

The one serving loop (:func:`repro.serving.serve`) kills a service or
a whole fleet at scheduled ingest points: at each kill the sink is
checkpointed, *the object is discarded*, and a fresh one is restored
from the checkpoint — the same restart the ``serve-replay --checkpoint``
path exercises once, here repeated at arbitrary depth.  The chaos side
of a kill is :class:`KillHook`: it snapshots the isolation ledger for
the monotonicity invariant and optionally load-tests deliberately
damaged copies of the checkpoint (truncated, header-mangled,
key-dropped), recording whether the persistence layer rejected them
with the typed
:class:`~repro.core.persistence.CheckpointCorruptionError` — the oracle
turns any undetected tamper into a violation.

Every choice (tamper bytes, truncation point) comes from the caller's
RNG, so fault schedules are as reproducible as the stream operators.
"""

from __future__ import annotations

import copy
import json
import os
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.online import CordialService, Decision, ServeOutcome
from repro.core.persistence import (CheckpointCorruptionError,
                                    load_service_checkpoint)
from repro.serving.engine import load_merged_checkpoint

#: Supported checkpoint tampering modes.
TAMPER_MODES = ("truncate", "mangle_header", "drop_key")

#: Per-shard worker fault operators -> the engine's in-band chaos modes
#: (:data:`repro.serving.supervisor.FAULT_MODES`).
WORKER_FAULT_MODES = {
    "worker_crash": "crash",   # worker process dies mid-stream
    "worker_hang": "hang",     # worker stops replying (deadline trips)
    "pipe_garbage": "garbage",  # worker writes an undecodable reply
}


@dataclass(frozen=True)
class WorkerFault:
    """One scheduled per-shard worker fault.

    Attributes:
        at_event: 1-based ingest count after which the fault is injected.
        shard: target shard id (the supervisor recovers that shard's
            worker slot).
        mode: operator name, a key of :data:`WORKER_FAULT_MODES`.
    """

    at_event: int
    shard: int
    mode: str

    def __post_init__(self) -> None:
        if self.mode not in WORKER_FAULT_MODES:
            raise ValueError(
                f"unknown worker fault mode: {self.mode!r} "
                f"(known: {sorted(WORKER_FAULT_MODES)})")
        if self.at_event < 1:
            raise ValueError("at_event must be >= 1")

    @property
    def engine_mode(self) -> str:
        """The engine's in-band chaos mode this operator injects."""
        return WORKER_FAULT_MODES[self.mode]

    def to_obj(self) -> dict:
        """JSON-ready rendering."""
        return {"at_event": self.at_event, "shard": self.shard,
                "mode": self.mode}


@dataclass(frozen=True)
class TamperTrial:
    """Outcome of one tampered-checkpoint load attempt.

    Attributes:
        mode: tamper mode applied (see :data:`TAMPER_MODES`).
        detected: True when loading raised the typed corruption error.
        error: the exception class name actually raised ("" when the
            load wrongly succeeded).
    """

    mode: str
    detected: bool
    error: str

    def to_obj(self) -> dict:
        """JSON-ready rendering."""
        return {"mode": self.mode, "detected": self.detected,
                "error": self.error}


@dataclass
class FaultedRun:
    """Everything one faulted serve produced, for the oracle to judge.

    Attributes:
        service: the service instance holding the final state (the last
            restored one when kills happened).
        decisions: every decision in emission order.
        restore_count: kill/restore cycles actually performed.
        tamper_trials: tampered-checkpoint load attempts, in order.
        isolation_snapshots: ``IsolationReplay.state_dict()`` captured at
            each kill point plus at end of stream — the material for the
            isolation-monotonicity invariant.
    """

    service: CordialService
    decisions: List[Decision]
    restore_count: int
    tamper_trials: List[TamperTrial]
    isolation_snapshots: List[dict]


def tamper_checkpoint(path: str, mode: str, rng: np.random.Generator,
                      destination: Optional[str] = None) -> str:
    """Write a damaged copy of a checkpoint file; returns its path.

    ``truncate`` keeps a prefix of the bytes (a crash mid-write),
    ``mangle_header`` flips a byte inside the format header (bit rot in
    the one region whose damage is always structural), and ``drop_key``
    deletes one required top-level state entry (a partial or
    hand-edited document).
    """
    if mode not in TAMPER_MODES:
        raise ValueError(f"unknown tamper mode: {mode!r}")
    destination = destination or path + f".tampered-{mode}"
    with open(path, "rb") as handle:
        payload = handle.read()
    if mode == "truncate":
        cut = int(len(payload) * float(rng.uniform(0.05, 0.9)))
        damaged = payload[:cut]
    elif mode == "mangle_header":
        # The document starts {"format": "cordial-service-checkpoint" —
        # flipping a low bit of one of those bytes breaks either the JSON
        # structure or the format string, never silently a value.
        position = int(rng.integers(2, min(40, len(payload))))
        damaged = (payload[:position]
                   + bytes([payload[position] ^ 0x01])
                   + payload[position + 1:])
    else:  # drop_key
        document = json.loads(payload.decode("utf-8"))
        keys = sorted(document.get("state", {}))
        if keys:
            victim = keys[int(rng.integers(0, len(keys)))]
            del document["state"][victim]
        else:
            document.pop("state", None)
        damaged = json.dumps(document).encode("utf-8")
    with open(destination, "wb") as handle:
        handle.write(damaged)
    return destination


def _load_trial(mode: str, load) -> TamperTrial:
    """One load of damaged bytes: detected iff the typed error is raised."""
    try:
        load()
    except CheckpointCorruptionError as exc:
        return TamperTrial(mode=mode, detected=True,
                           error=type(exc).__name__)
    except Exception as exc:  # wrong type: a miss, not a crash
        return TamperTrial(mode=mode, detected=False,
                           error=type(exc).__name__)
    return TamperTrial(mode=mode, detected=False, error="")


def run_tamper_trials(path: str, modes: Sequence[str],
                      rng: np.random.Generator) -> List[TamperTrial]:
    """Load-test one tampered copy of ``path`` per mode."""
    trials: List[TamperTrial] = []
    for mode in modes:
        damaged = tamper_checkpoint(path, mode, rng)
        try:
            trials.append(_load_trial(
                mode, lambda: load_service_checkpoint(damaged)))
        finally:
            os.remove(damaged)
    return trials


def run_fleet_tamper_trials(directory: str, modes: Sequence[str],
                            rng: np.random.Generator) -> List[TamperTrial]:
    """Load-test a *fleet* checkpoint directory against tampering.

    Each mode damages ``shard-00.ckpt.json`` **in place** (original bytes
    restored afterwards) and attempts a full fleet load — the manifest
    must not vouch for a shard file the service layer would reject.  A
    final pair of trials damages the manifest itself (``truncate`` and
    ``mangle_header`` only: the manifest has no ``"state"`` entry, so a
    ``drop_key`` trial would "pass" without removing anything).  Trial
    modes are prefixed ``shard:`` / ``manifest:`` in the report.
    """
    from repro.serving.checkpoint import (MANIFEST_FILE,
                                          load_fleet_checkpoint,
                                          shard_file_name)

    def damaged_load(name: str, mode: str, label: str) -> TamperTrial:
        path = os.path.join(directory, name)
        with open(path, "rb") as handle:
            original = handle.read()
        try:
            tamper_checkpoint(path, mode, rng, destination=path)
            return _load_trial(label,
                               lambda: load_fleet_checkpoint(directory))
        finally:
            with open(path, "wb") as handle:
                handle.write(original)

    trials = [damaged_load(shard_file_name(0), mode, f"shard:{mode}")
              for mode in modes]
    trials += [damaged_load(MANIFEST_FILE, mode, f"manifest:{mode}")
               for mode in modes if mode != "drop_key"]
    return trials


class KillHook:
    """The chaos side of each kill: ``serve(..., on_kill=hook)``.

    At every kill checkpoint it snapshots the isolation ledger (a
    fleet's merged from its checkpoint directory) and, with
    ``tamper_modes``, load-tests damaged copies of the checkpoint;
    :meth:`outcome` then packages the finished run for the oracle.
    Every tamper choice comes from ``rng``.
    """

    def __init__(self, rng: np.random.Generator,
                 tamper_modes: Sequence[str] = ()) -> None:
        self.rng = rng
        self.tamper_modes = tuple(tamper_modes)
        self.restore_count = 0
        self.tamper_trials: List[TamperTrial] = []
        self.isolation_snapshots: List[dict] = []

    def __call__(self, sink, path: str) -> None:
        self.restore_count += 1
        if isinstance(sink, CordialService):
            snapshot = copy.deepcopy(sink.replay.state_dict())
            trials = run_tamper_trials
        else:
            snapshot = load_merged_checkpoint(path)[2]["replay"]
            trials = run_fleet_tamper_trials
        self.isolation_snapshots.append(snapshot)
        if self.tamper_modes:
            self.tamper_trials.extend(trials(path, self.tamper_modes,
                                             self.rng))

    def outcome(self, served: ServeOutcome) -> FaultedRun:
        """The faulted run of ``served`` (plus its end-of-stream ledger)."""
        return FaultedRun(
            service=served.service, decisions=served.decisions,
            restore_count=self.restore_count,
            tamper_trials=list(self.tamper_trials),
            isolation_snapshots=self.isolation_snapshots + [
                copy.deepcopy(served.service.replay.state_dict())])
