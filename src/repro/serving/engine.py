"""The sharded fleet serving engine: route, serve, merge, checkpoint.

:class:`ShardedCordialEngine` scales the online serving path across
worker processes while keeping the single-service contract bit for bit:

* records are routed by stable bank-key hash
  (:mod:`repro.serving.router`), so each shard's service sees exactly
  the sub-stream one big service would have seen for its banks;
* ingest is dispatched in batches over persistent workers
  (:mod:`repro.serving.workers`); the fitted pipeline crosses to each
  worker once, as a persistence document;
* decisions come back as per-shard segments and are merged into the
  global ``(timestamp, sequence)`` emission order
  (:mod:`repro.serving.merge`), and the per-shard states union into one
  real :class:`~repro.core.online.CordialService`, so reports, ICR
  scoring, and the chaos oracle run on the fleet unchanged;
* :meth:`checkpoint` writes a manifest + per-shard checkpoint directory
  (:mod:`repro.serving.checkpoint`) that :meth:`restore` can load onto a
  *different* shard count by re-routing bank state.

Decisions, ICR, spare budgets, and checkpoint-restored state are
bit-identical for any ``(n_shards, n_jobs)`` — both knobs are pure
wall-clock levers (``tests/test_sharded_serving.py`` locks this down).
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Dict, List, Optional, Sequence

from repro.core.online import CordialService, Decision, ServeOutcome
from repro.core.pipeline import Cordial
from repro.ml.parallel import resolve_n_jobs
from repro.serving.checkpoint import (load_fleet_checkpoint,
                                      save_fleet_checkpoint)
from repro.serving.merge import (merge_decisions, merge_metrics,
                                 merge_service_states, merge_stats,
                                 split_service_state)
from repro.serving.router import FleetRouter
from repro.serving.supervisor import (DEFAULT_BATCH_TIMEOUT, FAILURE_CRASH,
                                      FAILURE_HANG, FAILURE_PROTOCOL,
                                      ShardFailureError, ShardSupervisor,
                                      SupervisorConfig)
from repro.serving.workers import ShardHost, worker_main
from repro.telemetry.collector import REASON_POISON, DeadLetter
from repro.telemetry.events import ErrorRecord
from repro.telemetry.metrics import EXPORT_VERSION, MetricsRegistry

#: Records buffered per shard before a batch crosses to its worker.
BATCH_SIZE = 256


def load_merged_checkpoint(directory: str):
    """``(manifest, pipeline, merged service state)`` of a fleet checkpoint.

    The shard states union into the one state a single service would
    hold, whatever topology the fleet was saved at.
    """
    manifest, services = load_fleet_checkpoint(directory)
    merged_state = merge_service_states(
        [service.state_dict() for service in services],
        manifest["router"], manifest["stats"],
        {"version": EXPORT_VERSION,
         "counters": dict(manifest["counters"]), "gauges": {}})
    return manifest, services[0].cordial, merged_state


class _LocalWorker:
    """In-process worker (``n_workers == 1``): the host runs inline.

    Host exceptions surface as :class:`ShardFailureError` of kind
    ``"crash"`` — the same classification a process worker's
    ``("error", traceback)`` reply gets — so supervision treats the two
    worker kinds identically and ``n_jobs`` stays a pure wall-clock
    knob even under fault injection.
    """

    supports_chaos = False

    def __init__(self, cordial: Cordial, config: dict,
                 shard_ids: Sequence[int], obs_spec: Optional[dict],
                 worker_index: int = 0) -> None:
        self.index = worker_index
        self._host = ShardHost(cordial, config, shard_ids, obs_spec)

    def _guard(self, op: str, call):
        try:
            return call()
        except ShardFailureError:
            raise
        except Exception as exc:
            raise ShardFailureError(
                FAILURE_CRASH, op, f"{type(exc).__name__}: {exc}",
                worker_index=self.index) from exc

    def load(self, shard_id: int, state: dict) -> None:
        self._guard("load", lambda: self._host.load(shard_id, state))

    def batch(self, shard_id: int, records: List[ErrorRecord]) -> None:
        self._guard("batch", lambda: self._host.batch(shard_id, records))

    def checkpoint(self) -> Dict[int, dict]:
        return self._guard("checkpoint", self._host.checkpoint)

    def snapshot(self) -> Dict[int, dict]:
        return self._guard("snapshot", self._host.snapshot)

    def finish(self) -> Dict[int, dict]:
        return self._guard("finish", self._host.finish)

    def ping(self) -> None:
        pass

    def terminate(self) -> None:
        pass

    def close(self) -> None:
        pass


class _ProcessWorker:
    """A spawned worker process driven over a duplex pipe.

    Every pipe interaction is wrapped in the typed failure surface:
    a closed pipe or worker-side exception raises
    :class:`ShardFailureError` of kind ``"crash"``, a reply missing its
    ``batch_timeout`` deadline (``poll()`` — never a blocking ``recv``)
    raises kind ``"hang"``, and an unintelligible or unexpected reply
    raises kind ``"protocol"``.  Raw ``EOFError`` / ``BrokenPipeError``
    / ``OSError`` never escape to callers.
    """

    supports_chaos = True

    def __init__(self, pipeline_document: dict, config: dict,
                 shard_ids: Sequence[int], obs_spec: Optional[dict],
                 worker_index: int = 0,
                 batch_timeout: float = DEFAULT_BATCH_TIMEOUT) -> None:
        self.index = worker_index
        self._batch_timeout = batch_timeout
        self._ping_token = 0
        context = multiprocessing.get_context("spawn")
        self._conn, child = context.Pipe()
        self._process = context.Process(target=worker_main, args=(child,),
                                        daemon=True)
        self._process.start()
        child.close()
        self._send(("init", {"pipeline": pipeline_document,
                             "config": config,
                             "shard_ids": list(shard_ids),
                             "obs": obs_spec}))

    def _fail(self, kind: str, op: str, detail: str,
              cause: Optional[BaseException] = None) -> ShardFailureError:
        error = ShardFailureError(kind, op, detail, worker_index=self.index)
        if cause is not None:
            error.__cause__ = cause
        return error

    def _send(self, message) -> None:
        try:
            self._conn.send(message)
        except (BrokenPipeError, OSError) as exc:
            raise self._fail(FAILURE_CRASH, message[0],
                             f"pipe closed while sending: {exc}", exc)

    def _ask(self, message, expect: str):
        op = message[0]
        self._send(message)
        try:
            ready = self._conn.poll(self._batch_timeout)
        except (BrokenPipeError, OSError) as exc:
            raise self._fail(FAILURE_CRASH, op,
                             f"pipe failed while waiting for a reply: {exc}",
                             exc)
        if not ready:
            raise self._fail(
                FAILURE_HANG, op,
                f"no reply within batch_timeout={self._batch_timeout}s")
        try:
            reply = self._conn.recv()
        except EOFError as exc:
            raise self._fail(FAILURE_CRASH, op,
                             "pipe closed before the reply", exc)
        except (BrokenPipeError, OSError) as exc:
            raise self._fail(FAILURE_CRASH, op,
                             f"pipe failed while receiving: {exc}", exc)
        except Exception as exc:
            raise self._fail(FAILURE_PROTOCOL, op,
                             f"undecodable reply: {exc}", exc)
        if not (isinstance(reply, tuple) and len(reply) == 2):
            raise self._fail(FAILURE_PROTOCOL, op,
                             f"unintelligible reply: {reply!r}")
        kind, payload = reply
        if kind == "error":
            raise self._fail(FAILURE_CRASH, op, f"worker raised:\n{payload}")
        if kind != expect:
            raise self._fail(FAILURE_PROTOCOL, op,
                             f"expected {expect!r} reply, got {kind!r}")
        return payload

    def load(self, shard_id: int, state: dict) -> None:
        self._send(("load", shard_id, state))

    def batch(self, shard_id: int, records: List[ErrorRecord]) -> None:
        self._send(("batch", shard_id, records))

    def checkpoint(self) -> Dict[int, dict]:
        return self._ask(("checkpoint",), "checkpoint")

    def snapshot(self) -> Dict[int, dict]:
        return self._ask(("snapshot",), "snapshot")

    def finish(self) -> Dict[int, dict]:
        return self._ask(("finish",), "finish")

    def ping(self) -> None:
        """Round-trip sync: proves every earlier message was processed."""
        self._ping_token += 1
        token = self._ping_token
        payload = self._ask(("ping", token), "pong")
        if payload != token:
            raise self._fail(FAILURE_PROTOCOL, "ping",
                             f"pong token mismatch: {payload!r} != {token!r}")

    def chaos(self, mode: str) -> None:
        """Queue one injected fault behind the already-sent messages."""
        self._send(("chaos", mode))

    def terminate(self) -> None:
        """Hard-kill the worker (recovery path: no goodbye protocol)."""
        if self._process.is_alive():
            self._process.terminate()
        self._process.join(timeout=5)
        if self._process.is_alive():  # pragma: no cover - stuck in kernel
            self._process.kill()
            self._process.join(timeout=5)
        try:
            self._conn.close()
        except OSError:  # pragma: no cover - already torn down
            pass

    def close(self) -> None:
        try:
            self._conn.send(("stop",))
        except (BrokenPipeError, OSError, ValueError):
            pass  # a dead worker is an acceptable outcome of a stop request
        self._process.join(timeout=10)
        if self._process.is_alive():  # pragma: no cover - hung worker
            self._process.terminate()
            self._process.join(timeout=5)
        try:
            self._conn.close()
        except OSError:  # pragma: no cover - interpreter teardown
            pass


class ShardedCordialEngine:
    """Coordinator of a sharded fleet of ``CordialService`` shards.

    Args:
        cordial: a fitted pipeline; shipped to each worker once.
        n_shards: bank-key partitions.  Decisions/ICR/state are
            identical for any value; more shards expose more
            parallelism.
        n_jobs: worker processes (``ml.parallel.resolve_n_jobs``
            semantics; capped at ``n_shards``).  ``1`` runs every shard
            in-process — a pure wall-clock knob, never a results knob.
        spares_per_bank / max_skew: per-shard service configuration
            (the router shares ``max_skew`` for its global watermark).
        obs_dir: when given, every shard journals into
            ``obs_dir/shard-NN`` (restored engines under
            ``obs_dir/epoch-NN/shard-NN``, respawned workers under
            ``obs_dir/restart-NN/shard-NN`` — a journal file must never
            be re-opened by a second writer mid-run).
        supervisor: a :class:`SupervisorConfig` turns on shard
            supervision — crash/hang/protocol failures of one worker
            recover by deterministic replay instead of killing the run,
            and ``supervisor.batch_timeout`` governs every
            coordinator-side receive.  Output stays byte-identical to an
            unsupervised run (``tests/test_shard_supervision.py``).
        batch_timeout: receive deadline (seconds) when running
            *unsupervised* — a dead or hung worker fails fast with a
            typed :class:`ShardFailureError` instead of blocking
            forever.
    """

    def __init__(self, cordial: Cordial, n_shards: int, n_jobs: int = 1,
                 spares_per_bank: int = 64, max_skew: float = 0.0,
                 obs_dir: Optional[str] = None,
                 obs_provenance: Optional[dict] = None,
                 obs_attributions: bool = False,
                 batch_size: int = BATCH_SIZE, epoch: int = 0,
                 supervisor: Optional[SupervisorConfig] = None,
                 batch_timeout: float = DEFAULT_BATCH_TIMEOUT) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if batch_timeout <= 0:
            raise ValueError("batch_timeout must be > 0")
        self.cordial = cordial
        self.n_shards = n_shards
        self.n_jobs = n_jobs
        self.n_workers = min(resolve_n_jobs(n_jobs), n_shards)
        self.spares_per_bank = spares_per_bank
        self.max_skew = max_skew
        self.obs_dir = obs_dir
        self.obs_provenance = obs_provenance
        self.obs_attributions = obs_attributions
        self.epoch = epoch
        self.router = FleetRouter(n_shards, max_skew=max_skew)
        self._batch_size = batch_size
        self._events_submitted = 0
        self._carried_stats: Optional[dict] = None
        self._carried_counters: Optional[Dict[str, float]] = None
        self._segments: List[List[Decision]] = []
        self._buffers: Dict[int, List[ErrorRecord]] = {
            shard_id: [] for shard_id in range(n_shards)}

        config = {"spares_per_bank": spares_per_bank, "max_skew": max_skew}
        self._worker_config = config
        self._pipeline_document: Optional[dict] = None
        self.supervisor_config = supervisor
        self._batch_timeout = (supervisor.batch_timeout
                               if supervisor is not None else batch_timeout)
        self._obs_base = None
        if obs_dir is not None:
            self._obs_base = (obs_dir if epoch == 0
                              else os.path.join(obs_dir, f"epoch-{epoch:02d}"))
        shard_ids_of = [
            [shard_id for shard_id in range(n_shards)
             if shard_id % self.n_workers == worker]
            for worker in range(self.n_workers)]
        self._workers: List = [
            self._spawn_worker(index, shard_ids, 0)
            for index, shard_ids in enumerate(shard_ids_of)]
        self._worker_of = {shard_id: self._workers[shard_id % self.n_workers]
                           for shard_id in range(n_shards)}

        self.supervisor_metrics: Optional[MetricsRegistry] = None
        self._supervisor: Optional[ShardSupervisor] = None
        self._sup_obs = None
        if supervisor is not None:
            self.supervisor_metrics = MetricsRegistry()
            journal = audit = None
            if self._obs_base is not None:
                from repro.obs import Observability

                provenance = dict(obs_provenance or {})
                provenance["role"] = "supervisor"
                self._sup_obs = Observability.create(
                    os.path.join(self._obs_base, "supervisor"),
                    metrics=self.supervisor_metrics, provenance=provenance)
                journal, audit = self._sup_obs.journal, self._sup_obs.audit
            self._supervisor = ShardSupervisor(
                supervisor, spawn=self._spawn_worker,
                spawn_fallback=self._spawn_fallback,
                on_segment=lambda segment: self._segments.append(segment),
                on_poison=self._quarantine_poison,
                metrics=self.supervisor_metrics, journal=journal, audit=audit)
            for worker, shard_ids in zip(self._workers, shard_ids_of):
                self._supervisor.register(worker, shard_ids)

    # -- worker lifecycle ----------------------------------------------------
    def _worker_obs_spec(self, restart: int) -> Optional[dict]:
        """Observability spec for a (re)spawned worker.

        Respawns write under ``restart-NN`` so no journal file ever gets
        a second writer (mirrors the ``epoch-NN`` restore convention).
        """
        if self._obs_base is None:
            return None
        directory = (self._obs_base if restart == 0 else
                     os.path.join(self._obs_base, f"restart-{restart:02d}"))
        return {"directory": directory,
                "provenance": dict(self.obs_provenance or {}),
                "attributions": self.obs_attributions}

    def _spawn_worker(self, worker_index: int, shard_ids: Sequence[int],
                      restart: int):
        """A fresh worker of the engine's native kind."""
        obs_spec = self._worker_obs_spec(restart)
        if self.n_workers == 1:
            return _LocalWorker(self.cordial, self._worker_config, shard_ids,
                                obs_spec, worker_index=worker_index)
        if self._pipeline_document is None:
            from repro.core.persistence import pipeline_to_document

            self._pipeline_document = pipeline_to_document(self.cordial)
        return _ProcessWorker(self._pipeline_document, self._worker_config,
                              shard_ids, obs_spec, worker_index=worker_index,
                              batch_timeout=self._batch_timeout)

    def _spawn_fallback(self, worker_index: int, shard_ids: Sequence[int],
                        restart: int):
        """Degraded-mode fallback: the shards run in the coordinator."""
        return _LocalWorker(self.cordial, self._worker_config, shard_ids,
                            self._worker_obs_spec(restart),
                            worker_index=worker_index)

    def _quarantine_poison(self, record, shard_id: int, detail: str) -> None:
        """Dead-letter one poison record on the coordinator ledger.

        The record itself is *not* stored: rendering a poison record
        (``state_dict`` → ``record_to_obj``) could detonate it again.
        """
        timestamp = None
        try:
            timestamp = float(record.timestamp)
        except Exception:  # noqa: BLE001 - poison by definition misbehaves
            pass
        self.router.ledger.add(DeadLetter(REASON_POISON, detail,
                                          timestamp=timestamp))

    # -- streaming -----------------------------------------------------------
    def submit(self, record: ErrorRecord) -> None:
        """Route one event to its shard (or the quarantine ledger)."""
        self._events_submitted += 1
        shard_id = self.router.route(record)
        if shard_id is None:
            return
        buffered = self._buffers[shard_id]
        buffered.append(record)
        if len(buffered) >= self._batch_size:
            self._dispatch(shard_id)

    def _dispatch(self, shard_id: int) -> None:
        buffered = self._buffers[shard_id]
        if buffered:
            if self._supervisor is not None:
                self._supervisor.dispatch(shard_id, buffered)
            else:
                self._worker_of[shard_id].batch(shard_id, buffered)
            self._buffers[shard_id] = []

    def _dispatch_all(self) -> None:
        for shard_id in range(self.n_shards):
            self._dispatch(shard_id)

    def inject_fault(self, shard_id: int, mode: str) -> None:
        """Chaos hook: fault the worker owning ``shard_id``.

        ``mode`` is one of ``supervisor.FAULT_MODES`` (``"crash"``,
        ``"hang"``, ``"garbage"``).  Requires supervision — injecting a
        fault into an unsupervised fleet would just kill the run.
        """
        if self._supervisor is None:
            raise RuntimeError(
                "fault injection requires a supervised engine "
                "(pass supervisor=SupervisorConfig())")
        self._dispatch(shard_id)  # keep pre-fault records ahead of the fault
        self._supervisor.inject_fault(shard_id, mode)

    # -- checkpointing -------------------------------------------------------
    def checkpoint(self, directory: str) -> str:
        """Snapshot the fleet into a checkpoint directory (mid-stream).

        Returns the manifest path.  Decision segments drained at the
        snapshot stay with the engine (and pass to its
        :meth:`restore_successor`) until :meth:`finish` merges them.
        """
        self._dispatch_all()
        shard_documents: List[Optional[dict]] = [None] * self.n_shards
        if self._supervisor is not None:
            payloads = [self._supervisor.checkpoint_worker(slot)
                        for slot in self._supervisor.slots]
        else:
            payloads = [worker.checkpoint() for worker in self._workers]
        for payload in payloads:
            for shard_id, entry in sorted(payload.items()):
                shard_documents[shard_id] = entry["document"]
                self._segments.append(entry["decisions"])
        stats, counters = self._merge_totals(
            [document["state"] for document in shard_documents])
        config = {"spares_per_bank": self.spares_per_bank,
                  "max_skew": self.max_skew}
        return save_fleet_checkpoint(directory, shard_documents,
                                     self.router.state_dict(), stats,
                                     counters["counters"], config)

    def _merge_totals(self, shard_states: List[dict]):
        """Fleet stats and counters: carried totals plus every shard's."""
        stats = merge_stats([state["stats"] for state in shard_states],
                            self._events_submitted,
                            carried=self._carried_stats)
        return stats, merge_metrics(
            [state["metrics"] for state in shard_states],
            self.router.dead_letter_counts, stats["events_ingested"],
            carried_counters=self._carried_counters)

    def drain_segments(self) -> List[List[Decision]]:
        """Take ownership of the decision segments drained so far."""
        segments = self._segments
        self._segments = []
        return segments

    @classmethod
    def restore(cls, directory: str, n_shards: Optional[int] = None,
                n_jobs: int = 1, obs_dir: Optional[str] = None,
                obs_provenance: Optional[dict] = None,
                obs_attributions: bool = False,
                batch_size: int = BATCH_SIZE,
                epoch: int = 1,
                supervisor: Optional[SupervisorConfig] = None,
                batch_timeout: float = DEFAULT_BATCH_TIMEOUT
                ) -> "ShardedCordialEngine":
        """Restore a fleet from a checkpoint directory.

        ``n_shards`` defaults to the saved topology but may differ: the
        shard states are merged and re-split by the stable bank hash, so
        a fleet saved at 4 shards restores onto 2 (or 8) with
        bit-identical downstream behaviour.
        """
        manifest, cordial, merged_state = load_merged_checkpoint(directory)
        if n_shards is None:
            n_shards = int(manifest["n_shards"])
        config = manifest["config"]
        engine = cls(cordial, n_shards, n_jobs=n_jobs,
                     spares_per_bank=int(config["spares_per_bank"]),
                     max_skew=float(config["max_skew"]), obs_dir=obs_dir,
                     obs_provenance=obs_provenance,
                     obs_attributions=obs_attributions,
                     batch_size=batch_size, epoch=epoch,
                     supervisor=supervisor, batch_timeout=batch_timeout)
        engine.router.load_state_dict(manifest["router"])
        engine._carried_stats = dict(manifest["stats"])
        engine._carried_counters = dict(manifest["counters"])
        for shard_id, state in enumerate(
                split_service_state(merged_state, n_shards)):
            if engine._supervisor is not None:
                # The restored split state becomes the slot baseline, so
                # a later failure replays from here, not from scratch.
                engine._supervisor.load(shard_id, state)
            else:
                engine._worker_of[shard_id].load(shard_id, state)
        return engine

    def restore_successor(self, directory: str) -> "ShardedCordialEngine":
        """The restarted engine that resumes from ``directory``.

        Carries this engine's topology and observability configuration
        forward (the successor journals under the next epoch directory)
        and takes over its undrained decision segments, so the
        successor's :meth:`finish` merges the whole run.  Close this
        engine first.
        """
        successor = ShardedCordialEngine.restore(
            directory, n_shards=self.n_shards, n_jobs=self.n_jobs,
            obs_dir=self.obs_dir, obs_provenance=self.obs_provenance,
            obs_attributions=self.obs_attributions,
            batch_size=self._batch_size, epoch=self.epoch + 1,
            supervisor=self.supervisor_config,
            batch_timeout=self._batch_timeout)
        successor._segments = self.drain_segments()
        return successor

    # -- completion ----------------------------------------------------------
    def finish(self) -> ServeOutcome:
        """Flush every shard, merge, and return the fleet outcome."""
        self._dispatch_all()
        shard_states: List[Optional[dict]] = [None] * self.n_shards
        obs_blocks: Dict[str, dict] = {}
        if self._supervisor is not None:
            payloads = [self._supervisor.finish_worker(slot)
                        for slot in self._supervisor.slots]
        else:
            payloads = [worker.finish() for worker in self._workers]
        for payload in payloads:
            for shard_id, entry in sorted(payload.items()):
                self._segments.append(entry["decisions"])
                shard_states[shard_id] = entry["state"]
                if "obs" in entry:
                    obs_blocks[f"shard-{shard_id:02d}"] = entry["obs"]
        decisions = merge_decisions(self._segments)
        self._segments = []
        stats, metrics = self._merge_totals(shard_states)
        merged_state = merge_service_states(shard_states,
                                            self.router.state_dict(),
                                            stats, metrics)
        service = CordialService(self.cordial,
                                 spares_per_bank=self.spares_per_bank,
                                 max_skew=self.max_skew)
        service.load_state_dict(merged_state)
        obs = None
        if obs_blocks:
            obs = {
                "shards": obs_blocks,
                "merged": {
                    "journal_events_total": sum(
                        block["summary"]["journal"]["events_journalled"]
                        for block in obs_blocks.values()),
                    "audit_records_total": sum(
                        block["summary"]["audit"]["records"]
                        for block in obs_blocks.values()),
                },
            }
        if self._sup_obs is not None:
            artifacts = self._sup_obs.export(
                os.path.join(self._obs_base, "supervisor"),
                metrics=self.supervisor_metrics)
            obs = obs or {}
            obs["supervisor"] = {"artifacts": artifacts,
                                 "summary": self._sup_obs.summary()}
        return ServeOutcome(decisions=decisions, service=service,
                            stats=stats, metrics=metrics, obs=obs)

    def close(self) -> None:
        """Stop every worker (idempotent)."""
        if self._supervisor is not None:
            # Respawns replace slot workers; the supervisor knows the
            # live set (stale handles were terminated at replacement).
            self._supervisor.close()
            return
        for worker in self._workers:
            worker.close()
