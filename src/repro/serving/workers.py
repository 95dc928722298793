"""Shard hosts: the per-worker runtime of the fleet serving engine.

One :class:`ShardHost` owns one or more shards, each an independent
:class:`~repro.core.online.CordialService` with its own metrics registry
and (optionally) its own observability bundle writing into
``obs_dir/shard-NN``.  The host speaks a tiny message protocol — init /
load / batch / checkpoint / finish — and is deliberately process-agnostic:
the engine drives it directly in-process when one worker suffices, or
through :func:`worker_main` over a ``multiprocessing`` pipe when the
fleet fans out, and the two paths execute the identical code (the
``n_jobs`` bit-invariance contract of ``ml/parallel.py``, applied to
serving).

Batch messages get no replies — the coordinator streams ingest batches
one way and only synchronises on checkpoint/finish, so the pipe carries
pure producer→consumer backpressure and can never deadlock.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Sequence

from repro.core.online import CordialService
from repro.core.pipeline import Cordial
from repro.obs import Observability
from repro.telemetry.events import ErrorRecord
from repro.telemetry.metrics import MetricsRegistry


def shard_obs_directory(base: str, shard_id: int) -> str:
    """Observability directory of one shard under the run's base dir."""
    return os.path.join(base, f"shard-{shard_id:02d}")


class ShardHost:
    """Runs the shard services assigned to one worker.

    Args:
        cordial: the fitted pipeline (shared by every shard service).
        config: ``{"spares_per_bank": int, "max_skew": float}``.
        shard_ids: the shards this host owns.
        obs_spec: ``None`` or ``{"directory": str, "provenance": dict,
            "attributions": bool}`` — each shard gets its own bundle
            under ``directory/shard-NN`` with ``"shard": id`` stamped
            into its journal provenance.
    """

    def __init__(self, cordial: Cordial, config: dict,
                 shard_ids: Sequence[int],
                 obs_spec: Optional[dict] = None) -> None:
        self.cordial = cordial
        self.config = dict(config)
        self.obs_spec = obs_spec
        self.services: Dict[int, CordialService] = {}
        self._obs_dirs: Dict[int, str] = {}
        for shard_id in shard_ids:
            self.services[shard_id] = self._create_service(shard_id)

    def _create_service(self, shard_id: int) -> CordialService:
        metrics = MetricsRegistry()
        obs = None
        if self.obs_spec is not None:
            directory = shard_obs_directory(self.obs_spec["directory"],
                                            shard_id)
            self._obs_dirs[shard_id] = directory
            provenance = dict(self.obs_spec.get("provenance") or {})
            provenance["shard"] = shard_id
            obs = Observability.create(
                directory, metrics=metrics, provenance=provenance,
                attributions=bool(self.obs_spec.get("attributions", False)))
        return CordialService(
            self.cordial,
            spares_per_bank=int(self.config["spares_per_bank"]),
            max_skew=float(self.config["max_skew"]),
            metrics=metrics, obs=obs)

    # -- protocol ------------------------------------------------------------
    def load(self, shard_id: int, state: dict) -> None:
        """Restore one shard from a split service state dict."""
        service = self.services[shard_id]
        service.load_state_dict(state)
        if service.obs is not None:
            service.obs.journal.checkpoint(
                "restore", at_event=service.stats.events_ingested)

    def batch(self, shard_id: int, records: Sequence[ErrorRecord]) -> None:
        """Ingest one routed batch; decisions buffer until a sync point."""
        service = self.services[shard_id]
        for record in records:
            service.submit(record)

    def checkpoint(self) -> Dict[int, dict]:
        """Snapshot every shard; drains each shard's decision segment.

        The reorder buffers are *not* flushed — a checkpoint is a
        mid-stream snapshot, exactly like the single-service path.
        """
        from repro.core.persistence import service_to_document

        out: Dict[int, dict] = {}
        for shard_id in sorted(self.services):
            service = self.services[shard_id]
            if service.obs is not None:
                service.obs.journal.checkpoint(
                    "save", at_event=service.stats.events_ingested)
            [segment] = service.drain_segments()
            out[shard_id] = {
                "document": service_to_document(service),
                "decisions": segment,
            }
        return out

    def snapshot(self) -> Dict[int, dict]:
        """Supervision baseline: every shard's state dict + drained segment.

        Lighter than :meth:`checkpoint` (no persistence document, no
        journal event) — this is the supervisor's recovery point, not an
        operator-visible checkpoint, and it must leave no trace a clean
        run would lack.
        """
        out: Dict[int, dict] = {}
        for shard_id in sorted(self.services):
            service = self.services[shard_id]
            [segment] = service.drain_segments()
            out[shard_id] = {
                "state": service.state_dict(),
                "decisions": segment,
            }
        return out

    def finish(self) -> Dict[int, dict]:
        """Flush every shard and return its final segment + state (+obs)."""
        out: Dict[int, dict] = {}
        for shard_id in sorted(self.services):
            service = self.services[shard_id]
            entry = {
                "decisions": service.finish().decisions,
                "state": service.state_dict(),
            }
            if service.obs is not None:
                artifacts = service.obs.export(self._obs_dirs[shard_id],
                                               metrics=service.metrics)
                entry["obs"] = {"artifacts": artifacts,
                                "summary": service.obs.summary()}
            out[shard_id] = entry
        return out


def worker_main(conn) -> None:
    """Process entry point: serve ShardHost messages over a pipe.

    Protocol (coordinator → worker unless noted)::

        ("init", {"pipeline": doc, "config": {...},
                  "shard_ids": [...], "obs": spec-or-None})
        ("load", shard_id, state)
        ("batch", shard_id, [records...])          # no reply
        ("checkpoint",)  → ("checkpoint", {sid: {...}})
        ("snapshot",)    → ("snapshot", {sid: {...}})
        ("finish",)      → ("finish", {sid: {...}})
        ("ping", token)  → ("pong", token)
        ("chaos", mode)                            # test-only fault hook
        ("stop",)
        any failure      → ("error", traceback text)

    The pipeline crosses the pipe once, as its persistence document
    (parsed with :func:`pipeline_from_document`), never per batch.

    The ``chaos`` message exists for the supervision harness:
    ``"crash"`` hard-exits the process mid-protocol, ``"hang"`` makes
    the worker swallow every further message without replying (the
    coordinator's ``batch_timeout`` deadline must catch it), and
    ``"garbage"`` emits an unprompted non-protocol object into the pipe
    (the coordinator must classify it as a protocol failure).
    """
    host: Optional[ShardHost] = None
    hanging = False
    try:
        while True:
            message = conn.recv()
            if hanging:
                continue
            kind = message[0]
            if kind == "init":
                from repro.core.persistence import pipeline_from_document

                payload = message[1]
                host = ShardHost(pipeline_from_document(payload["pipeline"]),
                                 payload["config"], payload["shard_ids"],
                                 payload.get("obs"))
            elif kind == "load":
                host.load(message[1], message[2])
            elif kind == "batch":
                host.batch(message[1], message[2])
            elif kind == "checkpoint":
                conn.send(("checkpoint", host.checkpoint()))
            elif kind == "snapshot":
                conn.send(("snapshot", host.snapshot()))
            elif kind == "finish":
                conn.send(("finish", host.finish()))
            elif kind == "ping":
                conn.send(("pong", message[1]))
            elif kind == "chaos":
                mode = message[1]
                if mode == "crash":
                    os._exit(13)
                elif mode == "hang":
                    hanging = True
                elif mode == "garbage":
                    conn.send("!!pipe-garbage!!")
                else:  # pragma: no cover - protocol misuse
                    raise ValueError(f"unknown chaos mode: {mode!r}")
            elif kind == "stop":
                break
            else:  # pragma: no cover - protocol misuse
                raise ValueError(f"unknown worker message: {kind!r}")
    except EOFError:  # pragma: no cover - coordinator vanished
        pass
    except BaseException:
        import traceback
        try:
            conn.send(("error", traceback.format_exc()))
        except (BrokenPipeError, OSError):  # pragma: no cover
            pass
    finally:
        conn.close()
