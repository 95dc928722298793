"""One serving loop: feed a stream through any serving sink.

A *sink* is a single :class:`~repro.core.online.CordialService` or a
:class:`~repro.serving.engine.ShardedCordialEngine`.  Both expose the
same surface — ``submit`` / ``checkpoint`` / ``restore_successor`` /
``drain_segments`` / ``finish`` / ``close`` — and ``finish`` returns one
:class:`~repro.core.online.ServeOutcome`, so serve-replay, the CLI, the
chaos campaign and the test suites all run the serving path, restarts
included, through :func:`serve`.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence, Tuple

from repro.core.online import ServeOutcome


def serve(sink, stream: Sequence[Any], kill_points: Sequence[int] = (),
          checkpoint_path: Optional[str] = None,
          worker_faults: Sequence[Any] = (),
          on_kill: Optional[Callable[[Any, str], None]] = None
          ) -> Tuple[Any, ServeOutcome]:
    """Submit ``stream`` to ``sink``, then finish it.

    Args:
        kill_points: 1-based submit counts after which the sink is
            checkpointed to ``checkpoint_path`` (a file for a service, a
            directory for a fleet), closed, and replaced by its restored
            successor — the crash/restart path.  A restart that could
            never happen is a misconfiguration, so a point outside
            ``1..len(stream)``, or any point without a checkpoint path,
            raises ``ValueError``.
        worker_faults: scheduled per-shard faults (``at_event``,
            ``shard``, ``engine_mode`` — see
            :class:`repro.chaos.faults.WorkerFault`), injected right
            after their submit; the sink must be a supervised engine.
        on_kill: called as ``on_kill(sink, checkpoint_path)`` after each
            kill checkpoint, before the sink is closed (the chaos
            harness's tamper trials and isolation snapshots).

    Returns ``(sink, outcome)``: the sink that finished the stream (the
    last restored one after kills), already closed — :func:`serve`
    closes whatever sink it ends with, also on error — and its outcome,
    whose decisions span the whole run.
    """
    try:
        kills = {int(k) for k in kill_points}
        if kills and checkpoint_path is None:
            raise ValueError(
                f"kill points {sorted(kills)} need a checkpoint_path; "
                "without one the restarts could never happen")
        outside = sorted(k for k in kills if not 1 <= k <= len(stream))
        if outside:
            raise ValueError(
                f"kill points {outside} outside the stream "
                f"(1..{len(stream)}); the restart would never fire")
        faults: dict = {}
        for fault in worker_faults:
            faults.setdefault(int(fault.at_event), []).append(fault)
        for index, record in enumerate(stream, start=1):
            sink.submit(record)
            for fault in faults.pop(index, ()):
                sink.inject_fault(fault.shard, fault.engine_mode)
            if index in kills:
                sink.checkpoint(checkpoint_path)
                if on_kill is not None:
                    on_kill(sink, checkpoint_path)
                sink.close()
                sink = sink.restore_successor(checkpoint_path)
        return sink, sink.finish()
    finally:
        sink.close()
