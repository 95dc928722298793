"""`repro.serving`: the sharded fleet-scale serving engine.

Bank-level error locality makes Cordial's online path embarrassingly
shardable: every record routes to its bank's shard by a stable hash
(:mod:`~repro.serving.router`), each shard runs an independent
:class:`~repro.core.online.CordialService`
(:mod:`~repro.serving.workers`), and the coordinator merges decisions,
stats, metrics, and state back into single-service form
(:mod:`~repro.serving.merge`), with re-shardable fleet checkpoints
(:mod:`~repro.serving.checkpoint`).  The whole fleet is bit-identical to
one big service for any ``(n_shards, n_jobs)`` — both are pure
wall-clock knobs (``tests/test_sharded_serving.py``).  One loop,
:func:`~repro.serving.stream.serve`, streams records through either a
fleet or a single service.
"""

from repro.serving.checkpoint import (FLEET_CHECKPOINT_FORMAT,
                                      FLEET_CHECKPOINT_VERSION, MANIFEST_FILE,
                                      load_fleet_checkpoint,
                                      load_fleet_manifest,
                                      save_fleet_checkpoint, shard_file_name)
from repro.serving.stream import serve
from repro.serving.engine import BATCH_SIZE, ShardedCordialEngine
from repro.serving.merge import (merge_decisions, merge_metrics,
                                 merge_service_states, merge_stats,
                                 split_service_state)
from repro.serving.router import FleetRouter, shard_of_bank
from repro.serving.supervisor import (DEFAULT_BATCH_TIMEOUT, FAILURE_CRASH,
                                      FAILURE_HANG, FAILURE_KINDS,
                                      FAILURE_PROTOCOL, FAULT_MODES,
                                      ShardFailureError, ShardSupervisor,
                                      SupervisorConfig, backoff_delay)
from repro.serving.workers import ShardHost

__all__ = [
    "BATCH_SIZE", "DEFAULT_BATCH_TIMEOUT", "FAILURE_CRASH", "FAILURE_HANG",
    "FAILURE_KINDS", "FAILURE_PROTOCOL", "FAULT_MODES",
    "FLEET_CHECKPOINT_FORMAT", "FLEET_CHECKPOINT_VERSION",
    "FleetRouter", "MANIFEST_FILE", "ShardFailureError",
    "ShardHost", "ShardSupervisor", "ShardedCordialEngine",
    "SupervisorConfig", "backoff_delay", "load_fleet_checkpoint",
    "load_fleet_manifest", "merge_decisions", "merge_metrics",
    "merge_service_states", "merge_stats", "save_fleet_checkpoint",
    "serve", "shard_file_name", "shard_of_bank",
    "split_service_state",
]
