"""Deterministic chaos harness for the online serving path.

PRs 2 and 4 hardened ``CordialService`` for well-behaved streams; this
package attacks it on purpose.  A :class:`~repro.chaos.plan.ChaosPlan`
composes seeded stream perturbation operators (drop, duplicate, reorder
beyond the skew window, clock jitter, field corruption, burst batching)
with process-level faults (kill-and-restore from checkpoints, tampered
checkpoint files), and an :class:`~repro.chaos.oracle.InvariantOracle`
validates system-level properties after every run: event conservation,
sparing budgets, isolation monotonicity, checkpoint round-trip identity,
metrics consistency, and bounded divergence from the clean-stream run.

Everything is driven by ``numpy.random.SeedSequence`` children, so a
campaign is bit-reproducible: identical (plan, seed) pairs produce
byte-identical decision logs and reports
(``tests/test_chaos_harness.py``).  The CLI front-end is
``cordial-repro chaos``.
"""

from repro.chaos.campaign import (CampaignConfig, run_campaign,
                                  run_chaos_campaign)
from repro.chaos.faults import (FaultedRun, KillHook, TamperTrial,
                                tamper_checkpoint)
from repro.chaos.operators import (OPERATORS, apply_operator,
                                   is_error_record)
from repro.chaos.oracle import InvariantOracle, InvariantViolation
from repro.chaos.plan import ChaosPlan, OperatorSpec, default_plan

__all__ = [
    "CampaignConfig",
    "ChaosPlan",
    "FaultedRun",
    "InvariantOracle",
    "InvariantViolation",
    "KillHook",
    "OPERATORS",
    "OperatorSpec",
    "TamperTrial",
    "apply_operator",
    "default_plan",
    "is_error_record",
    "run_campaign",
    "run_chaos_campaign",
    "tamper_checkpoint",
]
