"""Deterministic bank-key routing for the sharded fleet engine.

Bank-level error locality (the paper's Section III observation the whole
method rests on) means every bank's stream is independent: no feature,
trigger, or sparing decision ever crosses a bank boundary.  The serving
path therefore shards *by bank key* — every record of a bank lands on
the same shard, so each shard's :class:`~repro.core.online.CordialService`
sees exactly the sub-stream a single service would have seen for those
banks, and per-bank state never needs to move.

Two design rules keep the fleet bit-identical to one big service:

* **stable hashing** — :func:`shard_of_bank` uses BLAKE2s over the
  canonical bank-key rendering, never Python's seed-randomised ``hash``,
  so the bank→shard map is a pure function of ``(bank_key, n_shards)``
  across processes, restarts, and machines;
* **coordinator-owned quarantine** — the router runs the collector's
  admission kernel (:func:`~repro.telemetry.collector.admit`) against
  the *global* watermark before routing, so its dead letters carry the
  reasons and detail strings a single collector's would.  Shard
  collectors then never quarantine: their local watermark only ever
  trails the global one, so a record the router accepted can never be
  late on its shard.  The fleet's dead-letter ledger lives here, in one
  place, and merges trivially.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional

from repro.telemetry.collector import DeadLetter, DeadLetterLedger, admit
from repro.telemetry.events import ErrorRecord


def shard_of_bank(bank_key: tuple, n_shards: int) -> int:
    """The shard owning ``bank_key`` — stable across processes and runs.

    BLAKE2s over the comma-joined integer rendering of the key; Python's
    built-in ``hash`` is seed-randomised per process and would scatter
    the same bank to different shards on every restart.
    """
    rendered = ",".join(str(int(part)) for part in bank_key)
    digest = hashlib.blake2s(rendered.encode("ascii"), digest_size=8)
    return int.from_bytes(digest.digest(), "big") % n_shards


class FleetRouter:
    """Routes records to shards; owns the fleet-global quarantine.

    Args:
        n_shards: number of shards records are partitioned across.
        max_skew: tolerated timestamp disorder (must match the shard
            services' collectors — the router's watermark is the fleet's
            single source of truth for lateness).
        max_dead_letters: bounded evidence window, mirroring
            :class:`~repro.telemetry.collector.BMCCollector`.
    """

    def __init__(self, n_shards: int, max_skew: float = 0.0,
                 max_dead_letters: int = 1_000) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if max_skew < 0:
            raise ValueError("max_skew must be >= 0")
        self.n_shards = n_shards
        self.max_skew = max_skew
        self.ledger = DeadLetterLedger(max_dead_letters)
        self._max_timestamp = float("-inf")

    @property
    def watermark(self) -> float:
        """Events with timestamps below this are late (dead-lettered)."""
        return self._max_timestamp - self.max_skew

    @property
    def dead_letters(self) -> List[DeadLetter]:
        """The kept quarantined inputs (bounded evidence window)."""
        return self.ledger.dead_letters

    @property
    def dead_letter_counts(self) -> Dict[str, int]:
        """Exact count of quarantined inputs per reason."""
        return self.ledger.counts

    def route(self, record: ErrorRecord) -> Optional[int]:
        """Shard id for ``record``, or ``None`` when it was quarantined."""
        letter = admit(record, self.watermark)
        if letter is not None:
            self.ledger.add(letter)
            return None
        if record.timestamp > self._max_timestamp:
            self._max_timestamp = record.timestamp
        return shard_of_bank(record.bank_key, self.n_shards)

    # -- checkpointing -------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-ready router state (deterministic layout).

        ``n_shards`` is deliberately *not* part of the state: a fleet
        checkpoint restores onto any shard count by re-routing bank
        state, and the ledger/watermark are shard-count-invariant.
        """
        return {
            "max_skew": self.max_skew,
            "max_dead_letters": self.ledger.max_dead_letters,
            "max_timestamp": (None if self._max_timestamp == float("-inf")
                              else self._max_timestamp),
            **self.ledger.state_dict(),
        }

    def load_state_dict(self, state: dict) -> "FleetRouter":
        """Restore state captured by :meth:`state_dict`."""
        self.max_skew = float(state["max_skew"])
        self._max_timestamp = (float("-inf")
                               if state["max_timestamp"] is None
                               else float(state["max_timestamp"]))
        self.ledger = DeadLetterLedger(
            int(state["max_dead_letters"])).load_state_dict(state)
        return self
