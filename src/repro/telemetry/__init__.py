"""BMC / MCE telemetry layer.

Error events flow from the (simulated) baseboard management controller into
an append-only MCE log; the :class:`ErrorStore` indexes them by micro-level
for the empirical-study analyses, and the :class:`BMCCollector` replays
them as a stream, firing the per-bank trigger Cordial acts on (the third
UER observed in a bank).
"""

from repro.telemetry.events import ErrorType, ErrorRecord
from repro.telemetry.mcelog import (write_mce_log, read_mce_log,
                                    iter_mce_log_lenient,
                                    iter_mce_log_quarantining, MCELogError)
from repro.telemetry.store import ErrorStore
from repro.telemetry.collector import BMCCollector, BankTrigger, DeadLetter
from repro.telemetry.metrics import (Counter, Gauge, Histogram,
                                     MetricsRegistry)
from repro.telemetry.dedup import (CompactionStats, StreamCompactor,
                                   compact_records)

__all__ = [
    "ErrorType",
    "ErrorRecord",
    "write_mce_log",
    "read_mce_log",
    "iter_mce_log_lenient",
    "iter_mce_log_quarantining",
    "MCELogError",
    "ErrorStore",
    "BMCCollector",
    "BankTrigger",
    "DeadLetter",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "CompactionStats",
    "StreamCompactor",
    "compact_records",
]
