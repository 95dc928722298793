"""In-memory span tracer that instruments the program from the outside.

The benchmark's traced run wraps public callables of the objects it
builds (and a few module-level names the program looks up at call time)
with :meth:`Tracer.wrap`.  Nothing under ``src/`` is edited: every patch
is an attribute assignment that :meth:`Tracer.restore` undoes.

Each span records ``(name, start, end, parent, request)``; ``request`` is
the sequence number of the event being served when the span opened, so
all spans of one request share it.  Spans stay in memory until the run
ends, then :meth:`Tracer.layers` folds them into per-layer calls, total
and self time, and :meth:`Tracer.chrome_trace` renders the Chrome
``trace_event`` document.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

_MISSING = object()

#: Spans kept for the Chrome trace; the per-layer ledger always uses all.
CHROME_SPAN_LIMIT = 200_000


class Tracer:
    """Span recorder plus the attribute patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counters: Dict[str, float] = {}
        self.request: Optional[int] = None
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # -- recording -----------------------------------------------------------
    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent,
                           self.request])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def count(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to a named counter."""
        self.counters[name] = self.counters.get(name, 0.0) + value

    # -- instrumentation -----------------------------------------------------
    def wrap(self, owner, attr: str, name: str,
             observe: Optional[Callable] = None) -> bool:
        """Replace ``owner.attr`` with a traced wrapper.

        ``observe(args, result)`` runs after each call, outside the span,
        to update counters.  Returns False (and patches nothing) when the
        attribute does not exist, so a refactored program loses a layer
        metric instead of crashing the benchmark.
        """
        original = getattr(owner, attr, _MISSING)
        if original is _MISSING:
            return False
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index)
            if observe is not None:
                observe(args, result)
            return result

        previous = vars(owner).get(attr, _MISSING)
        self._patches.append((owner, attr, previous))
        setattr(owner, attr, traced)
        return True

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, previous = self._patches.pop()
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    # -- reporting -----------------------------------------------------------
    def layers(self) -> Dict[str, dict]:
        """``{name: {calls, total_s, self_s}}`` over every span.

        Self time is a span's duration minus the durations of its direct
        children, so nested spans never count twice.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, dict] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        return out

    def chrome_trace(self) -> dict:
        """Chrome ``trace_event`` document (complete events, microseconds)."""
        if not self.spans:
            return {"traceEvents": [], "displayTimeUnit": "ms"}
        origin = self.spans[0][1]
        events = []
        for name, start, end, parent, request in (
                self.spans[:CHROME_SPAN_LIMIT]):
            events.append({
                "name": name, "ph": "X", "pid": 1, "tid": 1,
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"request": request, "parent": parent},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"spans_total": len(self.spans),
                              "spans_written": len(events)}}
