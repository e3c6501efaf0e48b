"""Discrete-event simulation engine.

A minimal, fast event loop: callbacks scheduled at absolute simulated times,
executed in time order (FIFO among equal timestamps). All higher layers —
links, transports, the browser — run on one shared :class:`EventLoop`.

Cancelled events (transports re-arm their RTO/PTO timer on every ACK,
cancelling the previous one) are dropped lazily when popped; when they
outnumber the live entries the heap is compacted in one pass, so the
queue never degenerates into a graveyard of dead timers.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple


class ScheduledEvent:
    """Handle for a scheduled callback; allows cancellation."""

    __slots__ = ("time", "callback", "cancelled", "seq", "_loop")

    def __init__(self, time: float, seq: int, callback: Callable[[], None],
                 loop: Optional["EventLoop"] = None):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self._loop = loop

    def cancel(self) -> None:
        """Prevent the callback from running (idempotent)."""
        if not self.cancelled:
            self.cancelled = True
            if self._loop is not None:
                self._loop._note_cancelled()


#: Compaction is considered once this many cancelled entries accumulate.
_COMPACT_MIN_CANCELLED = 64


class EventLoop:
    """Priority-queue driven simulation clock.

    >>> loop = EventLoop()
    >>> seen = []
    >>> _ = loop.call_at(2.0, lambda: seen.append("b"))
    >>> _ = loop.call_at(1.0, lambda: seen.append("a"))
    >>> loop.run()
    >>> seen
    ['a', 'b']
    """

    def __init__(self):
        self._now = 0.0
        self._heap: List[Tuple[float, int, ScheduledEvent]] = []
        self._counter = itertools.count()
        self._processed = 0
        self._cancelled_in_heap = 0
        #: Sequence number of the event currently (or most recently)
        #: being executed. Together with :meth:`next_seq` this lets
        #: components that fold work into fewer events (the link's lazy
        #: queue-space release) resolve equal-timestamp ties exactly as
        #: if they had scheduled a real event: FIFO by allocation order.
        self.current_seq = -1

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far (diagnostics)."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Live (non-cancelled) entries currently in the queue."""
        return len(self._heap) - self._cancelled_in_heap

    def call_at(self, when: float, callback: Callable[[], None]) -> ScheduledEvent:
        """Schedule ``callback`` at absolute time ``when``.

        Scheduling in the past is a programming error and raises.
        """
        if when < self._now:
            if when < self._now - 1e-12:
                raise ValueError(
                    f"cannot schedule event at {when:.9f}, now is {self._now:.9f}"
                )
            when = self._now
        event = ScheduledEvent(when, next(self._counter), callback, self)
        heapq.heappush(self._heap, (when, event.seq, event))
        return event

    def call_later(self, delay: float, callback: Callable[[], None]) -> ScheduledEvent:
        """Schedule ``callback`` after ``delay`` seconds."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.call_at(self._now + delay, callback)

    def next_seq(self) -> int:
        """Allocate a sequence number without scheduling an event.

        Gives lazily-evaluated work (see :attr:`current_seq`) a
        tie-break position in the global FIFO order, identical to the
        position a real event scheduled here would have had.
        """
        return next(self._counter)

    def _note_cancelled(self) -> None:
        """A queued event was cancelled; compact when graveyard dominates."""
        self._cancelled_in_heap += 1
        if (self._cancelled_in_heap >= _COMPACT_MIN_CANCELLED
                and self._cancelled_in_heap * 2 > len(self._heap)):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify (order is preserved:
        entries compare by (time, seq) exactly as before)."""
        self._heap = [entry for entry in self._heap if not entry[2].cancelled]
        heapq.heapify(self._heap)
        self._cancelled_in_heap = 0

    def peek_time(self) -> Optional[float]:
        """Timestamp of the next pending event, or None if idle."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._cancelled_in_heap -= 1
        if not heap:
            return None
        return heap[0][0]

    def step(self) -> bool:
        """Run the next pending event. Returns False when the queue is empty."""
        heap = self._heap
        while heap:
            _, _, event = heapq.heappop(heap)
            if event.cancelled:
                self._cancelled_in_heap -= 1
                continue
            # Out of the heap now: a later cancel() must not count it.
            event._loop = None
            self._now = event.time
            self.current_seq = event.seq
            self._processed += 1
            event.callback()
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> None:
        """Run events until the queue drains or ``until`` is reached.

        ``max_events`` is a runaway guard; hitting it raises RuntimeError.
        """
        executed = 0
        while True:
            next_time = self.peek_time()
            if next_time is None:
                return
            if until is not None and next_time > until:
                self._now = until
                return
            self.step()
            executed += 1
            if executed >= max_events:
                raise RuntimeError(
                    f"event loop exceeded {max_events} events; likely a livelock"
                )

    def run_until_idle_or(self, predicate: Callable[[], bool],
                          until: Optional[float] = None) -> bool:
        """Run until ``predicate()`` turns true, the queue drains, or ``until``.

        Returns the final value of ``predicate()``.
        """
        while not predicate():
            next_time = self.peek_time()
            if next_time is None:
                break
            if until is not None and next_time > until:
                self._now = until
                break
            self.step()
        return predicate()
