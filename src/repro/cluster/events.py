"""Deterministic discrete-event simulation kernel.

A minimal, allocation-light event queue: a binary heap of
``(time, sequence, Event)`` entries.  The sequence number makes ordering
total and deterministic for simultaneous events (FIFO within a
timestamp), which the reproduction relies on for exact repeatability.

Cancellation is O(1) by tombstoning: cancelled events stay in the heap
and are skipped on pop (the standard lazy-deletion idiom, cheaper than
re-heapifying).
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, Iterable


def first_grid_point(first: float, period: float, target: float) -> float:
    """The first point at/after ``target`` of the grid ``first``,
    ``first + period``, ... — walked by iterated float addition, so it
    equals the instant a chain of ``now + period`` re-arms would reach."""
    while first < target:
        first += period
    return first


class Event:
    """A scheduled callback.  Use :meth:`cancel` to revoke it.

    ``__slots__`` keeps the event kernel allocation-light: millions of
    events are created per request-level run and a slotted instance is
    both smaller and faster to construct than a dict-backed one.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_owner")

    def __init__(self, time: float, seq: int,
                 callback: Callable[..., None] | None, args: tuple = (),
                 owner: "EventSimulator | None" = None) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._owner = owner

    def cancel(self) -> None:
        """Revoke the event; it will be skipped when its time comes."""
        if not self.cancelled:
            self.cancelled = True
            if self._owner is not None:
                self._owner._live -= 1
        self.callback = None  # free references early
        self.args = ()


class EventSimulator:
    """Priority-queue driven simulator with a monotonic clock (seconds)."""

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self.events_processed = 0
        #: Live (non-cancelled) events in the heap; kept in lockstep by
        #: schedule/cancel/pop so :attr:`pending` is O(1), not a scan.
        self._live = 0
        #: The bound :meth:`run_until` is draining to; ``-inf`` outside it.
        self.draining_until = -math.inf

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    # ------------------------------------------------------------------
    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute time ``time``."""
        if time < self._now - 1e-9:
            raise ValueError(
                f"cannot schedule in the past: {time} < now {self._now}")
        ev = Event(time=max(time, self._now), seq=next(self._seq),
                   callback=callback, args=args, owner=self)
        heapq.heappush(self._heap, (ev.time, ev.seq, ev))
        self._live += 1
        return ev

    def schedule_in(self, delay: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` after ``delay`` seconds."""
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_batch(
            self, entries: Iterable[tuple[float, Callable[..., None], tuple]]
    ) -> list[Event]:
        """Schedule a block of ``(time, callback, args)`` entries at once.

        Behaviourally identical to calling :meth:`schedule_at` once per
        entry in order — sequence numbers are assigned in entry order, so
        FIFO-within-timestamp ties break exactly the same way — but the
        heap is restored with one O(n + m) ``heapify`` instead of m
        O(log n) sifts, which is what makes bulk request generation
        cheap (DESIGN.md §10).
        """
        events: list[Event] = []
        now = self._now
        # Validate and build first, then commit: a bad entry must not
        # leave the heap half-extended or the live counter skewed.
        for time, callback, args in entries:
            if time < now - 1e-9:
                raise ValueError(
                    f"cannot schedule in the past: {time} < now {now}")
            events.append(Event(time=max(time, now), seq=next(self._seq),
                                callback=callback, args=args, owner=self))
        if events:
            self._heap.extend((ev.time, ev.seq, ev) for ev in events)
            heapq.heapify(self._heap)
            self._live += len(events)
        return events

    def count_coalesced(self, n: int) -> None:
        """Account ``n`` extra *logical* events absorbed by the currently
        executing physical event.

        A batched handler (e.g. the suspend-check sweep) that stands in
        for ``k`` per-entity events calls ``count_coalesced(k - 1)`` so
        :attr:`events_processed` — the throughput metric and a parity
        observable — matches the unbatched event path exactly.
        """
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        self.events_processed += n

    # ------------------------------------------------------------------
    def peek_time(self) -> float | None:
        """Time of the next live event, or None if the queue is drained."""
        while self._heap:
            _, _, ev = self._heap[0]
            if ev.cancelled:
                heapq.heappop(self._heap)
                continue
            return ev.time
        return None

    def step(self) -> bool:
        """Process the next live event.  Returns False when drained."""
        while self._heap:
            _, _, ev = heapq.heappop(self._heap)
            if ev.cancelled:
                continue
            self._live -= 1
            ev._owner = None  # consumed: a late cancel() must not decrement
            self._now = ev.time
            cb, args = ev.callback, ev.args
            self.events_processed += 1
            assert cb is not None
            cb(*args)
            return True
        return False

    def run_until(self, end_time: float) -> None:
        """Process events up to and including ``end_time``, then advance
        the clock to ``end_time`` even if the queue drained earlier.

        While it runs, :attr:`draining_until` is ``end_time``: an event
        a callback would schedule at or before it is certain to fire in
        this call, so its owner may apply it inline (DESIGN.md §10).
        """
        heap = self._heap
        pop = heapq.heappop
        self.draining_until = end_time
        try:
            while heap and heap[0][0] <= end_time:
                ev = pop(heap)[2]
                if ev.cancelled:
                    continue
                self._live -= 1
                ev._owner = None  # consumed: a late cancel() must not decrement
                self._now = ev.time
                self.events_processed += 1
                ev.callback(*ev.args)
        finally:
            self.draining_until = -math.inf
        self._now = max(self._now, end_time)

    def run(self) -> None:
        """Process events until the queue is drained."""
        while self.step():
            pass

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued.  O(1):
        a maintained counter, not a heap scan."""
        return self._live
