"""Deterministic discrete-event simulation kernel.

A minimal, allocation-light event queue: a binary heap of
``(time, sequence, Event)`` entries.  The sequence number makes ordering
total and deterministic for simultaneous events (FIFO within a
timestamp), which the reproduction relies on for exact repeatability.

Cancellation is O(1) by tombstoning: cancelled events stay in the heap
and are skipped on pop (the standard lazy-deletion idiom, cheaper than
re-heapifying).

Bulk arrivals bypass the heap: :meth:`EventSimulator.run_until` hands a
sorted block of times (a float64 array) to its consumer a slice at a
time, each slice the run of entries that precede the heap's top by
``(time, seq)``.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable

import numpy as np


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
        #: Live events popped off the heap: ``events_processed`` less the
        #: stream entries, inline completions and coalesced credits.
        self.heap_pops = 0
        #: Live (non-cancelled) events in the heap; kept in lockstep by
        #: schedule/cancel/pop so :attr:`pending` is O(1), not a scan.
        self._live = 0
        #: The bound :meth:`run_until` is draining to; ``-inf`` outside it.
        self.draining_until = -math.inf
        #: The arrival stream ``(times, consumer, keys, values, seq)``:
        #: entry ``i`` is due at ``times[i]`` (a float64 array) with
        #: sequence number ``seq + i``; entries before ``_stream_pos``
        #: have run.
        self._stream: tuple = (np.empty(0), None, [], [], 0)
        self._stream_pos = 0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    # ------------------------------------------------------------------
    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute time ``time``."""
        if not time >= self._now - 1e-9:
            raise ValueError(
                f"cannot schedule at {time}: it is NaN or in the past "
                f"(now {self._now})")
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

    def schedule_stream(self, times, consumer: Callable[..., int], keys,
                        values) -> None:
        """Schedule a sorted block of entries, as one :meth:`schedule_at`
        per entry in order would: entry ``i`` is due at ``times[i]`` and
        takes sequence number ``base + i``.  The entries never enter the
        heap; :meth:`run_until` hands them to ``consumer`` a slice at a
        time (DESIGN.md §10).  The unconsumed rest of the previous block
        moves to the heap, one slice of one entry per event.

        ``times`` is kept as a float64 array (a list is converted);
        ``keys`` and ``values`` are passed through as given.
        ``consumer(times, keys, values, lo, hi)`` is called with the
        clock at ``times[lo]`` when entries ``lo .. hi - 1`` all come
        before every other event.  It handles entries from ``lo`` in
        order and returns the position it reached, at least ``lo + 1``.
        Only the first entry of a call may read the clock or schedule
        anything; the consumer returns right after an entry that did.
        """
        times = np.asarray(times, dtype=np.float64)
        if not times.size:
            return
        # Written so that a NaN fails both checks.
        if not times[0] >= self._now:
            raise ValueError(
                f"cannot schedule at {times[0]}: it is NaN or in the past "
                f"(now {self._now})")
        if not (times[1:] >= times[:-1]).all():
            raise ValueError("stream times must be sorted and not NaN")
        rest, cb, rest_keys, rest_values, seq = self._stream
        if self._stream_pos < len(rest):
            for i in range(self._stream_pos, len(rest)):
                ev = Event(float(rest[i]), seq + i, cb,
                           (rest, rest_keys, rest_values, i, i + 1), self)
                self._heap.append((ev.time, ev.seq, ev))
                self._live += 1
            heapq.heapify(self._heap)
        base = next(self._seq)
        self._seq = itertools.count(base + len(times))
        self._stream = (times, consumer, keys, values, base)
        self._stream_pos = 0

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
    def _stream_leads(self) -> bool:
        """Is the stream's next entry due before every live heap event?
        Drops cancelled heap tops on the way."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
        times, pos = self._stream[0], self._stream_pos
        if pos == len(times):
            return False
        return not heap or heap[0][:2] > (float(times[pos]),
                                          self._stream[4] + pos)

    def peek_time(self) -> float | None:
        """Time of the next live event, or None if the queue is drained."""
        if self._stream_leads():
            return float(self._stream[0][self._stream_pos])
        return self._heap[0][0] if self._heap else None

    def step(self) -> bool:
        """Process the next live event (a stream entry is a slice of
        one).  Returns False when drained."""
        if self._stream_leads():
            self._consume(self._stream_pos + 1)
            return True
        if not self._heap:
            return False
        ev = heapq.heappop(self._heap)[2]
        self._live -= 1
        ev._owner = None  # consumed: a late cancel() must not decrement
        self._now = ev.time
        self.events_processed += 1
        self.heap_pops += 1
        ev.callback(*ev.args)
        return True

    def _consume(self, hi: int) -> None:
        """Hand the stream's entries ``[pos, hi)`` to its consumer and
        advance the cursor past the ones it took.  The first entry is
        consumed before the call, so a consumer that feeds a new block
        from it spills only the entries after it."""
        stream = self._stream
        times, consumer, keys, values, _ = stream
        lo = self._stream_pos
        self._now = float(times[lo])
        self._stream_pos = lo + 1
        reached = consumer(times, keys, values, lo, hi)
        self.events_processed += reached - lo
        if self._stream is stream:
            self._stream_pos = reached
            self._now = float(times[reached - 1])

    def run_until(self, end_time: float) -> None:
        """Process events up to and including ``end_time``, then advance
        the clock to ``end_time`` even if the queue drained earlier.

        The stream's entries that precede both the heap's top (by
        ``(time, seq)``) and ``end_time`` go to its consumer as one
        slice, found by binary search; the heap's top is re-read after
        each hand-off, because the consumer may have scheduled an event
        before the next entry.

        While it runs, :attr:`draining_until` is ``end_time``: an event
        a callback would schedule at or before it is certain to fire in
        this call, so its owner may apply it inline (DESIGN.md §10).
        """
        heap = self._heap
        pop = heapq.heappop
        self.draining_until = end_time
        try:
            while True:
                times, _, _, _, base = self._stream
                pos = self._stream_pos
                hi = pos
                if pos < len(times):
                    # Consumed entries are due at or before the clock:
                    # unless ``end_time`` is behind it, a search of the
                    # whole block lands at or past ``pos``.
                    hi = int(times.searchsorted(end_time, "right"))
                if heap and pos < hi:
                    at, seq = heap[0][0], heap[0][1]
                    if at <= times[hi - 1]:
                        # Entries at the top's time go first only if
                        # their sequence number is lower.
                        hi = min(
                            max(pos, int(times.searchsorted(at, "right"))),
                            max(pos, int(times.searchsorted(at, "left")),
                                seq - base))
                if pos < hi:
                    self._consume(hi)
                    continue
                if not heap or heap[0][0] > end_time:
                    break
                ev = pop(heap)[2]
                if ev.cancelled:
                    continue
                self._live -= 1
                ev._owner = None  # consumed: a late cancel() must not decrement
                self._now = ev.time
                self.events_processed += 1
                self.heap_pops += 1
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
        """Number of live (non-cancelled) events still queued, stream
        entries included.  O(1): a maintained counter, not a heap scan."""
        return self._live + len(self._stream[0]) - self._stream_pos
