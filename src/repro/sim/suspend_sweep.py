"""Fleet-wide suspend-check sweeps: a timer wheel of check deadlines.

The per-host event path schedules one heap event per host per
``suspend_check_period_s`` — at 256 hosts that is ~1.1 M heap
push/pop/evaluate cycles per simulated week, ~85 % of the event-driven
simulator's wall-clock.  :class:`SuspendSweepScheduler` replaces them
with one *sweep* event per distinct deadline: hosts rescheduled from the
same instant (the common case — the whole fleet starts aligned and
non-suspending hosts re-arm together) share a bucket, so the steady
state is a single event evaluating every ON host in one pass.

Bit-exactness argument (the parity suite and the hypothesis
interleaving test enforce this empirically):

* **Deadlines are preserved.**  A host's check fires at exactly the
  absolute time the per-host event would have — buckets are keyed by
  the float deadline, never quantized — so every ``evaluate(now)``
  sees the same clock, grace windows and hour state.
* **Within-timestamp order is preserved.**  The per-host path breaks
  ties by event sequence number, i.e. scheduling order; bucket entries
  are appended in scheduling order and swept in insertion order, and a
  bucket's sweep event carries the sequence number of its first
  insertion, so sweeps order against foreign same-time events the way
  the first member's check event would have.  (A foreign event
  scheduled at the exact float deadline *between* two insertions into
  an existing bucket could, in principle, interleave differently; check
  deadlines live on per-host ``resume + k·period`` grids while foreign
  events follow continuous request distributions, so an exact-time
  collision that also changes a verdict does not arise — the oracle
  comparison would surface it if it ever did.)
* **Cancellation is exact.**  Re-arming or cancelling a host bumps its
  registration token; stale bucket entries are skipped at sweep time,
  exactly like the kernel's tombstoned events, and a bucket whose last
  live entry is cancelled cancels its sweep event so
  ``events_processed`` accounting stays in lockstep.

The sweep handler credits ``k - 1`` coalesced events to the kernel (it
stands in for ``k`` per-host check events), keeping
``RunResult.events_processed`` — and thus the events/s throughput
metric — directly comparable with the per-host oracle path.
"""

from __future__ import annotations

from typing import Callable

from ..cluster.events import Event, EventSimulator
from ..cluster.host import Host


class _Bucket:
    """Hosts registered for one sweep deadline."""

    __slots__ = ("entries", "live", "event")

    def __init__(self) -> None:
        #: (host, token) in registration order.
        self.entries: list[tuple[Host, int]] = []
        self.live = 0
        self.event: Event | None = None


class SuspendSweepScheduler:
    """Timer wheel of per-host suspend-check deadlines.

    ``sweep(now, due_hosts)`` is the driver's batched evaluator; it is
    invoked with the live registrants of a deadline in registration
    order and is responsible for re-arming hosts via :meth:`schedule`.
    """

    def __init__(self, sim: EventSimulator,
                 sweep: Callable[[float, list[Host]], None]) -> None:
        self.sim = sim
        self._sweep = sweep
        self._buckets: dict[float, _Bucket] = {}
        #: host name -> (deadline, token) of its live registration.
        self._member: dict[str, tuple[float, int]] = {}
        self._token = 0
        #: Sweep events fired (telemetry: events saved vs the per-host
        #: path is ``checks_performed - sweeps_fired``).
        self.sweeps_fired = 0
        self.checks_performed = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of hosts with a live registration."""
        return len(self._member)

    def next_deadline(self, host: Host) -> float | None:
        """The host's registered check deadline, or None."""
        reg = self._member.get(host.name)
        return reg[0] if reg is not None else None

    def schedule(self, host: Host, deadline: float) -> None:
        """Register (or re-arm) the host's next check at ``deadline``."""
        self.cancel(host)
        bucket = self._buckets.get(deadline)
        if bucket is None:
            bucket = _Bucket()
            self._buckets[deadline] = bucket
            bucket.event = self.sim.schedule_at(deadline, self._fire, deadline)
        self._token += 1
        bucket.entries.append((host, self._token))
        bucket.live += 1
        self._member[host.name] = (deadline, self._token)

    def cancel(self, host: Host) -> None:
        """Drop the host's live registration, if any (O(1) tombstone)."""
        reg = self._member.pop(host.name, None)
        if reg is None:
            return
        bucket = self._buckets.get(reg[0])
        if bucket is None:
            return
        bucket.live -= 1
        if bucket.live == 0:
            # Matches the per-host path, where cancelling the last check
            # at a timestamp leaves no event to process (or count).
            if bucket.event is not None:
                bucket.event.cancel()
            del self._buckets[reg[0]]

    # ------------------------------------------------------------------
    def _fire(self, deadline: float) -> None:
        bucket = self._buckets.pop(deadline, None)
        if bucket is None:  # pragma: no cover - cancel() removes eagerly
            return
        member = self._member
        due: list[Host] = []
        for host, token in bucket.entries:
            # Tokens are globally unique, so a token match implies the
            # registration is this bucket's (and still live).
            reg = member.get(host.name)
            if reg is not None and reg[1] == token:
                del member[host.name]
                due.append(host)
        if not due:  # pragma: no cover - guarded by bucket.live
            return
        # The sweep stands in for len(due) per-host check events.
        self.sim.count_coalesced(len(due) - 1)
        self.sweeps_fired += 1
        self.checks_performed += len(due)
        self._sweep(deadline, due)
