"""SDN switch: the rack's packet path (paper sections II, V).

Every client request traverses the switch, where the waking module's
packet analyzer runs first (section V-A).  Requests addressed to a VM on
an available host complete after their service time; requests hitting a
drowsy host are queued on the switch and flushed when the host is back
in S0 — their latency includes the resume.
"""

from __future__ import annotations

import math

from ..cluster.datacenter import DataCenter
from ..cluster.events import EventSimulator
from ..cluster.power import PowerState
from ..core.params import DEFAULT_PARAMS, DrowsyParams
from .requests import Request, RequestLog
from ..waking.packets import WoLPacket


def _never_satisfied(mac: str) -> bool:
    """Default wake-satisfied predicate: always retry (picklable)."""
    return False


class ReliableWolChannel:
    """Retry-with-timeout WoL delivery (DESIGN.md §14).

    Without fault injection a WoL "send" is a synchronous function call
    and cannot be lost; with a lossy transport attached, a dropped wake
    would strand its requests forever.  The channel makes the wake path
    resilient: every send traverses the ``transport`` verdict function
    (installed by the fault injector), dropped packets are re-sent with
    exponential backoff until the destination is observed awake, and
    delayed packets land after their in-flight delay.

    Determinism and parity rules:

    * ``transport is None`` (the fault-free default) short-circuits to a
      direct synchronous call — bit-identical to the pre-channel path,
      zero events scheduled.
    * Retry and delay timers carry a per-MAC generation token
      (the ``suspend_sweep`` tombstone pattern): :meth:`settle` bumps the
      generation so stale timers become no-ops instead of firing on a
      host that already woke, crashed or left the fleet.
    """

    def __init__(self, sim: EventSimulator, deliver,
                 params: DrowsyParams = DEFAULT_PARAMS,
                 wake_satisfied=None) -> None:
        self.sim = sim
        #: Final delivery callback ``(WoLPacket, now) -> None`` — the
        #: engine's NIC-level WoL handler.
        self._deliver = deliver
        self.params = params
        #: ``(mac) -> bool``: is the wake already satisfied (host awake,
        #: resuming, or gone)?  Retries consult it before re-sending.
        #: (Module-level default, not a lambda: the channel is part of
        #: the checkpointed object graph and must pickle.)
        self._wake_satisfied = wake_satisfied or _never_satisfied
        #: Fault hook ``(WoLPacket) -> (verdict, delay_s)`` with verdict
        #: one of "ok" | "drop" | "delay".  ``None`` = perfect wire.
        self.transport = None
        #: mac -> generation of the newest *valid* timers; absent means
        #: no timer was ever armed for that MAC (fault-free fast path).
        self._generation: dict[str, int] = {}
        self.attempts = 0
        self.dropped = 0
        self.delayed = 0
        self.retries = 0
        self.abandoned = 0
        #: Individual backoff waits; :attr:`backoff_wait_s` reduces them
        #: with ``math.fsum`` (exactly rounded), so the total is a pure
        #: function of the wait *multiset* — any per-shard partition of
        #: the same retries sums to the bit-identical figure.
        self.backoff_waits: list[float] = []

    @property
    def backoff_wait_s(self) -> float:
        return math.fsum(self.backoff_waits)

    def send(self, packet: WoLPacket, now: float) -> None:
        if self.transport is None:
            self._deliver(packet, now)
            return
        self._attempt(packet, 0, self._generation.get(packet.mac_address, 0))

    def _attempt(self, packet: WoLPacket, attempt: int, gen: int) -> None:
        mac = packet.mac_address
        if self._generation.get(mac, 0) != gen:
            return  # settled since this timer was armed (tombstone)
        if attempt > 0:
            if self._wake_satisfied(mac):
                return  # another packet landed meanwhile
            self.retries += 1
        self.attempts += 1
        verdict, delay_s = self.transport(packet)
        if verdict == "drop":
            self.dropped += 1
            if attempt >= self.params.wol_retry_max:
                self.abandoned += 1  # redispatch remains the last resort
                return
            wait = (self.params.wol_retry_timeout_s
                    * self.params.wol_retry_backoff ** attempt)
            self.backoff_waits.append(wait)
            self._generation.setdefault(mac, 0)
            # Args-based scheduling (no closure): retry timers must
            # survive a checkpoint pickle of the event heap.
            self.sim.schedule_in(wait, self._attempt, packet,
                                 attempt + 1, gen)
        elif verdict == "delay":
            self.delayed += 1
            self._generation.setdefault(mac, 0)
            self.sim.schedule_in(delay_s, self._deliver_late, packet, gen)
        else:
            self._deliver(packet, self.sim.now)

    def _deliver_late(self, packet: WoLPacket, gen: int) -> None:
        if self._generation.get(packet.mac_address, 0) != gen:
            return
        self._deliver(packet, self.sim.now)

    def settle(self, mac: str) -> None:
        """The wake for ``mac`` is moot (host awake, crashed or removed):
        tombstone every in-flight retry/delay timer for it.  Idempotent —
        double-settling just bumps the generation past timers that are
        already dead.  No-op for MACs that never armed a timer, so the
        fault-free path stays allocation-free."""
        if mac in self._generation:
            self._generation[mac] += 1


class SDNSwitch:
    """Rack switch with an attached waking service.

    The switch needs a ``waking_service`` exposing ``analyze_packet``
    (either a bare :class:`~repro.waking.module.WakingModule` or the
    replicated pair) — wired by the simulation driver, which also owns
    host power transitions and calls :meth:`redispatch_pending` each
    time a host comes back up.
    """

    def __init__(self, sim: EventSimulator, dc: DataCenter,
                 params: DrowsyParams = DEFAULT_PARAMS) -> None:
        self.sim = sim
        self.dc = dc
        self.params = params
        self.waking_service = None  # wired by the driver
        #: Fallback WoL emitter for requests whose destination host is
        #: down but absent from the waking module's map (e.g. a VM that
        #: was migrated onto an already-drowsy host; the switch knows
        #: its ports' link state and can wake the host directly).
        self.wol_sender = None
        self.log = RequestLog()
        #: Requests waiting for their VM's host to come back up.  Kept as
        #: a flat list re-examined against *current* placement, because a
        #: consolidation round may migrate the VM while its request waits.
        self._pending: list[Request] = []
        self.packets_forwarded = 0
        #: Queued requests forgotten because their VM departed (churn);
        #: closes the request-conservation ledger under fault fuzzing.
        self.requests_dropped = 0

    # ------------------------------------------------------------------
    def submit_request(self, vm_name: str, arrival_s: float,
                       service_time_s: float) -> None:
        """A request for ``vm_name`` enters the rack at ``arrival_s``
        (= sim.now).  Only a request that waits — for a drowsy host, or
        past the drain's bound — becomes a :class:`Request`."""
        # O(1) registry lookup; this runs once per packet, where the old
        # O(hosts x vms) scan dominated the submit path (DESIGN.md §10).
        vm, host = self.dc.find_vm(vm_name)
        woke = False
        if self.waking_service is not None:
            woke = self.waking_service.analyze_packet(vm.ip_address)
        self.packets_forwarded += 1

        if host.state is PowerState.ON:
            at = arrival_s + service_time_s
            sim = self.sim
            if at <= sim.draining_until:
                # The completion would fire inside the running drain, and
                # nothing can cancel it: record it now, at its own
                # instant, and count it as the event it stands in for
                # (DESIGN.md §10).
                self.log.append(arrival_s, vm_name, service_time_s, at)
                sim.events_processed += 1
            else:
                self._complete(Request(arrival_s, vm_name, service_time_s),
                               at)
        else:
            # Host is drowsy (or transitioning): the request waits on the
            # switch until the host is available again.
            self._pending.append(Request(arrival_s, vm_name, service_time_s,
                                         woke_host=True))
            if not woke and self.wol_sender is not None:
                self.wol_sender(WoLPacket(host.mac_address,
                                          reason="switch-port"), self.sim.now)

    def _complete(self, request: Request, at: float) -> None:
        sim = self.sim
        if at <= sim.draining_until:
            request.completion_s = at
            self.log.record(request)
            sim.events_processed += 1
            return
        # A completion past the drain's bound is an event.  Args-based
        # scheduling (no closure): it must survive a checkpoint pickle
        # of the event heap.
        sim.schedule_at(at, self._finish, request)

    def _finish(self, request: Request) -> None:
        request.completion_s = self.sim.now
        self.log.record(request)

    # ------------------------------------------------------------------
    def redispatch_pending(self) -> None:
        """Re-examine pending requests against current placement.

        One scheduling pass (DESIGN.md §12): requests whose VM now sits
        on an available host complete; the rest stay pending with *one*
        fresh WoL per distinct drowsy destination host — not one per
        waiting request — so no request can wait out a drowsy period
        that nothing else would end.  WoL is idempotent (the first
        packet starts the resume, later ones hit a RESUMING host), so
        deduplicating per pass only drops redundant packets; note the
        WoL callback may resume a host synchronously, in which case the
        per-request loop below already sees it ON and completes the
        rest of that host's queue in the same pass.
        """
        if not self._pending:
            return
        still_waiting: list[Request] = []
        woken: set[str] = set()
        for request in self._pending:
            _, host = self.dc.find_vm(request.vm_name)
            if host.state is PowerState.ON:
                self._complete(request, self.sim.now + request.service_time_s)
            else:
                still_waiting.append(request)
                if (host.state is PowerState.SUSPENDED
                        and self.wol_sender is not None
                        and host.mac_address not in woken):
                    woken.add(host.mac_address)
                    self.wol_sender(WoLPacket(host.mac_address,
                                              reason="redispatch"), self.sim.now)
        self._pending = still_waiting

    def drop_vm(self, vm_name: str) -> None:
        """Forget queued requests of a departing VM (scenario churn):
        its host may never wake for them, and re-examining them would
        fault on the now-unknown VM."""
        kept = [r for r in self._pending if r.vm_name != vm_name]
        self.requests_dropped += len(self._pending) - len(kept)
        self._pending = kept

    @property
    def queued_requests(self) -> int:
        return len(self._pending)
