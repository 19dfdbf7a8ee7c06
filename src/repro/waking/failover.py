"""Waking-module fault tolerance (paper section V).

"All waking modules work in a collaborated manner.  Each waking module
monitors — via a heart beat mechanism — and mirrors another one.  In
this way, when a waking module is defective, it is replaced with an
identical version."

:class:`ReplicatedWakingService` fronts a primary/mirror pair: every
state-changing call is applied to the active module and synchronously
replicated to the standby's state; a heartbeat monitor promotes the
mirror when the primary misses ``heartbeat_miss_limit`` beats.

The detection window is real.  Between the primary dying and the
heartbeat noticing (worst case :attr:`detection_delay_s`), calls against
the service behave like their distributed-system counterparts:

* state-changing calls (register/awake) time out against the dead
  active, but the same update also reaches the standby over the
  replication channel, which *journals* it — state only, no timers —
  so promotion re-arms every wake registered inside the window (the
  in-flight-wake-loss fix; regression-tested in ``tests/test_waking.py``);
* packet analysis returns "no wake" (counted in
  :attr:`unanswered_packets`); the SDN switch's port-level WoL fallback
  keeps request-triggered wakes working meanwhile;
* with *both* replicas dead the service degrades instead of raising:
  updates are dropped (counted in :attr:`lost_calls`) and analysis
  declines, leaving the switch fallback as the only wake path.
"""

from __future__ import annotations


from ..cluster.events import EventSimulator, first_grid_point
from ..cluster.host import Host
from ..core.params import DEFAULT_PARAMS, DrowsyParams
from .module import WakingModule, WolSender


class _GuardedWolSender:
    """The mirror's WoL sender: silent until promotion.

    A module-level class (not a closure) so the service — part of the
    checkpointed simulation graph — pickles.
    """

    def __init__(self, service: "ReplicatedWakingService",
                 sender: WolSender) -> None:
        self._service = service
        self._sender = sender

    def __call__(self, packet, now) -> None:
        if self._service._mirror_active:
            self._sender(packet, now)


class ReplicatedWakingService:
    """Primary/mirror pair of waking modules with heartbeat failover."""

    def __init__(self, sim: EventSimulator, wol_sender: WolSender,
                 params: DrowsyParams = DEFAULT_PARAMS,
                 name: str = "rack0") -> None:
        self.sim = sim
        self.params = params
        self.primary = WakingModule(f"{name}-primary", sim, wol_sender, params)
        self.mirror = WakingModule(f"{name}-mirror", sim,
                                   _GuardedWolSender(self, wol_sender),
                                   params)
        # The mirror holds state but must not emit WoL until promoted.
        self._mirror_active = False
        self._missed_beats = 0
        self.failovers = 0
        #: Updates journaled on the standby while the active was dead
        #: (the heartbeat detection window).
        self.window_journaled = 0
        #: Packets no live module could analyze (window or total outage).
        self.unanswered_packets = 0
        #: State-changing calls dropped because both replicas were dead.
        self.lost_calls = 0
        #: Heartbeat events processed; the sharded reducer subtracts
        #: duplicate chains with it.
        self.beats = 0
        #: The heartbeat grid is ``origin + k * period`` (k >= 1, by
        #: iterated addition).  While the primary is alive every beat
        #: just resets the miss count, so no beat is scheduled until
        #: :meth:`fail_primary` arms the chain (DESIGN.md §14).
        self._beat_origin = sim.now
        self._heartbeat_event = None

    # ------------------------------------------------------------------
    @property
    def active(self) -> WakingModule:
        return self.mirror if self._mirror_active else self.primary

    @property
    def standby(self) -> WakingModule:
        return self.primary if self._mirror_active else self.mirror

    def register_suspension(self, host: Host, waking_date_s: float | None) -> None:
        if self.active.alive:
            self.active.register_suspension(host, waking_date_s)
            self._replicate()
        elif self.standby.alive:
            # Detection window: the RPC to the active times out, but the
            # suspending module's update also rides the replication
            # channel; the standby journals it and promotion re-arms it.
            self.standby.journal_suspension(host, waking_date_s)
            self.window_journaled += 1
        else:
            self.lost_calls += 1

    def on_host_awake(self, host: Host) -> None:
        if self.active.alive:
            self.active.on_host_awake(host)
            self._replicate()
        elif self.standby.alive:
            self.standby.journal_awake(host)
            self.window_journaled += 1
        else:
            self.lost_calls += 1

    def analyze_packet(self, dst_ip: str) -> bool:
        active = self.active
        if not active.alive:
            # Window or total outage: analysis is unavailable; the SDN
            # switch's port-level WoL fallback covers inbound requests.
            self.unanswered_packets += 1
            return False
        return active.analyze_packet(dst_ip)

    def note_vm_moved(self, ip: str, mac: str | None) -> None:
        """Map update for a VM relocated without a wake (bulk moves)."""
        if self.active.alive:
            self.active.note_vm_moved(ip, mac)
            self._replicate()
        elif self.standby.alive:
            self.standby.note_vm_moved(ip, mac)
            self.window_journaled += 1
        else:
            self.lost_calls += 1

    def _replicate(self) -> None:
        """Synchronous state mirroring after each update."""
        standby = self.standby
        if standby.alive:
            standby.state = self.active.snapshot()

    # ------------------------------------------------------------------
    def _heartbeat(self) -> None:
        """Periodic liveness check of the primary by the mirror."""
        self.beats += 1
        if self._mirror_active:
            return  # already failed over; single module remains
        if self.primary.alive:
            self._missed_beats = 0
        else:
            self._missed_beats += 1
            if self._missed_beats >= self.params.heartbeat_miss_limit:
                if self.mirror.alive:
                    self._promote_mirror()
                # Both dead: stop monitoring, service stays degraded.
                return
        self._heartbeat_event = self.sim.schedule_in(
            self.params.heartbeat_period_s, self._heartbeat)

    def _promote_mirror(self) -> None:
        """Mirror takes over with the replicated state, re-arming wakes."""
        self._mirror_active = True
        self.failovers += 1
        self.mirror.restore(self.mirror.state)

    def fail_primary(self) -> None:
        """Fault injection: crash the primary module, and arm the
        heartbeat chain at the first grid instant at or after now.
        That is the beat a chain running since construction would fire
        next, so the mirror is promoted at the same instant; a kill on
        a grid instant counts that instant's beat as its first miss, as
        such a chain's beat (scheduled earlier) would."""
        self.primary.fail()
        if self._heartbeat_event is not None:
            return  # the chain is already running (or has ended)
        period = self.params.heartbeat_period_s
        self._heartbeat_event = self.sim.schedule_at(
            first_grid_point(self._beat_origin + period, period,
                             self.sim.now),
            self._heartbeat)

    @property
    def detection_delay_s(self) -> float:
        """Worst-case failover detection latency."""
        return self.params.heartbeat_period_s * self.params.heartbeat_miss_limit
