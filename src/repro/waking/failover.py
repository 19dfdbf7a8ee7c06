"""Waking-module fault tolerance (paper section V).

"All waking modules work in a collaborated manner.  Each waking module
monitors — via a heart beat mechanism — and mirrors another one.  In
this way, when a waking module is defective, it is replaced with an
identical version."

:class:`ReplicatedWakingService` fronts a primary/mirror pair.  The
replication channel is synchronous and lossless in this model, so the
standby's copy of the maps would always equal the active's: the pair
shares one :class:`~repro.waking.module.WakingModuleState`, and only
the active module arms wake timers.  A heartbeat monitor promotes the
mirror when the primary misses ``heartbeat_miss_limit`` beats; the
mirror then arms every waking date left in the map (a wake that has
already fired is gone from it, so it is not sent twice).

The detection window is real.  Between the primary dying and the
heartbeat noticing (worst case :attr:`detection_delay_s`), calls against
the service behave like their distributed-system counterparts:

* state-changing calls time out against the dead active, but the same
  update also rides the replication channel: it is written to the
  shared maps alone, no timers, so promotion arms every wake registered
  inside the window (the in-flight-wake-loss fix; regression-tested in
  ``tests/test_waking.py``);
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
from .module import WakingModule, WakingModuleState, WolSender


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
        self.state = WakingModuleState()  # shared by both modules
        self.primary = WakingModule(f"{name}-primary", sim, wol_sender,
                                    params, self.state)
        self.mirror = WakingModule(f"{name}-mirror", sim,
                                   _GuardedWolSender(self, wol_sender),
                                   params, self.state)
        # The mirror must not emit WoL until promoted.
        self._mirror_active = False
        self._missed_beats = 0
        self.failovers = 0
        #: Updates written to the shared maps alone while the active was
        #: dead (the heartbeat detection window).
        self.window_journaled = 0
        #: Packets no live module could analyze (window or total outage).
        self.unanswered_packets = 0
        #: State-changing calls dropped because both replicas were dead.
        self.lost_calls = 0
        #: Heartbeat events processed.
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
        self._update(self.active.register_suspension, self.state.suspend,
                     host, waking_date_s)

    def on_host_awake(self, host: Host) -> None:
        self._update(self.active.on_host_awake, self.state.awake, host)

    def note_vm_moved(self, ip: str, mac: str | None) -> None:
        """Map update for a VM relocated without a wake (bulk moves):
        no timers, so the full call is the state update."""
        self._update(self.state.move_vm, self.state.move_vm, ip, mac)

    def _update(self, full, state_only, *args) -> None:
        """Route one state-changing call: ``full`` while the active
        module lives, ``state_only`` in the detection window, nothing
        when both replicas are dead."""
        if self.active.alive:
            full(*args)
        elif self.standby.alive:
            state_only(*args)
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
        """Mirror takes over the shared maps, re-arming their wakes."""
        self._mirror_active = True
        self.failovers += 1
        self.mirror.rearm()

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
