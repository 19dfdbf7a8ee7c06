"""The waking module (paper section V).

Runs on the never-sleeping SDN switch (one per rack).  Holds two
hashmaps:

* VM IP address -> MAC address of the drowsy server hosting it, consulted
  by the packet analyzer for every inbound request (section V-A);
* waking date -> MAC address, fed by the suspending modules, used to send
  Wake-on-LAN *ahead of time* so the host is up when the timer fires
  (section V-B).

Per the paper's footnote 4, the VM->host mappings are only refreshed
when a host suspends.

The module is deliberately free of host-object manipulation: it emits
WoL packets through a callback supplied by the simulation driver, which
owns the host power-state machine.  This keeps it mirrorable — its whole
state is the two maps — which the fault-tolerance layer exploits: a
primary/mirror pair holds one :class:`WakingModuleState` between them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..cluster.events import Event, EventSimulator
from ..cluster.host import Host
from ..core.params import DEFAULT_PARAMS, DrowsyParams
from .packets import WoLPacket

WolSender = Callable[[WoLPacket, float], None]


@dataclass
class WakingModuleState:
    """The mirrorable state of a waking module.

    A state starts empty and changes only through its update methods,
    which keep the reverse index in step with ``vm_to_mac``.
    """

    #: VM IP -> MAC of the suspended host running it.
    vm_to_mac: dict[str, str] = field(default_factory=dict, init=False)
    #: MAC -> registered waking date (absolute seconds), None = none.
    waking_dates: dict[str, float | None] = field(default_factory=dict, init=False)
    #: Reverse index of ``vm_to_mac`` (MAC -> its registered VM IPs, an
    #: ordered set as dict keys), kept in sync by every map update so a
    #: resume drops the host's stale entries in O(its VMs) instead of
    #: scanning the whole map.
    ips_of_mac: dict[str, dict[str, None]] = field(default_factory=dict, init=False)

    def suspend(self, host: Host, waking_date_s: float | None) -> None:
        """``host`` is going drowsy: map its VMs at its MAC and record
        its waking date."""
        mac = host.mac_address
        for vm in host.vms:
            self.map_vm(vm.ip_address, mac)
        self.waking_dates[mac] = waking_date_s

    def awake(self, host: Host) -> None:
        """``host`` resumed: forget its waking date and mappings."""
        mac = host.mac_address
        self.waking_dates.pop(mac, None)
        self.drop_mac(mac)

    def move_vm(self, ip: str, mac: str | None) -> None:
        """A VM relocated without a wake: point ``ip`` at the drowsy
        destination's ``mac``, or drop it when the destination is awake
        (``None``)."""
        if mac is None:
            self.drop_vm(ip)
        else:
            self.map_vm(ip, mac)

    def map_vm(self, ip: str, mac: str) -> None:
        """Point ``ip`` at ``mac``, unhooking any previous mapping."""
        old = self.vm_to_mac.get(ip)
        if old == mac:
            return
        if old is not None:
            self._drop_reverse(old, ip)
        self.vm_to_mac[ip] = mac
        self.ips_of_mac.setdefault(mac, {})[ip] = None

    def drop_mac(self, mac: str) -> None:
        """Remove every mapping onto ``mac`` (the host resumed)."""
        for ip in self.ips_of_mac.pop(mac, ()):
            self.vm_to_mac.pop(ip, None)

    def drop_vm(self, ip: str) -> None:
        """Remove one VM's mapping (it left its drowsy host)."""
        mac = self.vm_to_mac.pop(ip, None)
        if mac is not None:
            self._drop_reverse(mac, ip)

    def _drop_reverse(self, mac: str, ip: str) -> None:
        ips = self.ips_of_mac.get(mac)
        if ips is not None:
            ips.pop(ip, None)
            if not ips:
                # Never retain empty entries: the reverse index stays a
                # pure function of ``vm_to_mac`` (state equality holds
                # across different update histories).
                del self.ips_of_mac[mac]


class WakingModule:
    """Rack-level wake coordinator.

    ``state`` defaults to a fresh, private map; a mirrored pair passes
    both of its modules the same one.
    """

    def __init__(self, name: str, sim: EventSimulator, wol_sender: WolSender,
                 params: DrowsyParams = DEFAULT_PARAMS,
                 state: WakingModuleState | None = None) -> None:
        self.name = name
        self.sim = sim
        self.params = params
        self._wol_sender = wol_sender
        self.state = WakingModuleState() if state is None else state
        self._scheduled: dict[str, Event] = {}
        self.alive = True
        #: Statistics for the evaluation.
        self.wol_sent = 0
        self.packets_analyzed = 0

    # ------------------------------------------------------------------
    # registration (from suspending modules)
    # ------------------------------------------------------------------
    def register_suspension(self, host: Host, waking_date_s: float | None) -> None:
        """A host is going drowsy: refresh maps, arm the scheduled wake."""
        self._check_alive()
        self.state.suspend(host, waking_date_s)
        mac = host.mac_address
        self._cancel_scheduled(mac)
        if waking_date_s is not None:
            self._arm(mac, waking_date_s)

    def on_host_awake(self, host: Host) -> None:
        """A host resumed: drop its mappings and scheduled wake.

        O(VMs of the host) via the reverse index — this runs on every
        resume, where the old full-map scan was O(all drowsy VMs).
        """
        self._check_alive()
        self.state.awake(host)
        self._cancel_scheduled(host.mac_address)

    def rearm(self) -> None:
        """Arm a wake for every waking date in the map.

        Promotion's step: the mirror shares the map the primary kept
        (and the service wrote during the detection window), but none
        of the primary's timers."""
        for mac, date in self.state.waking_dates.items():
            if date is not None:
                self._cancel_scheduled(mac)
                self._arm(mac, date)

    def _arm(self, mac: str, waking_date_s: float) -> None:
        # Send the WoL ahead of time by the resume latency (plus a
        # small margin) so the host is up when the timer fires.
        lead = 0.0
        if self.params.ahead_of_time_wake:
            lead = self.params.resume_latency_s + self.params.wake_ahead_margin_s
        at = max(waking_date_s - lead, self.sim.now)
        self._scheduled[mac] = self.sim.schedule_at(
            at, self._fire_scheduled_wake, mac)

    def _cancel_scheduled(self, mac: str) -> None:
        ev = self._scheduled.pop(mac, None)
        if ev is not None:
            ev.cancel()

    def _check_alive(self) -> None:
        if not self.alive:
            raise RuntimeError(f"waking module {self.name} is down")

    # ------------------------------------------------------------------
    # wake paths
    # ------------------------------------------------------------------
    def _fire_scheduled_wake(self, mac: str) -> None:
        if not self.alive:
            return
        self._scheduled.pop(mac, None)
        self.state.waking_dates.pop(mac, None)
        self._send_wol(mac, reason="scheduled-date")

    def analyze_packet(self, dst_ip: str) -> bool:
        """Section V-A packet analysis of an inbound request to
        ``dst_ip``.  Returns True if a WoL was sent."""
        self._check_alive()
        self.packets_analyzed += 1
        mac = self.state.vm_to_mac.get(dst_ip)
        if mac is None:
            return False
        self._send_wol(mac, reason="inbound-request")
        return True

    def _send_wol(self, mac: str, reason: str) -> None:
        self.wol_sent += 1
        self._wol_sender(WoLPacket(mac_address=mac, reason=reason), self.sim.now)

    def fail(self) -> None:
        """Kill this module (fault injection)."""
        self.alive = False
        for ev in self._scheduled.values():
            ev.cancel()
        self._scheduled.clear()
