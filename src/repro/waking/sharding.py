"""Per-rack waking-module sharding (paper §V).

"For scalability purposes, one waking module can be used per rack,
instead of one component for the entire DC."

:class:`RackShardedWakingService` fronts one replicated waking-service
pair per rack and routes every call to the shard owning the host (for
registrations) or the destination VM (for packets).  The routing tables
are plain dict lookups, so the per-packet cost stays O(1) regardless of
DC size, and each shard's state stays proportional to its rack.
"""

from __future__ import annotations

from ..cluster.events import EventSimulator
from ..cluster.host import Host
from ..core.params import DEFAULT_PARAMS, DrowsyParams
from .failover import ReplicatedWakingService
from .module import WolSender


class RackShardedWakingService:
    """One fault-tolerant waking service per rack."""

    def __init__(self, sim: EventSimulator, wol_sender: WolSender,
                 rack_of_host: dict[str, str],
                 params: DrowsyParams = DEFAULT_PARAMS) -> None:
        if not rack_of_host:
            raise ValueError("need at least one host->rack assignment")
        self.rack_of_host = dict(rack_of_host)
        self.shards: dict[str, ReplicatedWakingService] = {
            rack: ReplicatedWakingService(sim, wol_sender, params, name=rack)
            for rack in sorted(set(rack_of_host.values()))}
        #: VM IP -> rack, refreshed on each suspension (footnote 4's
        #: update discipline applies per shard).
        self._vm_rack: dict[str, str] = {}

    # ------------------------------------------------------------------
    def shard_for_host(self, host: Host) -> ReplicatedWakingService:
        try:
            rack = self.rack_of_host[host.name]
        except KeyError:
            raise KeyError(f"host {host.name} has no rack assignment") from None
        return self.shards[rack]

    def register_suspension(self, host: Host, waking_date_s: float | None) -> None:
        shard = self.shard_for_host(host)
        for vm in host.vms:
            self._vm_rack[vm.ip_address] = self.rack_of_host[host.name]
        shard.register_suspension(host, waking_date_s)

    def on_host_awake(self, host: Host) -> None:
        self.shard_for_host(host).on_host_awake(host)

    def analyze_packet(self, dst_ip: str) -> bool:
        """Route a request to the rack shard that owns its destination.

        Unknown destinations (VM never seen suspended) are broadcast to
        no one — exactly the single-module behaviour.
        """
        rack = self._vm_rack.get(dst_ip)
        if rack is None:
            return False
        return self.shards[rack].analyze_packet(dst_ip)

    # ------------------------------------------------------------------
    def fail_rack_primary(self, rack: str) -> None:
        """Fault injection for one rack's primary module."""
        self.shards[rack].fail_primary()

    @property
    def total_wol_sent(self) -> int:
        return sum(s.active.wol_sent for s in self.shards.values())
