"""Data-center registry: hosts, VMs, placement and migrations.

The :class:`DataCenter` is the single source of truth for "which VM runs
where" and the only code that changes it: every placement change goes
through one attach/detach pair that updates ``host.vms``, the O(1)
indexes and the columnar accounting together, so the indexes never need
repair.  Consolidation controllers express decisions as migration lists;
the data center validates and applies them, keeping the records Fig. 2
is built from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.params import DEFAULT_PARAMS, DrowsyParams
from .accounting import HostColumns, host_view
from .host import Host
from .migration import MigrationModel, MigrationRecord
from .power import MeterBank, PowerState
from .vm import VM


class PlacementError(RuntimeError):
    """Raised when a placement/migration violates capacity or identity."""


#: Renumbered VMs take addresses of ``10.0.0.0/8`` from this offset up:
#: ``10.0.1.0``, the first past the default pool ``10.0.0.1-250``.
_FIRST_SPARE = 256
#: Host offsets in ``10.0.0.0/8``: the network and broadcast addresses
#: are never handed out.
_ADDRESSES = (1 << 24) - 2


def _address(offset: int) -> str:
    return f"10.{offset >> 16}.{offset >> 8 & 255}.{offset & 255}"


@dataclass
class DataCenter:
    """Hosts, VMs and their current placement."""

    hosts: list[Host]
    params: DrowsyParams = DEFAULT_PARAMS
    migration_model: MigrationModel = field(default_factory=MigrationModel)
    migrations: list[MigrationRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        names = [h.name for h in self.hosts]
        if len(set(names)) != len(names):
            raise PlacementError("duplicate host names")
        self._host_by_name = {h.name: h for h in self.hosts}
        for host in self.hosts:
            host._dc = self
        #: The hosts' energy meters as one bank of per-host columns
        #: (host order); every ``host.meter`` is a row view into it.
        self.meters = MeterBank.gather([h.meter for h in self.hosts], names)
        #: Positions, name ranks and capacities of the hosts, the
        #: placement-independent half of every host view
        #: (:mod:`repro.cluster.accounting`).
        self.host_columns = HostColumns(self.hosts)
        #: Placement index (vm name -> host), maintained by every
        #: placement-changing operation so :meth:`host_of` is O(1) on the
        #: migration and request paths instead of an O(hosts x vms) scan.
        self._placement: dict[str, Host] = {
            vm.name: host for host in self.hosts for vm in host.vms}
        #: VM registry (vm name -> VM), the other half of the O(1)
        #: request path (:meth:`find_vm`); kept in lockstep with the
        #: placement index.
        self._vm_by_name: dict[str, VM] = {
            vm.name: vm for host in self.hosts for vm in host.vms}
        #: Address index (IP -> VM): a VM's address is unique among the
        #: placed VMs, so the waking plane's IP -> MAC map never aliases
        #: two VMs (DESIGN.md §10).
        self._vm_by_ip: dict[str, VM] = {}
        #: Where the search for a renumbered VM's address resumes.
        self._spare_ip = _FIRST_SPARE
        for host in self.hosts:
            for vm in host.vms:
                vm.ip_address = self._address_for(vm)
                self._vm_by_ip[vm.ip_address] = vm
        #: Wake-path index (MAC -> host): WoL delivery is per-packet, so
        #: a linear scan over hosts would be O(hosts) per wake
        #: (DESIGN.md §10).  Host MACs are construction-time constants.
        self.host_by_mac: dict[str, Host] = {
            h.mac_address: h for h in self.hosts}
        #: Columnar host accounting (attached by the fleet binding, see
        #: :mod:`repro.cluster.accounting`).  Placement-changing
        #: operations notify it incrementally so its incidence rows
        #: track host membership without rescans.
        self._accounting = None
        #: The columnar fleet binding (set by ``FleetBinding.try_bind``);
        #: :meth:`_attach` tells it when a VM it does not own lands.
        self._fleet_binding = None
        #: :attr:`vms`, cached until the next placement change.
        self._vms: list[VM] | None = None

    # ------------------------------------------------------------------
    # the single placement writer
    # ------------------------------------------------------------------
    def _attach(self, vm: VM, host: Host) -> None:
        ip = self._address_for(vm)
        host.add_vm(vm)
        vm.ip_address = ip
        self._vm_by_ip[ip] = vm
        self._placement[vm.name] = host
        self._vm_by_name[vm.name] = vm
        self._vms = None
        if self._fleet_binding is not None:
            self._fleet_binding.on_attach(vm)
        if self._accounting is not None:
            self._accounting.on_place(vm.name, host)

    def _detach(self, vm: VM, host: Host) -> None:
        host.remove_vm(vm)
        del self._placement[vm.name]
        del self._vm_by_name[vm.name]
        # An address rewritten behind this class's back keeps its old
        # entry; check_invariants reports the disagreement.
        if self._vm_by_ip.get(vm.ip_address) is vm:
            del self._vm_by_ip[vm.ip_address]
        self._vms = None
        if self._accounting is not None:
            self._accounting.on_remove(vm.name, host)

    def _address_for(self, vm: VM) -> str:
        """The address ``vm`` takes on attach: its own unless another
        placed VM holds it, then the next free one (an explicit address
        is refused instead).  A migrating VM's own address was freed
        just before, so migrations never renumber a VM."""
        ip = vm.ip_address
        holder = self._vm_by_ip.get(ip)
        if holder is None:
            return ip
        if vm.ip_explicit:
            raise PlacementError(
                f"{vm.name}: address {ip} is taken by {holder.name}")
        if len(self._vm_by_ip) >= _ADDRESSES:
            raise PlacementError("10.0.0.0/8 has no free address")
        offset = self._spare_ip
        while True:
            ip = _address(offset)
            offset = offset % _ADDRESSES + 1
            if ip not in self._vm_by_ip:
                self._spare_ip = offset
                return ip

    # ------------------------------------------------------------------
    @property
    def vms(self) -> list[VM]:
        """All placed VMs (stable order: host order, then host-local).

        One list per placement epoch: callers must not mutate it.
        """
        vms = self._vms
        if vms is None:
            vms = self._vms = [vm for host in self.hosts for vm in host.vms]
        return vms

    def host_of(self, vm: VM) -> Host:
        host = self._placement.get(vm.name)
        if host is None or self._vm_by_name[vm.name] is not vm:
            raise PlacementError(f"{vm.name} is not placed")
        return host

    def host(self, name: str) -> Host:
        try:
            return self._host_by_name[name]
        except KeyError:
            raise PlacementError(f"unknown host {name}") from None

    def find_vm(self, vm_name: str) -> tuple[VM, Host]:
        """O(1) ``(vm, host)`` lookup by VM name (the per-packet path).

        Raises ``KeyError`` for unknown VMs (the request path's
        contract).
        """
        vm = self._vm_by_name.get(vm_name)
        if vm is None:
            raise KeyError(f"unknown VM {vm_name}")
        return vm, self._placement[vm_name]

    # ------------------------------------------------------------------
    def place(self, vm: VM, host: Host) -> None:
        """Initial placement of an unplaced VM."""
        current = self._placement.get(vm.name)
        if current is not None:
            raise PlacementError(f"{vm.name} already placed on {current.name}")
        self._attach(vm, host)

    def migrate(self, vm: VM, destination: Host, now: float) -> MigrationRecord:
        """Move ``vm`` to ``destination``, recording the migration.

        A migration to the current host is rejected — controllers must
        filter no-ops so Fig. 2's migration counts stay meaningful.
        """
        source = self.host_of(vm)
        if source is destination:
            raise PlacementError(f"{vm.name} already on {destination.name}")
        if not destination.can_host(vm):
            raise PlacementError(f"{vm.name} does not fit on {destination.name}")
        duration = self.migration_model.duration_s(vm)
        source.sync_meter(source.meter_time(now))
        destination.sync_meter(destination.meter_time(now))
        self._detach(vm, source)
        self._attach(vm, destination)
        vm.migrations += 1
        record = MigrationRecord(time=now, vm_name=vm.name,
                                 source=source.name,
                                 destination=destination.name,
                                 duration_s=duration)
        self.migrations.append(record)
        return record

    def apply_assignment(self, assignment: dict[str, Host], now: float) -> list[MigrationRecord]:
        """Bulk relocation: move every named VM to its assigned host.

        Used by the periodic-relocation evaluation mode (section VI-A.1),
        where whole groups of VMs swap hosts at once: per-move capacity
        checking would deadlock on swaps, so VMs are detached first and
        each destination's capacity is checked as the VMs land.  Only
        VMs that actually change host are recorded as migrations.
        """
        moves: list[tuple[VM, Host, Host]] = []
        for name, dest in assignment.items():
            try:
                vm, src = self.find_vm(name)
            except KeyError:
                raise PlacementError(f"unknown VM {name}") from None
            if src is not dest:
                moves.append((vm, src, dest))
        self.sync_meters(now)
        for vm, src, _ in moves:
            self._detach(vm, src)
        records = []
        for vm, src, dest in moves:
            if not dest.can_host(vm):
                # Roll forward is impossible; surface the planning bug.
                raise PlacementError(
                    f"assignment overfills {dest.name} with {vm.name}")
            self._attach(vm, dest)
            vm.migrations += 1
            record = MigrationRecord(
                time=now, vm_name=vm.name, source=src.name,
                destination=dest.name,
                duration_s=self.migration_model.duration_s(vm))
            self.migrations.append(record)
            records.append(record)
        return records

    def evacuate(self, host: Host, now: float,
                 targets: list[Host] | None = None) -> tuple[list[VM], list[VM]]:
        """Drain ``host``: migrate every hosted VM to the first target
        with room (first-fit in the given order; default: every other
        host).  Returns ``(migrated, stranded)`` — stranded VMs stay put
        when nothing fits, and the caller (e.g. a scenario maintenance
        window, DESIGN.md §12) decides whether the drain still counts.
        """
        if targets is None:
            targets = [h for h in self.hosts if h is not host]
        migrated: list[VM] = []
        stranded: list[VM] = []
        for vm in list(host.vms):
            dest = next((t for t in targets
                         if t is not host and t.can_host(vm)), None)
            if dest is None:
                stranded.append(vm)
            else:
                self.migrate(vm, dest, now)
                migrated.append(vm)
        return migrated, stranded

    def remove(self, vm: VM, now: float) -> None:
        """Detach a VM from the fleet (an SLMU task completing, a churn
        departure, a sharded transfer out): its host's meter is charged
        up to ``now`` and the VM leaves the host."""
        host = self.host_of(vm)
        host.sync_meter(host.meter_time(now))
        self._detach(vm, host)

    # ------------------------------------------------------------------
    def available_hosts(self) -> list[Host]:
        """Hosts currently able to run VM work (S0)."""
        return [h for h in self.hosts if h.is_available]

    def sync_meters(self, now: float, utilizations=None) -> None:
        """Advance every host's energy meter to ``now`` in one columnar
        charge (DESIGN.md §7).

        ``utilizations`` (optional, ``(n_hosts,)`` in host order) lets
        the columnar hot path hand each host its precomputed CPU
        utilization instead of the per-VM ``Host.cpu_utilization`` sum;
        values must equal the scalar property bit-for-bit (they do when
        taken from :class:`~repro.cluster.accounting.HostAccounting`).
        """
        if utilizations is None:
            on = PowerState.ON
            utilizations = [h.cpu_utilization if h.state is on else 0.0
                            for h in self.hosts]
        self.meters.charge(now, utilizations)

    def total_energy_kwh(self) -> float:
        return sum(h.meter.energy_kwh for h in self.hosts)

    def set_hour_activities(self, hour_index: int, now: float) -> None:
        """Load each VM's trace activity for the given hour.

        Meters are advanced first so the previous hour is charged at the
        old utilization.
        """
        self.sync_meters(now)
        for host in self.hosts:
            for vm in host.vms:
                vm.current_activity = vm.activity_at(hour_index)

    def check_invariants(self) -> None:
        """Assert the placement is sound and every index mirrors it.

        Capacity holds on every host, each VM sits on exactly one host,
        no two VMs share an address, and the placement index, VM
        registry, address index, MAC index and (when valid)
        columnar accounting rows all agree with ``host.vms``.  Only this
        class changes placement, so a disagreement means some code wired
        ``host.vms`` behind its back: the check raises
        :class:`PlacementError` and repairs nothing.  A test/debug
        assertion — O(hosts x vms), never called per simulated hour.
        """
        seen: dict[str, Host] = {}
        registry: dict[str, VM] = {}
        for host in self.hosts:
            cpus = 0
            memory_mb = 0
            for vm in host.vms:
                cpus += vm.resources.cpus
                memory_mb += vm.resources.memory_mb
            if memory_mb > host.capacity.memory_mb:
                raise PlacementError(f"{host.name} over memory capacity")
            if cpus > host.capacity.schedulable_cpus:
                raise PlacementError(f"{host.name} over CPU capacity")
            for vm in host.vms:
                if vm.name in seen:
                    raise PlacementError(
                        f"{vm.name} on both {seen[vm.name].name} and {host.name}")
                seen[vm.name] = host
                registry[vm.name] = vm
        if self._placement != seen or self._vm_by_name != registry:
            raise PlacementError(
                "placement index disagrees with host membership")
        addresses = {vm.ip_address: vm for vm in registry.values()}
        if len(addresses) != len(registry):
            raise PlacementError("two placed VMs share an address")
        if self._vm_by_ip != addresses:
            raise PlacementError("address index disagrees with the VMs")
        if self.host_by_mac != {h.mac_address: h for h in self.hosts}:
            raise PlacementError("MAC index disagrees with the host list")
        if self._vms is not None and self._vms != [
                vm for host in self.hosts for vm in host.vms]:
            raise PlacementError("cached VM list disagrees with host membership")
        for k, host in enumerate(self.hosts):
            if (host.meter._bank is not self.meters or host.meter._row != k
                    or self.meters.state[k] != host.state.code):
                raise PlacementError(f"{host.name}: meter row out of step")
        try:
            host_view(self).verify()
        except AssertionError as exc:
            raise PlacementError(str(exc)) from None
