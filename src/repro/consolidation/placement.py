"""VM placement (Neat sub-problem 4) — PABFD and the IP-aware variant.

Classic Neat places migrating VMs with Power-Aware Best Fit Decreasing
(PABFD): VMs in decreasing CPU demand, each to the host whose power draw
increases least.  Drowsy-DC keeps the decreasing-demand outer loop
("we first treat VMs with the biggest resource requirements") but picks,
among the hosts that can take the VM, the one with the IP closest to the
VM's (paper section III-D-b, step 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from ..cluster.accounting import columnar_host_view
from ..cluster.host import Host
from ..cluster.power import PowerModel
from ..cluster.vm import VM
from ..core.params import DEFAULT_PARAMS, DrowsyParams


class PlacementPolicy(Protocol):
    """Choose a destination for each VM in a batch."""

    def place(self, vms: list[VM], hosts: list[Host], hour_index: int,
              current_host: dict[str, Host]) -> dict[str, Host]: ...


def _fits(host: Host, vm: VM) -> bool:
    used = host.used_resources
    return (used.memory_mb + vm.resources.memory_mb <= host.capacity.memory_mb
            and used.cpus + vm.resources.cpus <= host.capacity.schedulable_cpus)


def _accounting_for(hosts: list[Host]):
    """The columnar host accounting covering ``hosts``, or ``None``.

    Placement policies only see a host list; the data-center
    back-reference lets them read per-host loads and IP means from the
    columnar view (bit-identical to the scalar properties) instead of
    re-summing VM lists per candidate host.
    """
    if not hosts:
        return None
    dc = getattr(hosts[0], "_dc", None)
    if dc is None:
        return None
    acc = columnar_host_view(dc)
    if acc is None:
        return None
    if any(acc.position(h.name) is None for h in hosts):
        return None
    return acc


def decreasing_demand(vms: list[VM]) -> list[VM]:
    """Sort by decreasing CPU demand, then memory, then name (stable)."""
    return sorted(vms, key=lambda vm: (-vm.current_activity * vm.resources.cpus,
                                       -vm.resources.memory_mb, vm.name))


@dataclass
class PowerAwareBestFitDecreasing:
    """Beloglazov's PABFD."""

    power_model: PowerModel = PowerModel()

    def place(self, vms: list[VM], hosts: list[Host], hour_index: int,
              current_host: dict[str, Host]) -> dict[str, Host]:
        from ..cluster.power import PowerState

        placement: dict[str, Host] = {}
        # Host membership is fixed during a planning round, so the base
        # loads are computed once per host instead of once per
        # (vm, host) pair; planned additions accumulate incrementally.
        # The running sums reproduce the seed's left-to-right Python
        # sums exactly (same floats, same order of additions) — as do
        # the columnar accounting columns used when available.
        acc = _accounting_for(hosts)
        if acc is not None:
            mem_col, cpu_col = acc.used_memory_mb(), acc.used_cpus()
            demand_col = acc.cpu_demand(hour_index)
            used_mem, used_cpu, base_demand = {}, {}, {}
            for h in hosts:
                k = acc.position(h.name)
                used_mem[h.name] = int(mem_col[k])
                used_cpu[h.name] = int(cpu_col[k])
                base_demand[h.name] = float(demand_col[k])
        else:
            used_mem = {h.name: h.used_resources.memory_mb for h in hosts}
            used_cpu = {h.name: h.used_resources.cpus for h in hosts}
            base_demand = {
                h.name: sum(v.current_activity * v.resources.cpus
                            for v in h.vms)
                for h in hosts}
        planned_demand = {h.name: 0.0 for h in hosts}

        for vm in decreasing_demand(vms):
            # (key, host): names are unique, so the key alone decides.
            best: tuple[tuple[float, str], Host] | None = None
            src = current_host.get(vm.name)
            for host in hosts:
                if src is not None and host is src:
                    continue
                name = host.name
                if not (used_mem[name] + vm.resources.memory_mb
                        <= host.capacity.memory_mb
                        and used_cpu[name] + vm.resources.cpus
                        <= host.capacity.schedulable_cpus):
                    continue
                demand = base_demand[name] + planned_demand[name]
                cap = host.capacity.cpus
                before = self.power_model.power(
                    PowerState.ON, min((demand + 0.0) / cap, 1.0))
                extra = vm.current_activity * vm.resources.cpus
                after = self.power_model.power(
                    PowerState.ON, min((demand + extra) / cap, 1.0))
                cand = (after - before, name)
                if best is None or cand < best[0]:
                    best = (cand, host)
            if best is not None:
                dest = best[1]
                placement[vm.name] = dest
                used_mem[dest.name] += vm.resources.memory_mb
                used_cpu[dest.name] += vm.resources.cpus
                planned_demand[dest.name] += (vm.current_activity
                                              * vm.resources.cpus)
        return placement


@dataclass
class IPAwarePlacement:
    """Drowsy-DC placement: biggest VMs first, destination = closest IP.

    Among suitable hosts, minimize |host IP - VM IP|; resource fit is a
    hard constraint.  Ties (within the tolerance bucket) go to the more
    loaded host (stacking), then host name for determinism.
    """

    params: DrowsyParams = DEFAULT_PARAMS

    def place(self, vms: list[VM], hosts: list[Host], hour_index: int,
              current_host: dict[str, Host]) -> dict[str, Host]:
        placement: dict[str, Host] = {}
        tol = self.params.ip_distance_tolerance
        # Per-host quantities that are constant for the whole planning
        # round (models and membership don't change mid-round), hoisted
        # out of the (vm, host) pair loop: the host IP means, the free
        # memory used for stacking ties, and the running fit loads.
        # The columnar accounting supplies them in one pass when active.
        acc = _accounting_for(hosts)
        if acc is not None:
            ip_col = acc.mean_raw_ip(hour_index)
            mem_col, cpu_col = acc.used_memory_mb(), acc.used_cpus()
            mean_ip, free_mem, used_mem, used_cpu = {}, {}, {}, {}
            for h in hosts:
                k = acc.position(h.name)
                mean_ip[h.name] = float(ip_col[k])
                used_mem[h.name] = int(mem_col[k])
                used_cpu[h.name] = int(cpu_col[k])
                free_mem[h.name] = h.capacity.memory_mb - used_mem[h.name]
        else:
            mean_ip = {h.name: h.mean_raw_ip(hour_index) for h in hosts}
            free_mem = {h.name: h.capacity.memory_mb
                        - h.used_resources.memory_mb for h in hosts}
            used_mem = {h.name: h.capacity.memory_mb - free_mem[h.name]
                        for h in hosts}
            used_cpu = {h.name: h.used_resources.cpus for h in hosts}

        ordered = sorted(vms, key=lambda vm: (-vm.resources.memory_mb,
                                              -vm.resources.cpus, vm.name))
        for vm in ordered:
            vm_ip = vm.raw_ip(hour_index)
            src = current_host.get(vm.name)
            # (key, host): names are unique, so the key alone decides.
            best: tuple[tuple[int, float, str], Host] | None = None
            for host in hosts:
                if src is not None and host is src:
                    continue
                name = host.name
                if not (used_mem[name] + vm.resources.memory_mb
                        <= host.capacity.memory_mb
                        and used_cpu[name] + vm.resources.cpus
                        <= host.capacity.schedulable_cpus):
                    continue
                distance = abs(mean_ip[name] - vm_ip)
                bucket = int(distance / tol) if tol > 0 else 0
                cand = (bucket, float(free_mem[name]), name)
                if best is None or cand < best[0]:
                    best = (cand, host)
            if best is not None:
                dest = best[1]
                placement[vm.name] = dest
                used_mem[dest.name] += vm.resources.memory_mb
                used_cpu[dest.name] += vm.resources.cpus
        return placement
