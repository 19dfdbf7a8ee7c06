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

import numpy as np

from ..cluster.accounting import host_list_view
from ..cluster.host import Host
from ..cluster.power import PowerModel
from ..cluster.vm import VM
from ..core.params import DEFAULT_PARAMS, DrowsyParams


class PlacementPolicy(Protocol):
    """Choose a destination for each VM in a batch."""

    def place(self, vms: list[VM], hosts: list[Host], hour_index: int,
              current_host: dict[str, Host]) -> dict[str, Host]: ...


class _Candidates:
    """One planning round's per-candidate-host columns (``hosts``
    order): capacity, load and name rank, read from the hosts' view;
    mean raw IP and CPU demand on request.  ``used_*`` are the round's
    own copies: planned VMs are added to them.
    """

    def __init__(self, hosts: list[Host]) -> None:
        self.hosts = hosts
        view, pos = host_list_view(hosts)
        #: The hosts' positions in the view.
        self._view, self._pos = view, pos
        self.cap_mem = view.capacity_memory_mb[pos]
        self.sched_cpus = view.schedulable_cpus[pos]
        self.cap_cpus = view.capacity_cpus[pos]
        self.used_mem = view.used_memory_mb()[pos]
        self.used_cpu = view.used_cpus()[pos]
        self.rank = view.name_rank[pos]

    def mean_ip(self, hour_index: int) -> np.ndarray:
        return self._view.mean_raw_ip(hour_index)[self._pos]

    def demand(self, hour_index: int) -> np.ndarray:
        return self._view.cpu_demand(hour_index)[self._pos]

    def any_fits(self, vms: list[VM]) -> bool:
        """Whether some VM fits on some host, by :meth:`fitting`'s test
        on each distinct flavor.  Planned VMs only use up room, so a
        round without such a pair places nothing."""
        flavors = np.array(list({(vm.resources.memory_mb, vm.resources.cpus)
                                 for vm in vms})).reshape(-1, 2)
        fit = ((self.used_mem + flavors[:, :1] <= self.cap_mem)
               & (self.used_cpu + flavors[:, 1:] <= self.sched_cpus))
        return bool(fit.any())

    def fitting(self, vm: VM, source: Host | None) -> np.ndarray:
        """Indices of the hosts ``vm`` fits on, ``source`` excluded."""
        fit = ((self.used_mem + vm.resources.memory_mb <= self.cap_mem)
               & (self.used_cpu + vm.resources.cpus <= self.sched_cpus))
        if source is not None:
            fit &= self._pos != self._view.positions.get(source.name, -1)
        return np.flatnonzero(fit)

    def add(self, k: int, vm: VM) -> None:
        """Plan ``vm`` onto host ``k``."""
        self.used_mem[k] += vm.resources.memory_mb
        self.used_cpu[k] += vm.resources.cpus


def _lexmin(*keys: np.ndarray) -> int:
    """Position of the lexicographically smallest ``(keys[0][i],
    keys[1][i], ...)``; the last key must be unique."""
    sel = np.flatnonzero(keys[0] == keys[0].min())
    for key in keys[1:]:
        if sel.size == 1:
            break
        sub = key[sel]
        sel = sel[sub == sub.min()]
    return int(sel[0])


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
        """Each VM (decreasing demand) to the fitting host whose power
        draw rises least, ties by name; every candidate scored in one
        numpy pass, host loads updated as VMs are planned."""
        cols = _Candidates(hosts)
        if not cols.any_fits(vms):
            return {}
        placement: dict[str, Host] = {}
        demand_col = cols.demand(hour_index)
        planned = np.zeros(len(hosts))
        model = self.power_model
        for vm in decreasing_demand(vms):
            cand = cols.fitting(vm, current_host.get(vm.name))
            if cand.size == 0:
                continue
            demand = demand_col[cand] + planned[cand]
            cap = cols.cap_cpus[cand]
            extra = vm.current_activity * vm.resources.cpus
            before = model.s0_power(np.minimum((demand + 0.0) / cap, 1.0))
            after = model.s0_power(np.minimum((demand + extra) / cap, 1.0))
            k = int(cand[_lexmin(after - before, cols.rank[cand])])
            placement[vm.name] = hosts[k]
            cols.add(k, vm)
            planned[k] += extra
        return placement


@dataclass
class IPAwarePlacement:
    """Drowsy-DC placement: biggest VMs first, destination = closest IP.

    Among suitable hosts, minimize |host IP - VM IP|; resource fit is a
    hard constraint.  Ties (within the tolerance bucket) go to the more
    loaded host (stacking: least free memory at the start of the round),
    then host name for determinism.
    """

    params: DrowsyParams = DEFAULT_PARAMS

    def place(self, vms: list[VM], hosts: list[Host], hour_index: int,
              current_host: dict[str, Host]) -> dict[str, Host]:
        """Every candidate host for a VM scored in one numpy pass: the
        lexicographic minimum of (IP-distance bucket, free memory, name
        rank) over the fitting hosts."""
        cols = _Candidates(hosts)
        if not cols.any_fits(vms):
            return {}
        placement: dict[str, Host] = {}
        tol = self.params.ip_distance_tolerance
        mean_ip = cols.mean_ip(hour_index)
        free_mem = (cols.cap_mem - cols.used_mem).astype(np.float64)
        ordered = sorted(vms, key=lambda vm: (-vm.resources.memory_mb,
                                              -vm.resources.cpus, vm.name))
        for vm in ordered:
            vm_ip = vm.raw_ip(hour_index)
            cand = cols.fitting(vm, current_host.get(vm.name))
            if cand.size == 0:
                continue
            if tol > 0:
                bucket = np.trunc(np.abs(mean_ip[cand] - vm_ip) / tol)
            else:
                bucket = np.zeros(cand.size)
            k = int(cand[_lexmin(bucket, free_mem[cand], cols.rank[cand])])
            placement[vm.name] = hosts[k]
            cols.add(k, vm)
        return placement
