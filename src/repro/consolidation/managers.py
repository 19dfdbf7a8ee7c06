"""OpenStack Neat's distributed architecture (local + global managers).

The real Neat deployment splits the four sub-problems across components
(Beloglazov & Buyya 2015): a *local manager* on every compute host
watches its own utilization, decides underload/overload (sub-problems 1
and 2) and selects the VMs to migrate away (sub-problem 3); a *global
manager* on the controller node collects those reports and solves
placement (sub-problem 4).  :class:`NeatController` collapses the split
for convenience; this module implements the faithful decomposition with
explicit report messages, so the control plane can be tested (and
extended — e.g. Drowsy-DC's modules slot in host-side exactly like a
local manager).
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass

from ..cluster.accounting import host_view
from ..cluster.datacenter import DataCenter
from ..cluster.host import Host
from ..cluster.power import PowerState
from ..cluster.vm import VM
from ..core.params import DEFAULT_PARAMS, DrowsyParams
from .detection import OverloadDetector, ThresholdDetector
from .neat import MANAGED_STATES, MigrationExecutor
from .placement import PlacementPolicy, PowerAwareBestFitDecreasing
from .selection import (
    MinimumMigrationTimeSelector,
    VMSelector,
    select_until_not_overloaded,
)


class HostStatus(enum.Enum):
    NORMAL = "normal"
    UNDERLOADED = "underloaded"
    OVERLOADED = "overloaded"
    SLEEPING = "sleeping"


@dataclass(frozen=True)
class LocalManagerReport:
    """One host's message to the global manager."""

    host_name: str
    status: HostStatus
    utilization: float
    #: VM names the local manager wants migrated away (overload) or the
    #: full population (underload evacuation offer).
    migration_candidates: tuple[str, ...] = ()


class LocalManager:
    """Host-side agent: sub-problems 1-3."""

    def __init__(self, host: Host,
                 detector: OverloadDetector | None = None,
                 selector: VMSelector | None = None,
                 underload_threshold: float = 0.2,
                 overload_target: float = 0.8,
                 history_window: int = 24) -> None:
        self.host = host
        self.detector = detector or ThresholdDetector()
        self.selector = selector or MinimumMigrationTimeSelector()
        self.underload_threshold = underload_threshold
        self.overload_target = overload_target
        self.history: deque[float] = deque(maxlen=history_window)

    def observe(self, hour_index: int,
                utilization: float | None = None) -> None:
        """Record this hour's utilization.

        ``utilization`` optionally supplies the value (already gated on
        power state) from the data center's host view; it must equal
        the scalar expression below bit-for-bit.
        """
        if utilization is not None:
            self.history.append(utilization)
            return
        self.history.append(
            self.host.cpu_utilization
            if self.host.state is PowerState.ON else 0.0)

    def report(self, hour_index: int) -> LocalManagerReport:
        """Classify this host and nominate VMs to migrate."""
        host = self.host
        if host.state is not PowerState.ON:
            return LocalManagerReport(host.name, HostStatus.SLEEPING, 0.0)
        util = host.cpu_utilization
        if self.detector.is_overloaded(list(self.history)):
            order = self.selector.order(host, hour_index)
            selected = select_until_not_overloaded(host, order,
                                                   self.overload_target)
            return LocalManagerReport(
                host.name, HostStatus.OVERLOADED, util,
                tuple(vm.name for vm in selected))
        if host.vms and util < self.underload_threshold:
            return LocalManagerReport(
                host.name, HostStatus.UNDERLOADED, util,
                tuple(vm.name for vm in host.vms))
        return LocalManagerReport(host.name, HostStatus.NORMAL, util)


class GlobalManager:
    """Controller-side placement solver: sub-problem 4."""

    def __init__(self, dc: DataCenter,
                 placer: PlacementPolicy | None = None) -> None:
        self.dc = dc
        self.placer = placer or PowerAwareBestFitDecreasing()

    def step(self, reports: list[LocalManagerReport], hour_index: int,
             now: float, executor: MigrationExecutor) -> int:
        """Resolve one round of reports.  Overloads first (QoS), then
        underload evacuations least-utilized first, skipping hosts that
        just received VMs (the monolithic controller's ping-pong guard)."""
        by_name = {h.name: h for h in self.dc.hosts}
        moved = 0

        overloaded = [r for r in reports if r.status is HostStatus.OVERLOADED]
        over_names = {r.host_name for r in overloaded}
        to_place: list[VM] = []
        sources: dict[str, Host] = {}
        for r in overloaded:
            for name in r.migration_candidates:
                vm, _ = self.dc.find_vm(name)
                to_place.append(vm)
                sources[name] = by_name[r.host_name]
        targets = [h for h in self.dc.hosts
                   if h.state in MANAGED_STATES and h.name not in over_names]
        placement = self.placer.place(to_place, targets, hour_index, sources)
        unplaced = [vm for vm in to_place if vm.name not in placement]
        if unplaced:
            off_hosts = sorted((h for h in self.dc.hosts
                                if h.state is PowerState.OFF),
                               key=lambda h: h.name)
            if off_hosts:
                placement.update(self.placer.place(unplaced, off_hosts,
                                                   hour_index, sources))
        for vm in to_place:
            dest = placement.get(vm.name)
            if dest is not None:
                executor(vm, dest)
                moved += 1

        receivers = {placement[vm.name].name for vm in to_place
                     if vm.name in placement}
        underloaded = sorted(
            (r for r in reports if r.status is HostStatus.UNDERLOADED),
            key=lambda r: (r.utilization, r.host_name))
        for r in underloaded:
            host = by_name[r.host_name]
            if host.name in receivers or not host.vms:
                continue
            vms = [self.dc.find_vm(n)[0] for n in r.migration_candidates]
            targets = [h for h in self.dc.hosts
                       if h.state in MANAGED_STATES and h is not host]
            current = {vm.name: host for vm in vms}
            evacuation = self.placer.place(vms, targets, hour_index, current)
            if len(evacuation) != len(vms):
                break
            for vm in vms:
                executor(vm, evacuation[vm.name])
                receivers.add(evacuation[vm.name].name)
                moved += 1
        return moved


class DistributedNeat:
    """Drop-in controller using the local/global decomposition."""

    name = "neat-distributed"
    uses_idleness = False

    def __init__(self, dc: DataCenter, params: DrowsyParams = DEFAULT_PARAMS,
                 detector_factory=None, selector_factory=None,
                 placer: PlacementPolicy | None = None,
                 underload_threshold: float = 0.2) -> None:
        self.dc = dc
        self.params = params
        self.locals = {
            h.name: LocalManager(
                h,
                detector=(detector_factory or ThresholdDetector)(),
                selector=(selector_factory or MinimumMigrationTimeSelector)(),
                underload_threshold=underload_threshold)
            for h in dc.hosts}
        self.global_manager = GlobalManager(dc, placer)
        self.last_reports: list[LocalManagerReport] = []

    def observe_hour(self, hour_index: int) -> None:
        utils = host_view(self.dc).cpu_utilization(hour_index)
        for k, host in enumerate(self.dc.hosts):
            self.locals[host.name].observe(
                hour_index,
                float(utils[k]) if host.state is PowerState.ON else 0.0)

    def step(self, hour_index: int, now: float,
             executor: MigrationExecutor | None = None) -> int:
        if executor is None:
            executor = lambda vm, dest: self.dc.migrate(vm, dest, now)
        self.last_reports = [lm.report(hour_index)
                             for lm in self.locals.values()]
        return self.global_manager.step(self.last_reports, hour_index, now,
                                        executor)
