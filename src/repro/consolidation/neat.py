"""OpenStack Neat reimplementation (paper references [19], [25]).

Neat decomposes dynamic VM consolidation into four sub-problems:
(1) underload detection, (2) overload detection, (3) VM selection and
(4) VM placement.  :class:`NeatController` wires the pluggable pieces
from :mod:`.detection`, :mod:`.selection` and :mod:`.placement`; the
Drowsy-DC controller subclasses it, swapping (3) and (4) for the
IP-aware policies and appending the opportunistic step — exactly how
the paper describes its integration (section III-D-b).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..cluster.accounting import host_view
from ..cluster.datacenter import DataCenter
from ..cluster.host import Host
from ..cluster.power import ON_CODE, SUSPENDED_CODE, PowerState
from ..cluster.vm import VM
from ..core.params import DEFAULT_PARAMS, DrowsyParams
from .detection import (
    OverloadDetector,
    ThresholdDetector,
    overloaded_mask,
    underload_order,
)
from .placement import PlacementPolicy, PowerAwareBestFitDecreasing
from .selection import (
    MinimumMigrationTimeSelector,
    VMSelector,
    select_until_not_overloaded,
)

#: Hosts in these states participate in consolidation (a drowsy host
#: still hosts VMs; powered-off hosts do not).
MANAGED_STATES = (PowerState.ON, PowerState.SUSPENDED)

#: Executor callback: perform one migration (driver wakes hosts, etc.).
MigrationExecutor = Callable[[VM, Host], None]


class NeatController:
    """Dynamic consolidation in the style of OpenStack Neat."""

    name = "neat"
    #: Whether this controller consumes idleness models (Drowsy does).
    uses_idleness = False

    def __init__(
        self,
        dc: DataCenter,
        detector: OverloadDetector | None = None,
        selector: VMSelector | None = None,
        placer: PlacementPolicy | None = None,
        params: DrowsyParams = DEFAULT_PARAMS,
        overload_target: float = 0.8,
        history_window: int = 24,
    ) -> None:
        self.dc = dc
        self.params = params
        self.detector = detector or ThresholdDetector()
        self.selector = selector or MinimumMigrationTimeSelector()
        self.placer = placer or PowerAwareBestFitDecreasing()
        self.overload_target = overload_target
        #: Utilization history, one row per host (``dc.hosts`` order),
        #: most recent value in the last column; ``_history_len`` says
        #: how many trailing columns of each row hold history.
        self._history = np.zeros((len(dc.hosts), history_window))
        self._history_len = np.zeros(len(dc.hosts), dtype=np.int64)

    @property
    def history(self) -> dict[str, np.ndarray]:
        """Each host's recorded utilizations, oldest first."""
        w = self._history.shape[1]
        return {h.name: self._history[k, w - n:].copy()
                for k, (h, n) in enumerate(
                    zip(self.dc.hosts, self._history_len.tolist()))}

    # ------------------------------------------------------------------
    def observe_hour(self, hour_index: int) -> None:
        """Record host utilizations (call after activities are set):
        one column shift for every host (0.0 for hosts not ON).
        """
        on = self.dc.meters.state == ON_CODE
        utils = host_view(self.dc).cpu_utilization(hour_index)
        hist = self._history
        hist[:, :-1] = hist[:, 1:]
        hist[:, -1] = np.where(on, utils, 0.0)
        np.minimum(self._history_len + 1, hist.shape[1],
                   out=self._history_len)

    def managed_positions(self) -> np.ndarray:
        """Positions (``dc.hosts`` order) of the hosts in
        :data:`MANAGED_STATES`."""
        state = self.dc.meters.state
        return np.flatnonzero((state == ON_CODE) | (state == SUSPENDED_CODE))

    def managed_hosts(self) -> list[Host]:
        """Hosts in :data:`MANAGED_STATES`, in host order."""
        hosts = self.dc.hosts
        return [hosts[k] for k in self.managed_positions().tolist()]

    # ------------------------------------------------------------------
    def step(self, hour_index: int, now: float,
             executor: MigrationExecutor | None = None) -> int:
        """One consolidation round.  Returns the number of migrations."""
        if executor is None:
            executor = lambda vm, dest: self.dc.migrate(vm, dest, now)
        return (self._handle_overloaded(hour_index, executor)
                + self._handle_underloaded(hour_index, executor))

    def _handle_overloaded(self, hour_index: int,
                           executor: MigrationExecutor) -> int:
        on = self.dc.meters.state == ON_CODE
        hosts = self.dc.hosts
        overloaded = [hosts[k] for k in np.flatnonzero(overloaded_mask(
            self.detector, self._history, self._history_len, on)).tolist()]
        if not overloaded:
            return 0
        to_place: list[VM] = []
        sources = {}
        for host in overloaded:
            order = self.selector.order(host, hour_index)
            for vm in select_until_not_overloaded(host, order, self.overload_target):
                to_place.append(vm)
                sources[vm.name] = host
        targets = [h for h in self.managed_hosts() if h not in overloaded]
        placement = self.placer.place(to_place, targets, hour_index, sources)
        unplaced = [vm for vm in to_place if vm.name not in placement]
        if unplaced:
            # Neat reactivates powered-off hosts when overload relief
            # cannot fit on the active pool.
            off_hosts = sorted(
                (h for h in self.dc.hosts if h.state is PowerState.OFF),
                key=lambda h: h.name)
            if off_hosts:
                extra = self.placer.place(unplaced, off_hosts, hour_index,
                                          sources)
                placement.update(extra)
        moved = 0
        for vm in to_place:
            dest = placement.get(vm.name)
            if dest is not None:
                executor(vm, dest)
                moved += 1
        return moved

    def _handle_underloaded(self, hour_index: int,
                            executor: MigrationExecutor) -> int:
        """Try to fully evacuate the least-utilized active hosts."""
        dc = self.dc
        view = host_view(dc)
        active = np.flatnonzero((dc.meters.state == ON_CODE)
                                & (view.vm_counts() > 0))
        utils = view.cpu_utilization(hour_index)[active]
        candidates = active[underload_order(utils, view.name_rank[active])]
        moved = 0
        receivers: set[str] = set()
        for k in candidates.tolist():
            host = dc.hosts[k]
            if not host.vms or host.name in receivers:
                # A host that just received evacuated VMs must not be
                # evacuated itself this round (ping-pong guard).
                continue
            vms = list(host.vms)
            targets = [h for h in self.managed_hosts() if h is not host]
            current = {vm.name: host for vm in vms}
            placement = self.placer.place(vms, targets, hour_index, current)
            if len(placement) != len(vms):
                # Neat stops at the first candidate it cannot evacuate.
                break
            for vm in vms:
                executor(vm, placement[vm.name])
                receivers.add(placement[vm.name].name)
                moved += 1
        return moved
