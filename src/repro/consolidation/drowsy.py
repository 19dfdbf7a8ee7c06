"""The Drowsy-DC consolidation controller (paper section III-D).

Extends Neat by (a) swapping VM selection for the IP-distance policy and
placement for the IP-proximity policy, (b) appending the *opportunistic
consolidation step* that splits hosts whose VM-IP range exceeds 7σ, and
(c) offering the periodic full-relocation mode used by the testbed
evaluation (section VI-A.1) where all VMs are re-placed by IP every
round "instead of waiting for the need of a migration decision".
"""

from __future__ import annotations

import numpy as np

from ..cluster.accounting import columnar_host_view
from ..cluster.datacenter import DataCenter
from ..cluster.host import Host
from ..cluster.vm import VM
from ..core.params import DEFAULT_PARAMS, DrowsyParams
from .detection import OverloadDetector
from .neat import MANAGED_STATES, MigrationExecutor, NeatController
from .placement import IPAwarePlacement
from .selection import IPDistanceSelector


class DrowsyController(NeatController):
    """Neat + idleness-aware selection/placement + opportunistic step."""

    name = "drowsy-dc"
    uses_idleness = True

    def __init__(
        self,
        dc: DataCenter,
        detector: OverloadDetector | None = None,
        params: DrowsyParams = DEFAULT_PARAMS,
        overload_target: float = 0.8,
        history_window: int = 24,
    ) -> None:
        super().__init__(
            dc,
            detector=detector,
            selector=IPDistanceSelector(params=params),
            placer=IPAwarePlacement(params=params),
            params=params,
            overload_target=overload_target,
            history_window=history_window,
        )

    # ------------------------------------------------------------------
    def step(self, hour_index: int, now: float,
             executor: MigrationExecutor | None = None) -> int:
        """Neat's rounds, then the IP-based opportunistic step."""
        if executor is None:
            executor = lambda vm, dest: self.dc.migrate(vm, dest, now)
        moved = super().step(hour_index, now, executor)
        if self.params.opportunistic_step:
            moved += self.opportunistic_step(hour_index, executor)
        return moved

    # ------------------------------------------------------------------
    def opportunistic_step(self, hour_index: int,
                           executor: MigrationExecutor) -> int:
        """Split hosts whose VM IP range is wider than the 7σ threshold.

        Per section III-D: (1) find hosts with a too-wide IP range;
        (2) select the VMs with the most extreme IPs; (3) place them on
        the host with the closest IP, until the range is under the
        threshold or no destination fits.
        """
        threshold = self.params.ip_range_threshold
        # Columnar IP ranges/means when the host accounting is active
        # (recomputed after every migration — the placement epoch keys
        # the cache); scalar per-host fallback otherwise.
        acc = columnar_host_view(self.dc)

        def ip_range(host: Host) -> float:
            if acc is not None:
                return float(acc.ip_range(hour_index)[acc.pos(host)])
            return host.ip_range(hour_index)

        moved = 0
        for host in list(self.managed_hosts()):
            guard = len(host.vms) + 1
            while ip_range(host) > threshold and guard > 0:
                guard -= 1
                vm = self._most_extreme_vm(host, hour_index, acc)
                if vm is None:
                    break
                targets = [h for h in self.managed_hosts() if h is not host]
                placement = self.placer.place([vm], targets, hour_index,
                                              {vm.name: host})
                dest = placement.get(vm.name)
                if dest is None:
                    break
                executor(vm, dest)
                moved += 1
        return moved

    def _most_extreme_vm(self, host: Host, hour_index: int,
                         acc=None) -> VM | None:
        if len(host.vms) < 2:
            return None
        if acc is not None:
            mean_ip = float(acc.mean_raw_ip(hour_index)[acc.pos(host)])
        else:
            mean_ip = host.mean_raw_ip(hour_index)
        return max(host.vms,
                   key=lambda vm: (abs(vm.raw_ip(hour_index) - mean_ip), vm.name))

    # ------------------------------------------------------------------
    def relocate_all(self, hour_index: int, now: float) -> int:
        """Evaluation mode: re-place every VM purely by IP proximity.

        Starting from the current placement, performs a local search
        over VM swaps (and moves into free slots) that reduce the total
        per-host IP *dispersion* -- the sum over VMs of their distance
        to their host's mean IP.  An improvement must exceed the paper's
        IP-distance tolerance (footnote 3): placements therefore
        converge and "a migrated VM reaches a stable state" (Fig. 2)
        instead of reshuffling on IP noise.  Returns the number of
        migrations performed.
        """
        hosts = [h for h in self.dc.hosts if h.state in MANAGED_STATES]
        vms = [vm for h in hosts for vm in h.vms]
        if not vms:
            return 0
        # Predicted raw IP of each VM over the next day of hourly slots
        # (models trained on the past only — no oracle).  A whole-day
        # profile separates patterns that a single slot cannot: two VMs
        # can tie at 3 am yet differ at 9 am.
        window = 24
        ips = {vm.name: np.array([vm.raw_ip(hour_index + k)
                                  for k in range(window)]) for vm in vms}
        groups: dict[str, list[VM]] = {h.name: list(h.vms) for h in hosts}
        host_by_name = {h.name: h for h in hosts}

        def dispersion(group: list[VM]) -> float:
            """Summed per-slot IP spread of a host's VMs over the window."""
            if len(group) < 2:
                return 0.0
            vals = np.stack([ips[vm.name] for vm in group])
            mean = vals.mean(axis=0)
            return float(np.abs(vals - mean).sum())

        threshold = self.params.ip_distance_tolerance
        names = sorted(groups)
        for _ in range(len(vms)):  # convergence bound
            improved = False
            for i, n1 in enumerate(names):
                for n2 in names[i + 1:]:
                    g1, g2 = groups[n1], groups[n2]
                    h1, h2 = host_by_name[n1], host_by_name[n2]
                    mem1 = sum(v.resources.memory_mb for v in g1)
                    cpu1 = sum(v.resources.cpus for v in g1)
                    mem2 = sum(v.resources.memory_mb for v in g2)
                    cpu2 = sum(v.resources.cpus for v in g2)
                    base = dispersion(g1) + dispersion(g2)
                    best: tuple[float, VM | None, VM | None] | None = None
                    # Swaps and one-way moves into genuinely free slots
                    # (never onto an emptied host: splitting a group
                    # onto idle metal is anti-consolidation).
                    candidates: list[tuple[VM | None, VM | None]] = [
                        (a, b) for a in g1 for b in g2]
                    if g2:
                        candidates += [(a, None) for a in g1]
                    if g1:
                        candidates += [(None, b) for b in g2]
                    for a, b in candidates:
                        am, ac = ((a.resources.memory_mb, a.resources.cpus)
                                  if a is not None else (0, 0))
                        bm, bc = ((b.resources.memory_mb, b.resources.cpus)
                                  if b is not None else (0, 0))
                        # Capacity is a hard constraint in *both*
                        # directions: with heterogeneous flavors (the
                        # scenario fleets) even a swap is not
                        # capacity-neutral.  O(1) deltas off the hoisted
                        # group sums; always true for uniform flavors,
                        # so the E8 search is unchanged.
                        if (mem1 - am + bm > h1.capacity.memory_mb
                                or cpu1 - ac + bc > h1.capacity.schedulable_cpus
                                or mem2 - bm + am > h2.capacity.memory_mb
                                or cpu2 - bc + ac > h2.capacity.schedulable_cpus):
                            continue
                        new1 = [v for v in g1 if v is not a] + ([b] if b else [])
                        new2 = [v for v in g2 if v is not b] + ([a] if a else [])
                        gain = base - (dispersion(new1) + dispersion(new2))
                        if gain > threshold and (best is None or gain > best[0]):
                            best = (gain, a, b)
                    if best is not None:
                        _, a, b = best
                        groups[n1] = [v for v in g1 if v is not a] + ([b] if b else [])
                        groups[n2] = [v for v in g2 if v is not b] + ([a] if a else [])
                        improved = True
            if not improved:
                break

        assignment = {vm.name: host_by_name[hname]
                      for hname, group in groups.items() for vm in group}
        records = self.dc.apply_assignment(assignment, now)
        return len(records)
