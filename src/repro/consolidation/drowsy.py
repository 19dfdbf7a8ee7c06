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
from ..core.calendar import slot_of_hour
from ..core.params import DEFAULT_PARAMS, DrowsyParams
from .detection import OverloadDetector
from .neat import MigrationExecutor, NeatController
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
        # The managed hosts' IP ranges as one column: the columnar
        # accounting's (cached per placement epoch) or the per-host
        # property.  The scan jumps from one host over the threshold to
        # the next and re-reads the column after every migration: a
        # destination later in host order may have crossed it.
        acc = columnar_host_view(self.dc)
        managed = self.managed_positions()
        hosts = [self.dc.hosts[k] for k in managed.tolist()]

        def ip_ranges() -> np.ndarray:
            if acc is not None:
                return acc.ip_range(hour_index)[managed]
            return np.array([h.ip_range(hour_index) for h in hosts],
                            dtype=np.float64)

        ranges = ip_ranges()
        moved = 0
        j = 0
        while True:
            over = np.flatnonzero(ranges[j:] > threshold)
            if over.size == 0:
                break
            j += int(over[0])
            host = hosts[j]
            guard = len(host.vms) + 1
            while ranges[j] > threshold and guard > 0:
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
                ranges = ip_ranges()
            j += 1
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
        hosts = self.managed_hosts()
        vms = [vm for h in hosts for vm in h.vms]
        if not vms:
            return 0
        # Groups are lists of rows of the VMs' IP-profile matrix.
        rows = iter(range(len(vms)))
        groups = [[next(rows) for _ in h.vms] for h in hosts]
        profile = ip_profiles(vms, hour_index)
        mem = [vm.resources.memory_mb for vm in vms]
        cpu = [vm.resources.cpus for vm in vms]
        caps = [(h.capacity.memory_mb, h.capacity.schedulable_cpus)
                for h in hosts]
        threshold = self.params.ip_distance_tolerance
        # Host pairs in name order.
        order = sorted(range(len(hosts)), key=lambda k: hosts[k].name)
        for _ in range(len(vms)):  # convergence bound
            improved = False
            for n, i in enumerate(order):
                for j in order[n + 1:]:
                    g1, g2 = groups[i], groups[j]
                    move = best_move(profile, g1, g2, mem, cpu,
                                     caps[i], caps[j], threshold)
                    if move is not None:
                        a, b = move
                        groups[i] = [r for r in g1 if r != a] + ([b] if b >= 0 else [])
                        groups[j] = [r for r in g2 if r != b] + ([a] if a >= 0 else [])
                        improved = True
            if not improved:
                break
        assignment = {vms[r].name: host
                      for host, group in zip(hosts, groups) for r in group}
        records = self.dc.apply_assignment(assignment, now)
        return len(records)


#: Hourly slots in a VM's relocation profile.  A whole day separates
#: patterns that a single slot cannot: two VMs can tie at 3 am yet
#: differ at 9 am.
PROFILE_HOURS = 24


def ip_profiles(vms: list[VM], hour_index: int) -> np.ndarray:
    """``(len(vms), PROFILE_HOURS)`` predicted raw IPs over the next
    day of hourly slots (models trained on the past only -- no oracle).

    VMs bound to one fleet model are read off its cached raw-IP column,
    one gather per slot: the very floats ``FleetVMView.raw_ip`` returns.
    Anything else falls back to one ``vm.raw_ip`` query per VM and slot.
    """
    models = [vm.model for vm in vms]
    fleet = getattr(models[0], "fleet", None)
    if fleet is not None and all(getattr(m, "fleet", None) is fleet
                                 for m in models):
        rows = np.array([m.fleet_index for m in models], dtype=np.intp)
        return np.stack([fleet.raw_ip_column(slot_of_hour(hour_index + k))[rows]
                         for k in range(PROFILE_HOURS)], axis=1)
    return np.array([[vm.raw_ip(hour_index + k) for k in range(PROFILE_HOURS)]
                     for vm in vms])


def group_dispersion(stacked: np.ndarray) -> np.ndarray:
    """Summed per-slot IP spread of ``C`` groups of ``k`` VMs each.

    ``stacked`` is ``(C, k, window)``; entry ``c`` is bit-identical to
    ``float(np.abs(v - v.mean(0)).sum())`` for ``v = stacked[c]``: the
    axis-1 mean adds the ``k`` rows in order exactly like a 2-D axis-0
    mean, and the flattened row sum is numpy's pairwise sum over the
    same contiguous ``k * window`` block.  Groups under two VMs have no
    spread.
    """
    c, k = stacked.shape[:2]
    if k < 2:
        return np.zeros(c)
    spread = stacked - stacked.mean(axis=1)[:, None]
    np.abs(spread, out=spread)
    return spread.reshape(c, -1).sum(axis=1)


def best_move(profile: np.ndarray, g1: list[int], g2: list[int],
              mem: list, cpu: list, cap1: tuple, cap2: tuple,
              threshold: float) -> tuple[int, int] | None:
    """The move between two hosts' groups of ``profile`` rows that cuts
    their dispersion the most, by more than ``threshold``.

    Candidates are the swaps ``(a, b)``, the one-way moves ``(a, -1)``
    and ``(-1, b)``, in that order; the first of equal gains wins.
    Every candidate group of one size is scored in one
    ``group_dispersion`` call.  Returns None when no move qualifies.
    """
    mem1 = sum(mem[r] for r in g1)
    cpu1 = sum(cpu[r] for r in g1)
    mem2 = sum(mem[r] for r in g2)
    cpu2 = sum(cpu[r] for r in g2)
    # Swaps and one-way moves into genuinely free slots (never onto an
    # emptied host: splitting a group onto idle metal is
    # anti-consolidation).
    candidates = [(a, b) for a in g1 for b in g2]
    if g2:
        candidates += [(a, -1) for a in g1]
    if g1:
        candidates += [(-1, b) for b in g2]
    moves: list[tuple[int, int]] = []
    new1: list[list[int]] = []
    new2: list[list[int]] = []
    for a, b in candidates:
        am, ac = (mem[a], cpu[a]) if a >= 0 else (0, 0)
        bm, bc = (mem[b], cpu[b]) if b >= 0 else (0, 0)
        # Capacity is a hard constraint in *both* directions: with
        # heterogeneous flavors (the scenario fleets) even a swap is not
        # capacity-neutral.
        if (mem1 - am + bm > cap1[0] or cpu1 - ac + bc > cap1[1]
                or mem2 - bm + am > cap2[0] or cpu2 - bc + ac > cap2[1]):
            continue
        moves.append((a, b))
        new1.append([r for r in g1 if r != a] + ([b] if b >= 0 else []))
        new2.append([r for r in g2 if r != b] + ([a] if a >= 0 else []))
    if not moves:
        return None
    # The two current groups, then each candidate's two, batched by size.
    flat = [g1, g2] + new1 + new2
    by_size: dict[int, list[int]] = {}
    for n, group in enumerate(flat):
        by_size.setdefault(len(group), []).append(n)
    disp = np.zeros(len(flat))
    for k, at in by_size.items():
        if k >= 2:
            disp[at] = group_dispersion(profile[[flat[n] for n in at]])
    c = len(moves)
    gains = (disp[0] + disp[1]) - (disp[2:2 + c] + disp[2 + c:])
    ok = gains > threshold
    if not ok.any():
        return None
    return moves[int(np.argmax(np.where(ok, gains, -np.inf)))]
