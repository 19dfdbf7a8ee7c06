"""The Drowsy-DC consolidation controller (paper section III-D).

Extends Neat by (a) swapping VM selection for the IP-distance policy and
placement for the IP-proximity policy, (b) appending the *opportunistic
consolidation step* that splits hosts whose VM-IP range exceeds 7σ, and
(c) offering the periodic full-relocation mode used by the testbed
evaluation (section VI-A.1) where all VMs are re-placed by IP every
round "instead of waiting for the need of a migration decision".
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from ..cluster.accounting import HostView, host_view
from ..cluster.datacenter import DataCenter
from ..cluster.host import Host
from ..cluster.vm import VM
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
        # The managed hosts' IP ranges as one column.  The scan jumps
        # from one host over the threshold to the next and re-reads the
        # column after every migration: a destination later in host
        # order may have crossed it.
        view = host_view(self.dc)
        managed = self.managed_positions()
        hosts = [self.dc.hosts[k] for k in managed.tolist()]

        def ip_ranges() -> np.ndarray:
            return view.ip_range(hour_index)[managed]

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
                vm = self._most_extreme_vm(host, hour_index, view)
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
                         view: HostView) -> VM | None:
        if len(host.vms) < 2:
            return None
        mean_ip = view.host_mean_raw_ip(host, hour_index)
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
        search = PairSearch(
            ip_profiles(vms, hour_index), groups,
            [vm.resources.memory_mb for vm in vms],
            [vm.resources.cpus for vm in vms],
            [(h.capacity.memory_mb, h.capacity.schedulable_cpus)
             for h in hosts],
            self.params.ip_distance_tolerance,
            # Host pairs in name order.
            sorted(range(len(hosts)), key=lambda k: hosts[k].name))
        for _ in range(len(vms)):  # convergence bound
            improved = False
            for n in range(len(search.pairs)):
                improved |= search.visit(n)
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

#: Profile rows one scoring round gathers at most (1.5 MB of
#: ``PROFILE_HOURS`` floats, twice over): host pairs grow as O(H²), so
#: a large fleet's pass is scored in chunks of pairs, in pass order.
_CHUNK_ROWS = 1 << 13


def ip_profiles(vms: list[VM], hour_index: int) -> np.ndarray:
    """``(len(vms), PROFILE_HOURS)`` predicted raw IPs over the next
    day of hourly slots (models trained on the past only -- no oracle).

    VMs bound to one fleet model are read off it in one window gather
    (:meth:`~repro.core.fleet.FleetIdlenessModel.raw_ip_window`): the
    very floats ``FleetVMView.raw_ip`` returns.  Anything else falls
    back to one ``vm.raw_ip`` query per VM and slot.
    """
    models = [vm.model for vm in vms]
    fleet = getattr(models[0], "fleet", None)
    if fleet is not None and all(getattr(m, "fleet", None) is fleet
                                 for m in models):
        rows = np.array([m.fleet_index for m in models], dtype=np.intp)
        return fleet.raw_ip_window(hour_index, PROFILE_HOURS, rows)
    return np.array([[vm.raw_ip(hour_index + k) for k in range(PROFILE_HOURS)]
                     for vm in vms])


def group_dispersion(profile: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Summed per-slot IP spread of ``C`` groups of ``k`` profile rows.

    ``rows`` is ``(C, k)``; entry ``c`` is bit-identical to
    ``float(np.abs(v - v.mean(0)).sum())`` for ``v = profile[rows[c]]``.
    The groups are gathered member-major, ``(k, C, window)``: the axis-0
    ``add.reduce`` adds the ``k`` members in order exactly like the 2-D
    axis-0 mean, one long add per member, and divides by ``k`` as
    ``ndarray.mean`` does.  The spread is copied group-major for the sum,
    so each group's sum is numpy's pairwise sum over the same contiguous
    ``k * window`` block.  Groups under two VMs have no spread.
    """
    c, k = rows.shape
    if k < 2:
        return np.zeros(c)
    block = profile.take(rows.T, axis=0)
    mean = np.add.reduce(block, axis=0)
    np.true_divide(mean, k, out=mean)
    np.subtract(block, mean, out=block)
    np.abs(block, out=block)
    spread = block.transpose(1, 0, 2).reshape(c, k * profile.shape[1])
    return np.add.reduce(spread, axis=1)


@lru_cache(maxsize=None)
def _shape(k1: int, k2: int) -> tuple:
    """The candidate moves between non-empty groups of ``k1`` and ``k2``
    VMs, in order: the swaps, the moves ``a ->`` into free slots, the
    moves ``<- b`` (never onto an emptied host: splitting a group onto
    idle metal is anti-consolidation).

    Returns ``(take, parts)`` as positions into a pair's rows
    ``g1 + g2``.  ``take`` is ``(C, 2)``: the VM each candidate takes
    out of ``g1`` and out of ``g2``, ``-1`` (no VM) for a one-way move.
    ``parts`` lists the candidates' new groups by size, as ``(size,
    positions, slots)``: slot ``2c`` is candidate ``c``'s new ``g1``
    group, slot ``2c + 1`` its new ``g2`` group.  Groups under two VMs
    have no spread and no part.
    """
    g1, g2 = range(k1), range(k1, k1 + k2)
    moves = ([(x, y) for x in g1 for y in g2]
             + [(x, -1) for x in g1] + [(-1, y) for y in g2])
    new = [group for x, y in moves for group in (
        [p for p in g1 if p != x] + ([y] if y >= 0 else []),
        [p for p in g2 if p != y] + ([x] if x >= 0 else []))]
    by_size: dict[int, list[int]] = {}
    for slot, group in enumerate(new):
        by_size.setdefault(len(group), []).append(slot)
    parts = tuple((k, np.array([new[s] for s in slots]), np.array(slots))
                  for k, slots in by_size.items() if k >= 2)
    return np.array(moves).reshape(-1, 2), parts


# Consecutive hours repeat a fleet's chunk layouts; the bound keeps a
# large fleet, whose chunks rarely repeat, from holding every table it
# ever built.
@lru_cache(maxsize=16)
def _chunk_table(shapes: tuple[tuple[int, int], ...]) -> tuple:
    """The candidate table of a chunk whose pairs have groups of
    ``shapes`` sizes, in order: every candidate of every pair, laid out
    pair after pair from the :func:`_shape` templates.

    Positions index the chunk's rows: each pair's ``g1 + g2`` in order,
    then ``-1`` (no VM) last.  Returns ``(owner, take, parts, pad)``:

    * ``owner``: ``(C,)``, each candidate's pair;
    * ``take``: ``(C, 2)``, the positions of the VMs it takes out of
      ``g1`` and ``g2`` (``-1`` reads the trailing no-VM row);
    * ``parts``: the new groups by size, ``(size, positions, slots)``;
      slot ``2c`` / ``2c + 1`` is candidate ``c``'s new ``g1`` / ``g2``;
    * ``pad``: ``(P, W)``, each pair's candidates in order, padded to
      the widest pair with ``C``, a score slot that is always ``-inf``.

    The table holds positions only, never rows or floats, so reusing it
    for any chunk of the same shapes is exact.  Its arrays are shared
    by every such chunk and read-only.
    """
    templates = [_shape(k1, k2) for k1, k2 in shapes]
    counts = np.array([len(t) for t, _ in templates])
    owner = np.repeat(np.arange(len(shapes)), counts)
    # Each pair's first row and first candidate.
    row0 = np.cumsum([0, *(k1 + k2 for k1, k2 in shapes[:-1])])
    cand0 = np.cumsum(counts) - counts
    take = np.concatenate([t for t, _ in templates])
    take = np.where(take < 0, -1, take + row0[owner, None])
    by_size: dict[int, list] = {}
    for p, (_, parts) in enumerate(templates):
        for k, at, slots in parts:
            by_size.setdefault(k, []).append((p, at, slots))
    parts = []
    for k, items in by_size.items():
        of = np.repeat([p for p, _, _ in items], [len(s) for _, _, s in items])
        at = np.concatenate([at for _, at, _ in items]) + row0[of, None]
        slots = np.concatenate([s for _, _, s in items]) + 2 * cand0[of]
        parts.append((k, at, slots))
    col = np.arange(counts.max())
    pad = np.where(col < counts[:, None], cand0[:, None] + col, len(owner))
    for a in (owner, take, pad, *(a for _, *arrays in parts for a in arrays)):
        a.flags.writeable = False
    return owner, take, tuple(parts), pad


class PairSearch:
    """``relocate_all``'s first-improvement search over host pairs.

    ``groups`` (lists of ``profile`` rows, one per host) are updated in
    place as moves apply.  A pair's best move is a pure function of its
    two groups, so :attr:`known` keeps each scored pair's result (a
    move, or None) until a move changes either group; a pair known to
    have no move is settled and skipped.  Unknown pairs are scored
    together, in pass order, from one candidate table
    (:func:`_chunk_table`): every candidate group of one size, across
    all pairs, is one :func:`group_dispersion` call.
    """

    def __init__(self, profile: np.ndarray, groups: list[list[int]],
                 mem: list, cpu: list, caps: list[tuple], threshold: float,
                 order: list[int]) -> None:
        self.profile, self.groups, self.threshold = profile, groups, threshold
        self.mem, self.cpu = mem, cpu
        # (memory, CPUs) per row as floats, exact for the integer
        # flavors; row -1, no VM, weighs nothing.
        self.res = np.array([*zip(mem, cpu), (0, 0)], dtype=np.float64)
        self.cap = np.array(caps, dtype=np.float64)
        self.used = np.zeros_like(self.cap)
        self.disp = np.zeros(len(groups))
        self._refresh(range(len(groups)))
        self.pairs = [(i, j) for n, i in enumerate(order) for j in order[n + 1:]]
        self.touching: list[list[tuple[int, int]]] = [[] for _ in groups]
        for i, j in self.pairs:
            self.touching[i].append((i, j))
            self.touching[j].append((i, j))
        self.known: dict[tuple[int, int], tuple[int, int] | None] = {}

    def _refresh(self, hosts) -> None:
        """Recompute the hosts' resource sums and dispersions."""
        by_size: dict[int, list[int]] = {}
        for h in hosts:
            g = self.groups[h]
            self.used[h] = (sum(self.mem[r] for r in g),
                            sum(self.cpu[r] for r in g))
            by_size.setdefault(len(g), []).append(h)
        for hs in by_size.values():
            rows = np.array([self.groups[h] for h in hs], dtype=np.intp)
            self.disp[hs] = group_dispersion(self.profile, rows)

    def visit(self, n: int) -> bool:
        """Apply pair ``n``'s best move, if any; True if one applied."""
        pair = self.pairs[n]
        if pair not in self.known:
            self._score(self._chunk(n))
        move = self.known[pair]
        if move is None:
            return False
        (i, j), (a, b) = pair, move
        g1, g2 = self.groups[i], self.groups[j]
        self.groups[i] = [r for r in g1 if r != a] + ([b] if b >= 0 else [])
        self.groups[j] = [r for r in g2 if r != b] + ([a] if a >= 0 else [])
        for p in self.touching[i] + self.touching[j]:
            self.known.pop(p, None)
        self._refresh(pair)
        return True

    def _chunk(self, n: int) -> list[tuple[int, int]]:
        """The unknown pairs from ``n`` on, up to ``_CHUNK_ROWS`` rows."""
        chunk, rows = [], 0
        for i, j in itertools.islice(self.pairs, n, None):
            if (i, j) not in self.known:
                chunk.append((i, j))
                k1, k2 = len(self.groups[i]), len(self.groups[j])
                rows += (k1 + k2) * (k1 * k2 + k1 + k2)
                if rows >= _CHUNK_ROWS:
                    break
        return chunk

    def _score(self, pairs: list[tuple[int, int]]) -> None:
        """Score ``pairs``' best moves into :attr:`known`."""
        self.known.update(dict.fromkeys(pairs))
        groups = self.groups
        live = [(i, j) for i, j in pairs if groups[i] and groups[j]]
        if not live:
            return
        owner, take, parts, pad = _chunk_table(
            tuple((len(groups[i]), len(groups[j])) for i, j in live))
        rows = np.array([*itertools.chain.from_iterable(
            groups[i] + groups[j] for i, j in live), -1], dtype=np.intp)
        # The candidates' new-group dispersions, interleaved g1, g2.
        new = np.zeros(2 * len(owner))
        for k, at, slots in parts:
            new[slots] = group_dispersion(self.profile, rows.take(at))
        new = new.reshape(-1, 2)
        hosts = np.array(live, dtype=np.intp).take(owner, axis=0)
        base = self.disp.take(hosts)
        gains = (base[:, 0] + base[:, 1]) - (new[:, 0] + new[:, 1])
        # Capacity is a hard constraint in *both* directions: with
        # heterogeneous flavors (the scenario fleets) even a swap is
        # not capacity-neutral.  Per candidate, host i gives up the VM
        # taken out of g1 and receives the one taken out of g2, host j
        # the reverse; all four (host, resource) checks must hold.
        taken = rows.take(take)
        fits = (self.used.take(hosts, axis=0) - self.res.take(taken, axis=0)
                + self.res.take(taken[:, ::-1], axis=0)
                <= self.cap.take(hosts, axis=0)).reshape(-1, 4)
        ok = fits[:, 0] & fits[:, 1] & fits[:, 2] & fits[:, 3]
        # The first of equal gains wins; a candidate that breaks
        # capacity or misses the tolerance scores -inf, as does the
        # padding after a pair's last candidate.
        score = np.full(len(owner) + 1, -np.inf)
        np.copyto(score[:-1], gains, where=ok & (gains > self.threshold))
        best = pad[np.arange(len(live)), score.take(pad).argmax(axis=1)]
        moves = taken.take(best, axis=0).tolist()
        for p in np.flatnonzero(score.take(best) > -np.inf).tolist():
            self.known[live[p]] = tuple(moves[p])
