"""Columnar host accounting: per-hour host views in one pass (DESIGN.md §8).

PR 1 made the per-VM idleness updates columnar, but every simulated hour
still walked ``hosts × vms`` in Python for the host-level quantities:
``Host.cpu_utilization`` / ``used_resources`` (controller queries and
SLATAH), ``all_vms_idle`` (suspend checks) and ``mean_raw_ip`` (grace
windows, IP-aware placement).  :class:`HostAccounting` derives all of
them for every host at once from the fleet binding's columnar state plus
a placement incidence structure built once from host membership and
then kept in sync by the :class:`~repro.cluster.datacenter.DataCenter`
— migrations, placements and removals update it incrementally through
the data center's attach/detach pair, its only writer.

Bit-for-bit equivalence with the scalar :class:`~repro.cluster.host.Host`
properties is a hard requirement (the scalar per-host property loop is
kept as the parity oracle; see ``tests/test_host_accounting.py``).  Two
details make the columnar numbers *identical* rather than merely close:

* per-host float sums are accumulated **in host-local VM order** with a
  strictly sequential reduction (a rank-major scatter matrix summed row
  by row), reproducing Python's left-to-right ``sum`` exactly — a BLAS
  matrix product against the incidence matrix would reassociate the
  additions and drift in the last ulp;
* per-VM inputs are the very arrays the scalar path reads: the trace
  activity column of :class:`~repro.core.binding.FleetBinding` and the
  version-cached ``raw_ip_column`` of
  :class:`~repro.core.fleet.FleetIdlenessModel`.
"""

from __future__ import annotations

import numpy as np

from ..core.calendar import slot_of_hour


class HostAccounting:
    """Columnar per-host accounting over a bound fleet.

    One instance is attached per (binding, data center) pair by
    :meth:`repro.core.binding.FleetBinding.try_bind`.  All public array
    accessors return ``(n_hosts,)`` vectors ordered like ``dc.hosts``.
    """

    def __init__(self, binding, dc) -> None:
        self.binding = binding
        self.dc = dc
        self._host_list = dc.hosts
        self.hosts = list(dc.hosts)
        self.n_hosts = len(self.hosts)
        self._pos = {h.name: k for k, h in enumerate(self.hosts)}
        vms = binding.vms
        self._vm_cpus = np.array([vm.resources.cpus for vm in vms],
                                 dtype=np.float64)
        self._vm_cpus_i = np.array([vm.resources.cpus for vm in vms],
                                   dtype=np.int64)
        self._vm_mem_i = np.array([vm.resources.memory_mb for vm in vms],
                                  dtype=np.int64)
        #: (n_hosts,) capacity columns (placement fit and power scores).
        self.capacity_cpus = np.array([h.capacity.cpus for h in self.hosts],
                                      dtype=np.float64)
        self.capacity_memory_mb = np.array(
            [h.capacity.memory_mb for h in self.hosts], dtype=np.int64)
        self.schedulable_cpus = np.array(
            [h.capacity.schedulable_cpus for h in self.hosts],
            dtype=np.float64)
        # Same float expression as the scalar SLATAH check's
        # ``host.capacity.cpus * 0.999`` per host.
        self._overload_cpus = self.capacity_cpus * 0.999
        #: Host-local fleet-index rows, mirroring each ``host.vms`` list
        #: (same VMs, same order).  This is the placement incidence
        #: structure; :meth:`incidence_matrix` materializes it as the
        #: classic 0/1 ``(n_hosts, n_vms)`` matrix.
        index = binding.index
        try:
            self._rows: list[list[int]] = [
                [index[vm.name] for vm in host.vms] for host in self.hosts]
            self._stale = False
        except KeyError:
            # A placed VM outside the binding: the view stays invalid
            # until the simulators rebind the fleet.
            self._rows = [[] for _ in self.hosts]
            self._stale = True
        #: Monotonic placement epoch; every placement change bumps it
        #: and invalidates the derived caches.
        self.epoch = 0
        self._geometry: tuple | None = None  # (epoch, placed, rank, hpos, counts, kmax)
        self._static_cache: tuple | None = None  # (epoch, used_cpus, used_mem)
        self._hour_cache: dict = {}
        self._ip_cache: dict = {}
        self._blocked_cache: tuple | None = None

    # ------------------------------------------------------------------
    # synchronization with the DataCenter placement index
    # ------------------------------------------------------------------
    @property
    def valid(self) -> bool:
        """Usable for columnar queries?  False after an unknown VM or a
        host-set change appeared — consumers then fall back to the
        scalar per-host path until the simulators rebind."""
        return (not self._stale and self.dc.hosts is self._host_list
                and len(self.dc.hosts) == self.n_hosts)

    def pos(self, host) -> int:
        """Index of ``host`` in the accounting vectors (dc.hosts order)."""
        return self._pos[host.name]

    @property
    def positions(self) -> dict[str, int]:
        """Host name -> vector index (read-only use; hot-loop access)."""
        return self._pos

    def position(self, host_name: str) -> int | None:
        """Like :meth:`pos` by name; ``None`` for unknown hosts."""
        return self._pos.get(host_name)

    def _index_of(self, vm_name: str) -> int | None:
        idx = self.binding.index.get(vm_name)
        if idx is None:
            self._stale = True
        return idx

    def on_place(self, vm_name: str, host) -> None:
        """Incremental hook: ``vm_name`` was attached to ``host``."""
        idx = self._index_of(vm_name)
        pos = self._pos.get(host.name)
        if idx is None or pos is None:
            self._stale = True
            return
        self._rows[pos].append(idx)
        self._bump()

    def on_remove(self, vm_name: str, host) -> None:
        """Incremental hook: ``vm_name`` was detached from ``host``."""
        idx = self._index_of(vm_name)
        pos = self._pos.get(host.name)
        if idx is None or pos is None:
            self._stale = True
            return
        try:
            self._rows[pos].remove(idx)
        except ValueError:
            self._stale = True
            return
        self._bump()

    def _bump(self) -> None:
        self.epoch += 1
        self._hour_cache.clear()
        self._ip_cache.clear()

    # ------------------------------------------------------------------
    # derived geometry
    # ------------------------------------------------------------------
    def _geom(self):
        """(placed, rank, hpos, counts, kmax) for the current epoch.

        ``placed[j]`` is the fleet index of the j-th placed VM walking
        hosts in order; ``rank[j]`` its position within its host's VM
        list; ``hpos[j]`` its host's position.  These drive the
        order-preserving segment reductions below.
        """
        g = self._geometry
        if g is not None and g[0] == self.epoch:
            return g[1:]
        placed, rank, hpos = [], [], []
        counts = np.zeros(self.n_hosts, dtype=np.int64)
        for k, row in enumerate(self._rows):
            counts[k] = len(row)
            for r, idx in enumerate(row):
                placed.append(idx)
                rank.append(r)
                hpos.append(k)
        geom = (np.array(placed, dtype=np.intp),
                np.array(rank, dtype=np.intp),
                np.array(hpos, dtype=np.intp),
                counts,
                int(counts.max()) if self.n_hosts else 0)
        self._geometry = (self.epoch, *geom)
        return geom

    def incidence_matrix(self) -> np.ndarray:
        """The 0/1 ``(n_hosts, n_vms)`` placement incidence matrix."""
        placed, _, hpos, _, _ = self._geom()
        P = np.zeros((self.n_hosts, self.binding.fleet.n))
        P[hpos, placed] = 1.0
        return P

    def _seg_sum(self, values: np.ndarray, dtype=np.float64) -> np.ndarray:
        """Per-host sums of per-VM ``values`` in host-local VM order.

        Scatter into a (kmax, n_hosts) rank matrix, then accumulate the
        ranks sequentially: host ``h`` gets ``((0 + x0) + x1) + ...`` in
        exactly ``host.vms`` order — bit-identical to the scalar
        ``sum(... for vm in host.vms)`` loops (absent entries add +0.0,
        which never perturbs an IEEE sum of finite values).
        """
        placed, rank, hpos, _, kmax = self._geom()
        out = np.zeros(self.n_hosts, dtype=dtype)
        if kmax == 0:
            return out
        m = np.zeros((kmax, self.n_hosts), dtype=dtype)
        m[rank, hpos] = values[placed]
        for k in range(kmax):
            out += m[k]
        return out

    def _seg_minmax(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-host (min, max) of per-VM ``values`` (order-free exact)."""
        placed, rank, hpos, _, kmax = self._geom()
        lo = np.full(self.n_hosts, np.inf)
        hi = np.full(self.n_hosts, -np.inf)
        if kmax == 0:
            return lo, hi
        m_lo = np.full((kmax, self.n_hosts), np.inf)
        m_lo[rank, hpos] = values[placed]
        m_hi = np.full((kmax, self.n_hosts), -np.inf)
        m_hi[rank, hpos] = values[placed]
        for k in range(kmax):
            np.minimum(lo, m_lo[k], out=lo)
            np.maximum(hi, m_hi[k], out=hi)
        return lo, hi

    # ------------------------------------------------------------------
    # placement-static columns (change only with placement)
    # ------------------------------------------------------------------
    def vm_counts(self) -> np.ndarray:
        """(n_hosts,) number of VMs placed on each host."""
        return self._geom()[3]

    def used_cpus(self) -> np.ndarray:
        """(n_hosts,) vCPUs attached to each host (``used_resources.cpus``)."""
        return self._static()[0]

    def used_memory_mb(self) -> np.ndarray:
        """(n_hosts,) memory attached to each host (``used_resources.memory_mb``)."""
        return self._static()[1]

    def _static(self):
        c = self._static_cache
        if c is not None and c[0] == self.epoch:
            return c[1:]
        used_cpus = self._seg_sum(self._vm_cpus_i, dtype=np.int64)
        used_mem = self._seg_sum(self._vm_mem_i, dtype=np.int64)
        self._static_cache = (self.epoch, used_cpus, used_mem)
        return used_cpus, used_mem

    # ------------------------------------------------------------------
    # per-hour columns
    # ------------------------------------------------------------------
    def _hour(self, hour_index: int):
        key = (hour_index, self.epoch)
        cached = self._hour_cache.get(key)
        if cached is not None:
            return cached
        if len(self._hour_cache) >= 8:
            # Only the current hour (and t-1 for the meter charge) is
            # ever re-read; cap the cache so year-long static-placement
            # runs don't accumulate one entry per simulated hour.
            self._hour_cache.clear()
        activities = self.binding.activities(hour_index)
        demand = self._seg_sum(activities * self._vm_cpus)
        active = self._seg_sum((activities > 0.0).astype(np.int64),
                               dtype=np.int64)
        util = np.minimum(demand / self.capacity_cpus, 1.0)
        cached = (demand, util, active == 0)
        self._hour_cache[key] = cached
        return cached

    def cpu_demand(self, hour_index: int) -> np.ndarray:
        """(n_hosts,) CPU demand ``Σ activity·cpus`` (SLATAH numerator)."""
        return self._hour(hour_index)[0]

    def cpu_utilization(self, hour_index: int) -> np.ndarray:
        """(n_hosts,) ``Host.cpu_utilization`` for every host at once."""
        return self._hour(hour_index)[1]

    def all_idle(self, hour_index: int) -> np.ndarray:
        """(n_hosts,) bool ``Host.all_vms_idle`` (True for empty hosts)."""
        return self._hour(hour_index)[2]

    def overload_cpus(self) -> np.ndarray:
        """(n_hosts,) SLATAH saturation thresholds (cpus × 0.999)."""
        return self._overload_cpus

    def sleepable(self, hour_index: int) -> np.ndarray:
        """(n_hosts,) bool: non-empty and every hosted VM idle — the
        hourly simulator's default suspend predicate."""
        return (self.vm_counts() > 0) & self.all_idle(hour_index)

    def any_blocked_io(self) -> np.ndarray:
        """(n_hosts,) bool: some hosted VM is blocked on I/O (``D``
        state) — the suspend sweep's per-host blocked-I/O mask, derived
        from the fleet's columnar flags (cached per placement epoch and
        blocked-column version; the flags are almost always all-False)."""
        fleet = self.binding.fleet
        key = (self.epoch, fleet.blocked_version)
        cached = self._blocked_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        if not fleet.blocked_io.any():
            blocked = np.zeros(self.n_hosts, dtype=bool)
        else:
            blocked = self._seg_sum(fleet.blocked_io.astype(np.int64),
                                    dtype=np.int64) > 0
        self._blocked_cache = (key, blocked)
        return blocked

    # ------------------------------------------------------------------
    # idleness-probability columns (also keyed on model version)
    # ------------------------------------------------------------------
    def _ip(self, hour_index: int):
        fleet = self.binding.fleet
        key = (hour_index, self.epoch, fleet.version)
        cached = self._ip_cache.get(key)
        if cached is not None:
            return cached
        if len(self._ip_cache) >= 8:
            self._ip_cache.clear()
        col = fleet.raw_ip_column(slot_of_hour(hour_index))
        counts = self.vm_counts()
        total = self._seg_sum(col)
        with np.errstate(invalid="ignore", divide="ignore"):
            mean = total / counts
        mean = np.where(counts > 0, mean, 0.0)
        lo, hi = self._seg_minmax(col)
        rng = np.where(counts >= 2, hi - lo, 0.0)
        cached = (mean, rng)
        self._ip_cache[key] = cached
        return cached

    def mean_raw_ip(self, hour_index: int) -> np.ndarray:
        """(n_hosts,) ``Host.mean_raw_ip`` (0.0 for empty hosts)."""
        return self._ip(hour_index)[0]

    def ip_range(self, hour_index: int) -> np.ndarray:
        """(n_hosts,) ``Host.ip_range`` (0.0 below two VMs)."""
        return self._ip(hour_index)[1]

    # ------------------------------------------------------------------
    def verify(self) -> None:
        """Assert the incidence rows mirror actual host membership
        (the accounting clause of ``DataCenter.check_invariants``;
        O(hosts × vms))."""
        index = self.binding.index
        for host, row in zip(self.hosts, self._rows):
            expected = [index.get(vm.name) for vm in host.vms]
            if row != expected:
                raise AssertionError(
                    f"accounting rows diverged on {host.name}: "
                    f"{row} != {expected}")


def columnar_host_view(dc) -> HostAccounting | None:
    """The data center's active host accounting, or ``None``.

    Controllers and simulators call this each hour; a ``None`` return
    (no fleet binding, stale accounting, non-standard models) means
    "use the scalar per-host properties".
    """
    acc = getattr(dc, "_accounting", None)
    if acc is None or not acc.valid:
        return None
    return acc
