"""Per-host views: the host quantities consolidation reads (DESIGN.md §8).

Neat's consolidation (paper §III-D) and both engines read a few numbers
per host every hour: used CPUs and memory, CPU demand and utilization,
whether every hosted VM is idle, and the host IP (the mean of its VMs'
raw IPs).  :func:`host_view` always answers, with one of two
implementations of the same columns:

* :class:`HostAccounting` derives them for every host at once from the
  fleet binding's columnar state plus a placement incidence structure
  the :class:`~repro.cluster.datacenter.DataCenter` keeps in sync
  through its attach/detach pair, its only writer;
* :class:`ScalarHostView` computes them live from the
  :class:`~repro.cluster.host.Host` properties whenever the accounting
  cannot answer: a fleet the binding refused, a data center run
  without accounting, or a VM placed since the last bind.

The ``Host`` properties are the parity reference; the accounting
matches them bit for bit (``tests/test_host_accounting.py``).  Two
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

from operator import attrgetter

import numpy as np

from ..core.calendar import slot_of_hour


class HostColumns:
    """The placement-independent columns of one host list, in list
    order: name -> position, name rank and capacities.  A data center
    builds its own once (``dc.host_columns``)."""

    def __init__(self, hosts: list) -> None:
        self.hosts = hosts
        self.n_hosts = n = len(hosts)
        self.positions = {h.name: k for k, h in enumerate(hosts)}
        #: Each host's position in name order (the tie-break rank of the
        #: consolidation scans).
        self.name_rank = np.empty(n, dtype=np.intp)
        self.name_rank[sorted(range(n), key=lambda k: hosts[k].name)] = (
            np.arange(n))
        caps = [h.capacity for h in hosts]
        self.capacity_cpus = np.array([c.cpus for c in caps],
                                      dtype=np.float64)
        self.capacity_memory_mb = np.array([c.memory_mb for c in caps],
                                           dtype=np.int64)
        self.schedulable_cpus = np.array([c.schedulable_cpus for c in caps],
                                         dtype=np.float64)
        #: SLATAH saturation thresholds, the scalar check's
        #: ``host.capacity.cpus * 0.999`` per host.
        self.overload_cpus = self.capacity_cpus * 0.999


class HostView:
    """What both views share: their host list's static columns (as
    attributes) and the columns derived from other columns.  Every
    array is an ``(n_hosts,)`` vector in host-list order, except
    :meth:`vm_activities`, one entry per placed VM."""

    def __init__(self, columns: HostColumns) -> None:
        self.__dict__.update(vars(columns))  # shared, not copied

    def pos(self, host) -> int:
        """Index of ``host`` in the view's vectors."""
        return self.positions[host.name]

    def position(self, host_name: str) -> int | None:
        """Like :meth:`pos` by name; ``None`` for unknown hosts."""
        return self.positions.get(host_name)

    def sleepable(self, hour_index: int) -> np.ndarray:
        """Bool: non-empty and every hosted VM idle — the hourly
        simulator's default suspend predicate."""
        return (self.vm_counts() > 0) & self.all_idle(hour_index)


class ScalarHostView(HostView):
    """The host columns, computed live from the ``Host`` properties.

    Nothing is cached, so the view never goes stale; :func:`host_view`
    builds one per call, so a cache keyed on view identity never hits
    on it.  The per-hour columns read each VM's current activity (the
    hour the engine loaded); the IP columns read ``hour_index``.
    """

    #: Cache-key fillers: a live view has no placement epoch or
    #: blocked-I/O version.
    epoch = 0
    blocked_version = 0

    def _column(self, values, dtype) -> np.ndarray:
        return np.fromiter(values, dtype=dtype, count=self.n_hosts)

    def vm_counts(self) -> np.ndarray:
        return self._column((len(h.vms) for h in self.hosts), np.int64)

    def used_cpus(self) -> np.ndarray:
        return self._column((sum(vm.resources.cpus for vm in h.vms)
                             for h in self.hosts), np.int64)

    def used_memory_mb(self) -> np.ndarray:
        return self._column((sum(vm.resources.memory_mb for vm in h.vms)
                             for h in self.hosts), np.int64)

    def cpu_demand(self, hour_index: int) -> np.ndarray:
        return self._column(
            (sum(vm.current_activity * vm.resources.cpus for vm in h.vms)
             for h in self.hosts), np.float64)

    def vm_activities(self) -> np.ndarray:
        """(n_vms,) each placed VM's ``current_activity``, host by host
        (the ``dc.vms`` order)."""
        return np.array([vm.current_activity for h in self.hosts
                         for vm in h.vms], dtype=np.float64)

    def cpu_utilization(self, hour_index: int) -> np.ndarray:
        # ``Host.cpu_utilization``'s expression, elementwise.
        return np.minimum(self.cpu_demand(hour_index) / self.capacity_cpus,
                          1.0)

    def all_idle(self, hour_index: int) -> np.ndarray:
        return self._column((h.all_vms_idle for h in self.hosts), bool)

    def any_blocked_io(self) -> np.ndarray:
        return self._column((any(vm.blocked_io for vm in h.vms)
                             for h in self.hosts), bool)

    def mean_raw_ip(self, hour_index: int) -> np.ndarray:
        return self._column((h.mean_raw_ip(hour_index) for h in self.hosts),
                            np.float64)

    def ip_range(self, hour_index: int) -> np.ndarray:
        return self._column((h.ip_range(hour_index) for h in self.hosts),
                            np.float64)

    def host_mean_raw_ip(self, host, hour_index: int) -> float:
        """One host's IP, from that host's VMs only."""
        return host.mean_raw_ip(hour_index)

    def verify(self) -> None:
        """Nothing to check: the columns are the properties."""


class HostAccounting(HostView):
    """Columnar per-host accounting over a bound fleet.

    One instance is attached per (binding, data center) pair by
    :meth:`repro.core.binding.FleetBinding.try_bind`; vectors are
    ordered like ``dc.hosts``.
    """

    def __init__(self, binding, dc) -> None:
        super().__init__(dc.host_columns)
        self.binding = binding
        self.dc = dc
        vms = binding.vms
        self._vm_cpus = np.array([vm.resources.cpus for vm in vms],
                                 dtype=np.float64)
        self._vm_cpus_i = np.array([vm.resources.cpus for vm in vms],
                                   dtype=np.int64)
        self._vm_mem_i = np.array([vm.resources.memory_mb for vm in vms],
                                  dtype=np.int64)
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
        """Does the accounting still describe the data center?  False
        once a VM outside the binding was placed (:func:`host_view` then
        answers with a :class:`ScalarHostView` until the engines
        rebind)."""
        return not self._stale and self.binding.covers(self.dc.vms)

    @property
    def blocked_version(self) -> int:
        """The fleet's blocked-I/O column version (a cache key)."""
        return self.binding.fleet.blocked_version

    def _index_of(self, vm_name: str) -> int | None:
        idx = self.binding.index.get(vm_name)
        if idx is None:
            self._stale = True
        return idx

    def on_place(self, vm_name: str, host) -> None:
        """Incremental hook: ``vm_name`` was attached to ``host``."""
        idx = self._index_of(vm_name)
        pos = self.positions.get(host.name)
        if idx is None or pos is None:
            self._stale = True
            return
        self._rows[pos].append(idx)
        self._bump()

    def on_remove(self, vm_name: str, host) -> None:
        """Incremental hook: ``vm_name`` was detached from ``host``."""
        idx = self._index_of(vm_name)
        pos = self.positions.get(host.name)
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

    def vm_activities(self) -> np.ndarray:
        """(n_vms,) each placed VM's ``current_activity``, in ``dc.vms``
        order (host by host, host-local order): the binding's activity
        column, permuted."""
        return self.binding.activity[self._geom()[0]]

    def cpu_demand(self, hour_index: int) -> np.ndarray:
        """(n_hosts,) CPU demand ``Σ activity·cpus`` (SLATAH numerator)."""
        return self._hour(hour_index)[0]

    def cpu_utilization(self, hour_index: int) -> np.ndarray:
        """(n_hosts,) ``Host.cpu_utilization`` for every host at once."""
        return self._hour(hour_index)[1]

    def all_idle(self, hour_index: int) -> np.ndarray:
        """(n_hosts,) bool ``Host.all_vms_idle`` (True for empty hosts)."""
        return self._hour(hour_index)[2]

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

    def host_mean_raw_ip(self, host, hour_index: int) -> float:
        """One host's IP (its entry of :meth:`mean_raw_ip`)."""
        return float(self.mean_raw_ip(hour_index)[self.pos(host)])

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


def host_view(dc) -> HostView:
    """The data center's per-host view: its :class:`HostAccounting`
    while that is valid, else a fresh :class:`ScalarHostView`."""
    accounting = dc._accounting
    if accounting is not None and accounting.valid:
        return accounting
    return ScalarHostView(dc.host_columns)


def host_list_view(hosts: list) -> tuple[HostView, np.ndarray]:
    """``(view, positions)``: a view answering for ``hosts`` and each
    host's index in it.

    Placement policies only see a host list; the hosts' data-center
    back-reference lets them read that data center's view.  A bare host
    list, or one the data center does not hold, gets a scalar view of
    its own.
    """
    dc = hosts[0]._dc if hosts else None
    if dc is not None:
        view = host_view(dc)
        try:
            return view, np.fromiter(
                map(view.positions.__getitem__, map(_name, hosts)),
                dtype=np.intp, count=len(hosts))
        except KeyError:
            pass
    return (ScalarHostView(HostColumns(hosts)),
            np.arange(len(hosts), dtype=np.intp))


_name = attrgetter("name")
