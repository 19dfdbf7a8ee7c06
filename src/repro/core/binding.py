"""Columnar fleet-state binding: one vectorized model for a data center.

The scalar :class:`~repro.core.model.IdlenessModel` makes the per-VM,
per-hour update O(1), but driving ``n`` of them from Python costs ``n``
interpreter round-trips per simulated hour — at fleet scale that loop is
where both simulators spend their time.  :class:`FleetBinding` owns a
single :class:`~repro.core.fleet.FleetIdlenessModel` holding every VM's
SI tables in stacked arrays and replaces each ``vm.model`` with a
:class:`FleetVMView`: a zero-copy view object satisfying the scalar
model's API, so consolidation controllers, the suspending module and the
schedulers keep working unchanged while the simulators ingest a whole
hour with one vectorized ``observe`` call (DESIGN.md §6).

Bit-for-bit equivalence with the scalar path is a hard requirement (the
parity suite in ``tests/test_fleet_binding.py`` asserts identical energy
totals, suspend cycles, migrations and SLATAH): views share the scalar
model's derived queries (:class:`~repro.core.model.ModelQueries`), and
both models run the one hourly update
(:func:`~repro.core.model.hourly_update`).
"""

from __future__ import annotations

import numpy as np

from .calendar import CalendarSlot
from .fleet import FleetIdlenessModel
from .model import IdlenessModel, ModelQueries
from .params import DrowsyParams


class FleetVMView(ModelQueries):
    """One VM's window into a :class:`FleetIdlenessModel`.

    Implements the scalar :class:`~repro.core.model.IdlenessModel` API
    (queries, ``observe``, table/weight attributes) backed by row ``i``
    of the fleet arrays.  Reads are views, except :attr:`sim`/:attr:`siy`
    (one row's dense copy of the fleet's touched-day slabs); the scalar
    fallback :meth:`observe` delegates to the fleet's single-row update.
    """

    __slots__ = ("_fleet", "_i")

    def __init__(self, fleet: FleetIdlenessModel, index: int) -> None:
        self._fleet = fleet
        self._i = index

    # -- state attributes (scalar-model compatible) --------------------
    @property
    def fleet(self) -> FleetIdlenessModel:
        return self._fleet

    @property
    def fleet_index(self) -> int:
        return self._i

    @property
    def params(self) -> DrowsyParams:
        return self._fleet.params

    @property
    def scale_mask(self) -> np.ndarray:
        return self._fleet.scale_mask

    @property
    def sid(self) -> np.ndarray:
        return self._fleet.sid[self._i]

    @property
    def siw(self) -> np.ndarray:
        return self._fleet.siw[self._i]

    @property
    def sim(self) -> np.ndarray:
        # One row's dense read (a copy): the fleet stores written days only.
        return self._fleet._sim.dense(self._i)

    @property
    def siy(self) -> np.ndarray:
        return self._fleet._siy.dense(self._i)

    @property
    def weights(self) -> np.ndarray:
        return self._fleet.weights[self._i]

    @property
    def hours_observed(self) -> int:
        return int(self._fleet.row_hours[self._i])

    @property
    def _activity_sum(self) -> float:
        return float(self._fleet._activity_sum[self._i])

    @property
    def _active_hours(self) -> int:
        return int(self._fleet._active_hours[self._i])

    # -- queries -------------------------------------------------------
    def si_vector(self, slot: CalendarSlot) -> np.ndarray:
        return self._fleet._gather(slot, np.empty(4), self._i)

    def raw_ip(self, slot: CalendarSlot) -> float:
        # One vectorized gather serves all n VMs' queries at this slot
        # (bit-identical to the scalar w @ si, see raw_ip_column).
        return float(self._fleet.raw_ip_column(slot)[self._i])

    # -- updates -------------------------------------------------------
    def observe(self, hour_index: int, activity: float):
        """Single-row scalar update (for VMs observed outside a batch)."""
        return self._fleet.observe_one(self._i, hour_index, float(activity))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FleetVMView(row={self._i}, n={self._fleet.n})"


class FleetBinding:
    """Bind every VM of a data center to one columnar fleet model.

    Construction imports each VM's current scalar model state into the
    fleet rows (pre-trained models are preserved exactly; a model never
    read was never built, and its fresh row needs no import) and swaps
    ``vm.model`` for a :class:`FleetVMView`.  The binding also owns the
    precomputed ``(n, T)`` trace activity matrix so per-hour trace loads
    are one column read instead of ``n`` Python calls.

    Use :meth:`try_bind` from simulators: it refuses (returns ``None``)
    when the data center is empty, when a VM carries a non-standard
    model (e.g. :class:`~repro.core.adaptive.AdaptiveIdlenessModel`), or
    when model parameters disagree across VMs — the simulators then keep
    the scalar per-VM path.
    """

    def __init__(self, vms: list, params: DrowsyParams) -> None:
        if not vms:
            raise ValueError("cannot bind an empty fleet")
        self.vms = list(vms)
        self.params = params
        n = len(self.vms)
        self.fleet = FleetIdlenessModel(n, params)
        self.index = {vm.name: i for i, vm in enumerate(self.vms)}
        if len(self.index) != n:
            raise ValueError("duplicate VM names in fleet binding")
        #: The bound VMs' current-hour activities: ``vm.current_activity``
        #: reads and writes this column (:meth:`load_hour` fills it).
        self.activity = np.zeros(n)
        for i, vm in enumerate(self.vms):
            # A never-read model is a fresh one: the fleet's new row
            # already holds exactly its state.
            if vm._model is not None:
                self._import_row(i, vm._model)
            vm.model = FleetVMView(self.fleet, i)
            vm.bind_activity(self.activity, i)
            # Import host-process state too: the columnar blocked-I/O
            # flags must reflect values set before binding.
            if getattr(vm, "blocked_io", False):
                self.fleet.set_blocked_io(i, True)
        self._matrix: np.ndarray | None = None
        self._matrix_start = 0
        #: Columnar per-host accounting attached by :meth:`try_bind`
        #: (see :mod:`repro.cluster.accounting`).
        self.accounting = None
        #: The data center this binding was built for, and whether every
        #: VM placed there since is one of ours (see :meth:`covers`).
        self._dc = None
        self._covered = True

    # ------------------------------------------------------------------
    @classmethod
    def try_bind(cls, dc, params: DrowsyParams,
                 accounting: bool = True) -> "FleetBinding | None":
        """Bind ``dc``'s VMs if they carry plain, uniform models.

        Reuses the data center's current binding when it still covers
        the placed VMs.  When the fleet grew (some VMs bound to an older
        fleet, newcomers scalar), a *fresh* binding is built — views
        expose the scalar state API, so their rows import exactly and
        the columnar fast path survives fleet growth.

        With ``accounting=True`` (the default) the binding also attaches
        a :class:`~repro.cluster.accounting.HostAccounting` to ``dc`` so
        simulators and controllers can read per-host quantities
        columnar-ly; ``accounting=False`` detaches it, leaving every
        consumer on the scalar per-host properties.
        """
        existing = getattr(dc, "_fleet_binding", None)
        vms = dc.vms
        if existing is not None and existing.covers(vms):
            existing._sync_accounting(dc, accounting)
            return existing
        if not vms:
            return None
        for vm in vms:
            model = vm._model
            if model is not None and type(model) not in (IdlenessModel,
                                                         FleetVMView):
                return None
            # Identity first: a built fleet shares one params object.
            own = vm.params if model is None else model.params
            if own is not params and own != params:
                return None
        binding = cls(vms, params)
        binding._dc = dc
        dc._fleet_binding = binding
        binding._sync_accounting(dc, accounting)
        return binding

    def _sync_accounting(self, dc, enabled: bool) -> None:
        """Attach/refresh (or detach) the host-accounting layer."""
        from ..cluster.accounting import HostAccounting

        if not enabled:
            self.accounting = None
            dc._accounting = None
            return
        current = self.accounting
        if current is None or current.dc is not dc or not current.valid:
            self.accounting = HostAccounting(self, dc)
        dc._accounting = self.accounting

    def _import_row(self, i: int, model) -> None:
        """Copy scalar-API model state (IdlenessModel or FleetVMView)
        into fleet row ``i``."""
        f = self.fleet
        if not np.array_equal(model.scale_mask, f.scale_mask):
            raise ValueError("scale-mask mismatch importing model state")
        f.sid[i] = model.sid
        f.siw[i] = model.siw
        # Only the days the source has written (none for a fresh model).
        if type(model) is FleetVMView:
            src, j = model._fleet, model._i
        else:
            src, j = model, ...
        f._sim.import_row(i, src._sim, j)
        f._siy.import_row(i, src._siy, j)
        f.weights[i] = model.weights
        f._activity_sum[i] = model._activity_sum
        f._active_hours[i] = model._active_hours
        f.row_hours[i] = model.hours_observed

    # ------------------------------------------------------------------
    def _owns(self, vm) -> bool:
        m = vm._model
        return (type(m) is FleetVMView and m._fleet is self.fleet
                and self.index.get(vm.name) == m._i)

    def on_attach(self, vm) -> None:
        """Placement hook (``DataCenter._attach``): a VM this binding
        does not own landed in the bound data center."""
        if not self._owns(vm):
            self._covered = False

    def covers(self, vms: list) -> bool:
        """True iff every VM in ``vms`` is bound to this fleet.

        For the bound data center's own ``dc.vms`` this is O(1): the
        binding was built from that population, and the data center's
        attach hook clears the flag when a foreign VM lands.  Any other
        list, or a cleared flag, is scanned.
        """
        dc = self._dc
        if (self._covered and dc is not None and dc._fleet_binding is self
                and vms is dc.vms):
            return True
        covered = all(self._owns(vm) for vm in vms)
        if dc is not None and vms is dc.vms:
            self._covered = covered
        return covered

    def __getstate__(self) -> dict:
        # The horizon matrix is derived from the traces, which pickle
        # with their VMs: a checkpoint must not hold the activities
        # twice.  The engines' ``continue_run`` rebuilds it.
        state = self.__dict__.copy()
        state["_matrix"] = None
        return state

    # ------------------------------------------------------------------
    # precomputed trace matrix
    # ------------------------------------------------------------------
    def ensure_horizon(self, start_hour: int, n_hours: int) -> None:
        """Make the ``(n, T)`` activity matrix cover a run horizon.

        When the bound VMs' traces are the rows of one read-only matrix
        in binding order (as :func:`~repro.experiments.common.build_fleet`
        builds them) and the horizon lies within it, that matrix is read
        in place; otherwise the traces' windows are stacked.
        """
        if (self._matrix is not None and self._matrix_start <= start_hour
                and start_hour + n_hours <= self._matrix_start + self._matrix.shape[1]):
            return
        shared = self._trace_rows()
        if shared is not None and 0 <= start_hour <= shared.shape[1] - n_hours:
            self._matrix, self._matrix_start = shared, 0
            return
        from ..traces.base import activity_matrix

        self._matrix = activity_matrix([vm.trace for vm in self.vms],
                                       n_hours, start_hour=start_hour)
        self._matrix_start = start_hour

    def _trace_rows(self) -> np.ndarray | None:
        """The read-only matrix whose row ``i`` is bound VM ``i``'s whole
        trace, or ``None`` when the traces are not laid out so."""
        base = self.vms[0].trace.activities.base
        if (not isinstance(base, np.ndarray) or base.ndim != 2
                or len(base) != len(self.vms) or base.flags.writeable):
            return None
        width, (row_stride, col_stride) = base.shape[1], base.strides
        address = base.__array_interface__["data"][0]
        for vm in self.vms:
            row = vm.trace.activities
            if (row.base is not base or row.shape[0] != width
                    or row.strides[0] != col_stride
                    or row.__array_interface__["data"][0] != address):
                return None
            address += row_stride
        return base

    def activities(self, hour_index: int) -> np.ndarray:
        """(n,) trace activities of the bound VMs for an absolute hour."""
        m = self._matrix
        if m is not None:
            col = hour_index - self._matrix_start
            if 0 <= col < m.shape[1]:
                return m[:, col]
        return np.array([vm.activity_at(hour_index) for vm in self.vms])

    def load_hour(self, hour_index: int) -> np.ndarray:
        """Set every bound VM's ``current_activity`` for the hour (one
        column copy: the VMs read the binding's activity column).

        Returns the ``(n,)`` activity column, ready to be fed to
        :meth:`observe`.  VMs no longer placed on any host keep receiving
        their trace activity — nothing reads their state, and keeping the
        column dense keeps the batched update branch-free.
        """
        col = self.activities(hour_index)
        self.activity[:] = col
        return col

    def observe(self, hour_index: int, activities: np.ndarray) -> None:
        """Ingest one hour for the whole fleet (one vectorized update)."""
        self.fleet.observe(hour_index, activities)
