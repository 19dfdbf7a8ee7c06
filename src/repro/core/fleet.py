"""Vectorized idleness models for a fleet of VMs.

:class:`FleetIdlenessModel` holds the SI tables of ``n`` VMs in stacked
NumPy arrays and performs the hourly update for the whole fleet with a
handful of vectorized operations (no per-VM Python loop).  All VMs share
the wall clock, so a single calendar slot indexes one column per scale
table — gathers and scatters are plain fancy indexing on the trailing
axes, updated in place per the hpc-parallel guidance (views, no copies).

The hourly update is :func:`repro.core.model.hourly_update`, the one
the scalar :class:`~repro.core.model.IdlenessModel` runs on a one-row
batch; property tests check every entry point bit for bit against a
scalar reference.
"""

from __future__ import annotations

import numpy as np

from .calendar import slot_of_hour, slots_of_hours
from .model import IdlenessObservation, hourly_update, raw_ips
from .params import DEFAULT_PARAMS, DrowsyParams
from .slab import DaySlab, dense_property
from .weights import initial_weights


class FleetIdlenessModel:
    """Idleness models of ``n`` VMs, updated in lockstep.

    The public API mirrors the scalar model but takes/returns arrays of
    shape ``(n,)`` (activities, IPs, predictions).
    """

    def __init__(self, n: int, params: DrowsyParams = DEFAULT_PARAMS) -> None:
        if n <= 0:
            raise ValueError(f"fleet size must be positive, got {n}")
        self.n = n
        self.params = params
        self.sid = np.zeros((n, 24))
        self.siw = np.zeros((n, 7, 24))
        #: Monthly/yearly scales: only the days this fleet has written
        #: (:mod:`repro.core.slab`); :attr:`sim`/:attr:`siy` read them dense.
        self._sim = DaySlab(31, (n,))
        self._siy = DaySlab(365, (n,))
        self.scale_mask = np.array(
            [True, params.use_weekly_scale, params.use_monthly_scale,
             params.use_yearly_scale])
        self.weights = initial_weights(self.scale_mask, batch=n)
        self._activity_sum = np.zeros(n)
        self._active_hours = np.zeros(n, dtype=np.int64)
        self.hours_observed = 0
        #: Per-VM hour counters.  These track the batched counter except
        #: when rows are updated individually through
        #: :meth:`observe_one` (the :class:`~repro.core.binding.FleetVMView`
        #: fallback path for VMs observed outside a batch).
        self.row_hours = np.zeros(n, dtype=np.int64)
        #: Monotonic state-version counter keying :meth:`raw_ip_column`'s
        #: cache; bumped by every update.
        self.version = 0
        self._ip_cache: dict = {}
        #: Per-VM blocked-on-I/O flags, mirrored from ``VM.blocked_io``
        #: by its property setter while the VM is fleet-bound.  Not model
        #: state — this is host-process-table state (suspend §IV) kept
        #: columnar so the batched suspend sweep can derive per-host
        #: blocked-I/O masks without walking ``host.vms``.
        self.blocked_io = np.zeros(n, dtype=bool)
        #: Version counter for :attr:`blocked_io` (cache key for the
        #: per-host reduction in the host accounting).
        self.blocked_version = 0

    def set_blocked_io(self, i: int, value: bool) -> None:
        """Flip one VM's blocked-I/O flag (bumps the column version)."""
        value = bool(value)
        if bool(self.blocked_io[i]) != value:
            self.blocked_io[i] = value
            self.blocked_version += 1

    sim = dense_property("_sim", "Dense ``(n, 31, 24)`` monthly scores.")
    siy = dense_property("_siy", "Dense ``(n, 365, 24)`` yearly scores.")

    # ------------------------------------------------------------------
    def _gather(self, slot, out: np.ndarray, rows=...) -> np.ndarray:
        """Fill ``out[..., 4]`` with the SI scores of ``rows`` at one
        calendar slot (masked scales read 0.0)."""
        h = slot.hour
        out[..., 0] = self.sid[rows, h]
        out[..., 1] = self.siw[rows, slot.day_of_week, h]
        out[..., 2] = self._sim.read(slot.day_of_month, h, rows)
        out[..., 3] = self._siy.read(slot.day_of_year, h, rows)
        out[..., ~self.scale_mask] = 0.0
        return out

    def _scatter(self, slot, si: np.ndarray, rows=...) -> None:
        """Store ``si[..., 4]`` at one calendar slot.  A masked scale is
        never written: its scores stay the 0.0 an unwritten day reads."""
        h = slot.hour
        self.sid[rows, h] = si[..., 0]
        self.siw[rows, slot.day_of_week, h] = si[..., 1]
        if self.scale_mask[2]:
            self._sim.write(slot.day_of_month, h, si[..., 2], rows)
        if self.scale_mask[3]:
            self._siy.write(slot.day_of_year, h, si[..., 3], rows)

    def si_matrix(self, hour_index: int) -> np.ndarray:
        """(n, 4) SI scores of every VM for the given absolute hour."""
        return self._gather(slot_of_hour(hour_index), np.empty((self.n, 4)))

    def raw_ip(self, hour_index: int) -> np.ndarray:
        """(n,) raw IPs ``w^T SI`` for the given absolute hour."""
        return raw_ips(self.weights, self.si_matrix(hour_index))

    def idleness_probability(self, hour_index: int) -> np.ndarray:
        """(n,) normalized IPs in [0, 1]."""
        return (self.raw_ip(hour_index) + 1.0) / 2.0

    def raw_ip_column(self, slot) -> np.ndarray:
        """(n,) raw IPs for one calendar slot, cached per model version.

        Consolidation controllers query every VM's IP at the same hour
        (selection distances, host means, the 7-sigma range); this
        amortizes those n scalar queries into one vectorized gather per
        (slot, state-version).  Per row the values are bit-identical to
        :meth:`repro.core.model.IdlenessModel.raw_ip` (see
        :func:`~repro.core.model.raw_ips`), which the parity suite
        relies on.
        """
        key = (slot.hour, slot.day_of_week, slot.day_of_month,
               slot.day_of_year, self.version)
        col = self._ip_cache.get(key)
        if col is None:
            col = raw_ips(self.weights,
                          self._gather(slot, np.empty((self.n, 4))))
            self._ip_cache[key] = col
        return col

    def raw_ip_window(self, hour_index: int, hours: int,
                      rows: np.ndarray) -> np.ndarray:
        """``(len(rows), hours)`` raw IPs of the fleet rows ``rows`` over
        the hours from ``hour_index`` on, in one gather: entry ``[r, k]``
        is bit-identical to ``raw_ip_column(slot_of_hour(hour_index +
        k))[rows[r]]``.
        """
        h, dw, dm, _, doy = slots_of_hours(hour_index + np.arange(hours))
        at = rows[:, None]
        si = np.empty((len(rows), hours, 4))
        si[..., 0] = self.sid[at, h]
        si[..., 1] = self.siw[at, dw, h]
        si[..., 2] = self._sim.read_hours(dm, h, rows)
        si[..., 3] = self._siy.read_hours(doy, h, rows)
        si[..., ~self.scale_mask] = 0.0
        return raw_ips(np.repeat(self.weights[rows], hours, axis=0),
                       si.reshape(-1, 4)).reshape(len(rows), hours)

    def predict_idle(self, hour_index: int) -> np.ndarray:
        """(n,) bool: predicted idle iff probability > 0.5."""
        return self.idleness_probability(hour_index) > 0.5

    def _mean_active(self, rows=...) -> np.ndarray:
        """a-bar of ``rows``, with the cold-start fallback applied."""
        hours = self._active_hours[rows]
        with np.errstate(invalid="ignore", divide="ignore"):
            mean = self._activity_sum[rows] / hours
        return np.where(hours > 0, mean, self.params.default_activity)

    @property
    def mean_active_activity(self) -> np.ndarray:
        """(n,) a-bar values with the cold-start fallback applied."""
        return self._mean_active()

    # ------------------------------------------------------------------
    def _update(self, slot, a_h: np.ndarray, rows=...) -> np.ndarray:
        """The hourly update of the rows ``rows`` selects (all, or a
        slice) with their activities ``a_h``.

        Gathers the rows' scores, runs
        :func:`~repro.core.model.hourly_update` on them (its weight
        descent only on the mispredicted rows, written in place),
        scatters the new scores and advances the rows' counters.
        Returns the rows' raw IPs before the update.
        """
        si_old = self._gather(slot, np.empty((a_h.shape[0], 4)), rows)
        si_new, raw = hourly_update(self.params, self.scale_mask,
                                    self.weights[rows], si_old, a_h,
                                    self._mean_active(rows))
        self._scatter(slot, si_new, rows)

        active = a_h != 0.0
        sums = self._activity_sum[rows]
        np.add(sums, a_h, out=sums, where=active)
        self._active_hours[rows] += active
        self.row_hours[rows] += 1
        self.version += 1
        self._ip_cache.clear()
        return raw

    def observe(self, hour_index: int, activities: np.ndarray) -> None:
        """Ingest one hour of activity levels for the whole fleet."""
        a_h = np.asarray(activities, dtype=np.float64)
        if a_h.shape != (self.n,):
            raise ValueError(f"expected shape ({self.n},), got {a_h.shape}")
        _check_range(a_h)
        self._update(slot_of_hour(hour_index), a_h)
        self.hours_observed += 1

    def observe_one(self, i: int, hour_index: int, activity: float) -> IdlenessObservation:
        """Hourly update of row ``i`` only: :meth:`observe`'s update on
        a one-row selection.

        Used by :class:`~repro.core.binding.FleetVMView` when a bound VM
        must be observed outside the fleet batch (e.g. after new VMs
        joined the data center and the simulator fell back to the
        per-VM loop).  Advances the row's counters, not the fleet's
        :attr:`hours_observed`.
        """
        if not 0.0 <= activity <= 1.0:
            raise ValueError(f"activity must be in [0, 1], got {activity}")
        slot = slot_of_hour(hour_index)
        raw = self._update(slot, np.array([activity], dtype=np.float64),
                           slice(i, i + 1))
        si_new = self._gather(slot, np.empty(4), i)
        return IdlenessObservation(
            hour_index=hour_index, activity=activity, idle=activity == 0.0,
            raw_ip_before=float(raw[0]),
            raw_ip_after=float(self.weights[i] @ si_new))

    def predict_and_observe(self, hour_index: int, activities: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(predicted_idle, actually_idle) arrays, online protocol."""
        predicted = self.predict_idle(hour_index)
        a_h = np.asarray(activities, dtype=np.float64)
        self.observe(hour_index, a_h)
        return predicted, a_h == 0.0

    # ------------------------------------------------------------------
    def run_trace_matrix(self, activities: np.ndarray, start_hour: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """Feed an ``(n, T)`` activity matrix hour by hour.

        Returns ``(predictions, actuals)`` bool arrays of shape (n, T)
        following the online protocol (predict before observe): each
        hour is one :meth:`observe` update, whose pre-update raw IPs are
        that hour's predictions, so each SI gather happens once per
        hour.  This is the hot path for Fig. 4 and the fleet
        benchmarks.
        """
        activities = np.asarray(activities, dtype=np.float64)
        if activities.ndim != 2 or activities.shape[0] != self.n:
            raise ValueError(f"expected (n={self.n}, T) matrix, got {activities.shape}")
        _check_range(activities)
        T = activities.shape[1]
        preds = np.empty((self.n, T), dtype=bool)
        for t in range(T):
            raw = self._update(slot_of_hour(start_hour + t), activities[:, t])
            preds[:, t] = raw > 0.0
        self.hours_observed += T
        return preds, activities == 0.0


def _check_range(activities: np.ndarray) -> None:
    if np.any((activities < 0.0) | (activities > 1.0)):
        raise ValueError("activities must be in [0, 1]")
