"""Vectorized idleness models for a fleet of VMs.

:class:`FleetIdlenessModel` holds the SI tables of ``n`` VMs in stacked
NumPy arrays and performs the hourly update for the whole fleet with a
handful of vectorized operations (no per-VM Python loop).  All VMs share
the wall clock, so a single calendar slot indexes one column per scale
table — gathers and scatters are plain fancy indexing on the trailing
axes, updated in place per the hpc-parallel guidance (views, no copies).

Semantics are identical to :class:`repro.core.model.IdlenessModel`; the
equivalence is enforced by property-based tests.
"""

from __future__ import annotations

import numpy as np

from .calendar import slot_of_hour
from .params import DEFAULT_PARAMS, DrowsyParams
from .slab import DaySlab, dense_property
from .weights import descend_weights, initial_weights


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
    def _gather(self, h: int, dw: int, dm: int, doy: int, out: np.ndarray,
                rows=...) -> np.ndarray:
        """Fill ``out[..., 4]`` with the SI scores of ``rows`` at one
        calendar slot (masked scales read 0.0)."""
        out[..., 0] = self.sid[rows, h]
        out[..., 1] = self.siw[rows, dw, h]
        out[..., 2] = self._sim.read(dm, h, rows)
        out[..., 3] = self._siy.read(doy, h, rows)
        out[..., ~self.scale_mask] = 0.0
        return out

    def _scatter(self, h: int, dw: int, dm: int, doy: int, si: np.ndarray,
                 rows=...) -> None:
        """Store ``si[..., 4]`` at one calendar slot.  A masked scale is
        never written: its scores stay the 0.0 an unwritten day reads."""
        self.sid[rows, h] = si[..., 0]
        self.siw[rows, dw, h] = si[..., 1]
        if self.scale_mask[2]:
            self._sim.write(dm, h, si[..., 2], rows)
        if self.scale_mask[3]:
            self._siy.write(doy, h, si[..., 3], rows)

    def si_matrix(self, hour_index: int) -> np.ndarray:
        """(n, 4) SI scores of every VM for the given absolute hour."""
        s = slot_of_hour(hour_index)
        return self._gather(s.hour, s.day_of_week, s.day_of_month,
                            s.day_of_year, np.empty((self.n, 4)))

    def raw_ip(self, hour_index: int) -> np.ndarray:
        """(n,) raw IPs ``w^T SI`` for the given absolute hour."""
        return np.einsum("ij,ij->i", self.weights, self.si_matrix(hour_index))

    def idleness_probability(self, hour_index: int) -> np.ndarray:
        """(n,) normalized IPs in [0, 1]."""
        return (self.raw_ip(hour_index) + 1.0) / 2.0

    def raw_ip_column(self, slot) -> np.ndarray:
        """(n,) raw IPs for one calendar slot, cached per model version.

        Consolidation controllers query every VM's IP at the same hour
        (selection distances, host means, the 7-sigma range); this
        amortizes those n scalar queries into one vectorized gather per
        (slot, state-version).  The batched product is computed with the
        same BLAS dot kernel as the scalar model's ``w @ si`` — the
        per-row values are bit-identical to
        :meth:`repro.core.model.IdlenessModel.raw_ip`, which the parity
        suite relies on.
        """
        key = (slot.hour, slot.day_of_week, slot.day_of_month,
               slot.day_of_year, self.version)
        col = self._ip_cache.get(key)
        if col is None:
            si = self._gather(slot.hour, slot.day_of_week, slot.day_of_month,
                              slot.day_of_year, np.empty((self.n, 4)))
            col = (self.weights[:, None, :] @ si[:, :, None]).reshape(self.n)
            self._ip_cache[key] = col
        return col

    def predict_idle(self, hour_index: int) -> np.ndarray:
        """(n,) bool: predicted idle iff probability > 0.5."""
        return self.idleness_probability(hour_index) > 0.5

    @property
    def mean_active_activity(self) -> np.ndarray:
        """(n,) a-bar values with the cold-start fallback applied."""
        fallback = np.full(self.n, self.params.default_activity)
        with np.errstate(invalid="ignore", divide="ignore"):
            mean = self._activity_sum / self._active_hours
        return np.where(self._active_hours > 0, mean, fallback)

    # ------------------------------------------------------------------
    def observe(self, hour_index: int, activities: np.ndarray) -> None:
        """Ingest one hour of activity levels for the whole fleet."""
        a_h = np.asarray(activities, dtype=np.float64)
        if a_h.shape != (self.n,):
            raise ValueError(f"expected shape ({self.n},), got {a_h.shape}")
        if np.any((a_h < 0.0) | (a_h > 1.0)):
            raise ValueError("activities must be in [0, 1]")
        p = self.params
        s = slot_of_hour(hour_index)
        idle = a_h == 0.0

        si_old = self.si_matrix(hour_index)
        a = np.where(idle, self.mean_active_activity, a_h)
        a_star = (p.sigma * a)[:, None]
        u = 1.0 / (1.0 + np.exp(p.alpha * (np.abs(si_old) - p.beta)))
        v = a_star * u
        si_new = np.clip(np.where(idle[:, None], si_old + v, si_old - v),
                         -1.0, 1.0)
        si_new[:, ~self.scale_mask] = 0.0

        self._scatter(s.hour, s.day_of_week, s.day_of_month, s.day_of_year,
                      si_new)

        if p.learn_weights:
            if p.weight_update_on_error_only:
                predicted_idle = np.einsum("ij,ij->i", self.weights, si_old) > 0.0
                update = predicted_idle != idle
            else:
                update = np.ones(self.n, dtype=bool)
            if update.any():
                new_weights = descend_weights(
                    self.weights, si_old, si_new,
                    steps=p.weight_descent_steps,
                    learning_rate=p.weight_learning_rate,
                    mask=self.scale_mask)
                self.weights = np.where(update[:, None], new_weights,
                                        self.weights)

        np.add(self._activity_sum, a_h, out=self._activity_sum, where=~idle)
        self._active_hours += ~idle
        self.hours_observed += 1
        self.row_hours += 1
        self.version += 1
        self._ip_cache.clear()

    # ------------------------------------------------------------------
    def observe_one(self, i: int, hour_index: int, activity: float):
        """Scalar-path hourly update of row ``i`` only.

        Bit-identical to :meth:`repro.core.model.IdlenessModel.observe`
        on a standalone model holding this row's state — the operations
        below are the scalar model's, applied to row views.  Used by
        :class:`~repro.core.binding.FleetVMView` when a bound VM must be
        observed outside the fleet batch (e.g. after new VMs joined the
        data center and the simulator fell back to the per-VM loop).
        """
        from .model import IdlenessObservation

        if not 0.0 <= activity <= 1.0:
            raise ValueError(f"activity must be in [0, 1], got {activity}")
        p = self.params
        s = slot_of_hour(hour_index)
        idle = activity == 0.0
        mask = self.scale_mask
        cell = (s.hour, s.day_of_week, s.day_of_month, s.day_of_year)

        si_old = self._gather(*cell, np.empty(4), i)
        w = self.weights[i]
        raw_before = float(w @ si_old)

        if idle:
            if self._active_hours[i] == 0:
                a = p.default_activity
            else:
                a = self._activity_sum[i] / self._active_hours[i]
        else:
            a = activity
        a_star = p.sigma * a
        u = 1.0 / (1.0 + np.exp(p.alpha * (np.abs(si_old) - p.beta)))
        v = a_star * u
        si_new = np.clip(si_old + v if idle else si_old - v, -1.0, 1.0)
        si_new = np.where(mask, si_new, 0.0)

        self._scatter(*cell, si_new, i)

        predicted_idle = raw_before > 0.0
        mispredicted = predicted_idle != idle
        if p.learn_weights and (mispredicted or not p.weight_update_on_error_only):
            self.weights[i] = descend_weights(
                w.copy(), si_old, si_new,
                steps=p.weight_descent_steps,
                learning_rate=p.weight_learning_rate,
                mask=mask)

        if not idle:
            self._activity_sum[i] += activity
            self._active_hours[i] += 1
        self.row_hours[i] += 1
        self.version += 1
        self._ip_cache.clear()

        return IdlenessObservation(
            hour_index=hour_index, activity=activity, idle=idle,
            raw_ip_before=raw_before,
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
        following the online protocol (predict before observe).  This is
        the hot path for Fig. 4 and the fleet benchmarks: calendar
        coordinates are precomputed for the whole horizon and the
        per-hour update is inlined so each SI gather happens once per
        hour instead of once per query (profiling-driven, see the
        hpc-parallel notes in DESIGN.md §6).
        """
        activities = np.asarray(activities, dtype=np.float64)
        if activities.ndim != 2 or activities.shape[0] != self.n:
            raise ValueError(f"expected (n={self.n}, T) matrix, got {activities.shape}")
        if np.any((activities < 0.0) | (activities > 1.0)):
            raise ValueError("activities must be in [0, 1]")
        T = activities.shape[1]
        preds = np.empty((self.n, T), dtype=bool)
        actual = activities == 0.0

        from .calendar import slots_of_hours

        hh, dww, dmm, mm, doyy = slots_of_hours(start_hour + np.arange(T))
        p = self.params
        mask = self.scale_mask
        fallback = p.default_activity
        si = np.empty((self.n, 4))

        for t in range(T):
            h = int(hh[t])
            dw = int(dww[t])
            dm = int(dmm[t])
            doy = int(doyy[t])
            self._gather(h, dw, dm, doy, si)

            raw = np.einsum("ij,ij->i", self.weights, si)
            preds[:, t] = raw > 0.0

            a_h = activities[:, t]
            idle = actual[:, t]
            with np.errstate(invalid="ignore", divide="ignore"):
                mean_active = self._activity_sum / self._active_hours
            a = np.where(idle,
                         np.where(self._active_hours > 0, mean_active, fallback),
                         a_h)
            v = (p.sigma * a)[:, None] / (1.0 + np.exp(p.alpha * (np.abs(si) - p.beta)))
            si_new = np.clip(np.where(idle[:, None], si + v, si - v), -1.0, 1.0)
            si_new[:, ~mask] = 0.0

            self._scatter(h, dw, dm, doy, si_new)

            if p.learn_weights:
                update = (preds[:, t] != idle) if p.weight_update_on_error_only \
                    else np.ones(self.n, dtype=bool)
                if update.any():
                    new_weights = descend_weights(
                        self.weights, si, si_new,
                        steps=p.weight_descent_steps,
                        learning_rate=p.weight_learning_rate,
                        mask=mask)
                    self.weights = np.where(update[:, None], new_weights,
                                            self.weights)

            self._activity_sum += np.where(idle, 0.0, a_h)
            self._active_hours += ~idle
            self.hours_observed += 1
        self.row_hours += T
        self.version += 1
        self._ip_cache.clear()
        return preds, actual
