"""Per-VM idleness model (paper section III).

The idleness model (IM) summarizes a VM's past idleness with synthesized
idleness (SI) scores at four calendar scales, plus four learned weights.
Every hour :meth:`IdlenessModel.observe` ingests the VM's activity level
and updates scores and weights; :meth:`IdlenessModel.idleness_probability`
answers "how likely is this VM to be idle at calendar slot X?".

Scores live in ``[-1, 1]``: positive means "historically idle at this
slot", negative "historically active", zero "undetermined".  See
DESIGN.md for the raw-IP vs probability distinction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .calendar import CalendarSlot, slot_of_hour
from .params import DEFAULT_PARAMS, DrowsyParams
from .slab import DaySlab, dense_property
from .weights import N_SCALES, descend_weights, initial_weights

#: Index of each scale in SI/weight vectors, matching the paper's order
#: (wd, ww, wm, wy).
SCALE_DAY, SCALE_WEEK, SCALE_MONTH, SCALE_YEAR = range(N_SCALES)


@dataclass(frozen=True)
class IdlenessObservation:
    """Result of one hourly model update (useful for tracing/learning)."""

    hour_index: int
    activity: float
    idle: bool
    raw_ip_before: float
    raw_ip_after: float


def raw_ips(weights: np.ndarray, si: np.ndarray) -> np.ndarray:
    """Raw IPs ``w^T SI`` (paper eq. (1)) of ``k`` rows: ``(k, 4)``
    weights and scores give ``(k,)``.

    A batched matmul: each row is bit-identical to the scalar
    ``w @ si`` (``einsum`` is not, in the last ulp).
    """
    return (weights[:, None, :] @ si[:, :, None])[:, 0, 0]


def hourly_update(p: DrowsyParams, mask: np.ndarray, weights: np.ndarray,
                  si_old: np.ndarray, a_h: np.ndarray,
                  mean_active: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The hourly update of ``k`` models at one calendar slot (paper
    section III-C).

    ``si_old`` are the ``(k, 4)`` scores before the hour (masked scales
    0.0), ``a_h`` the hour's ``(k,)`` activities and ``mean_active``
    each model's a-bar.  Returns ``(si_new, raw)``: the updated scores
    and the raw IPs before the update.  ``weights`` (``(k, 4)``) is
    corrected in place, on the rows whose prediction missed (on every
    row when ``weight_update_on_error_only`` is off).  Every step works
    row by row, so a row's result does not depend on the batch.
    """
    idle = a_h == 0.0
    raw = raw_ips(weights, si_old)
    # Eq. (2): the hour's activity when active, the mean past active
    # level when idle.
    a = np.where(idle, mean_active, a_h)
    a_star = (p.sigma * a)[:, None]  # eq. (3)
    # Eq. (4)-(5): one update value per scale, damped near the bounds.
    u = 1.0 / (1.0 + np.exp(p.alpha * (np.abs(si_old) - p.beta)))
    v = a_star * u
    si_new = np.clip(np.where(idle[:, None], si_old + v, si_old - v),
                     -1.0, 1.0)
    si_new[:, ~mask] = 0.0

    if p.learn_weights:
        # Eq. (8) descent, gated on the prediction error.
        learn = ((raw > 0.0) != idle if p.weight_update_on_error_only
                 else np.ones_like(idle))
        rows = np.flatnonzero(learn)
        if rows.size:
            weights[rows] = descend_weights(
                weights[rows], si_old[rows], si_new[rows],
                steps=p.weight_descent_steps,
                learning_rate=p.weight_learning_rate, mask=mask)
    return si_new, raw


class ModelQueries:
    """The queries derived from ``raw_ip``, ``observe`` and the a-bar
    counters, shared by :class:`IdlenessModel` and the fleet's per-VM
    view (:class:`~repro.core.binding.FleetVMView`)."""

    __slots__ = ()

    def idleness_probability(self, slot: CalendarSlot) -> float:
        """Raw IP mapped affinely to [0, 1] (DESIGN.md interpretation).

        0.5 means undetermined; above 0.5 the VM is predicted idle.
        """
        return (self.raw_ip(slot) + 1.0) / 2.0

    def predict_idle(self, slot: CalendarSlot) -> bool:
        """Paper section VI-A.5: positive prediction iff IP > 50 %."""
        return self.idleness_probability(slot) > 0.5

    @property
    def mean_active_activity(self) -> float:
        """Mean activity level over past *active* hours (a-bar, eq. (2))."""
        if self._active_hours == 0:
            return self.params.default_activity
        return self._activity_sum / self._active_hours

    def predict_and_observe(self, hour_index: int, activity: float) -> tuple[bool, bool]:
        """Convenience for evaluation: prediction *then* ground truth.

        Returns ``(predicted_idle, actually_idle)`` for the hour, making
        the prediction with the model state *before* ingesting the hour
        (exactly the online protocol of Fig. 4).
        """
        predicted = self.predict_idle(slot_of_hour(hour_index))
        obs = self.observe(hour_index, activity)
        return predicted, obs.idle


class IdlenessModel(ModelQueries):
    """Idleness model of a single VM.

    Parameters
    ----------
    params:
        Tunables; defaults are the paper's values.

    Notes
    -----
    The model is deliberately cheap: one hourly update touches exactly one
    cell per scale table plus the 4-vector of weights, so the per-VM,
    per-hour cost is O(1) — this is what makes Drowsy-DC's consolidation
    O(n) in the number of VMs (paper section VII).
    """

    def __init__(self, params: DrowsyParams = DEFAULT_PARAMS) -> None:
        self.params = params
        self.sid = np.zeros(24)
        self.siw = np.zeros((7, 24))
        #: Monthly/yearly scales hold only the days written so far
        #: (nothing before the first observation; :mod:`repro.core.slab`).
        self._sim = DaySlab(31)
        self._siy = DaySlab(365)
        self.scale_mask = np.array(
            [True, params.use_weekly_scale, params.use_monthly_scale,
             params.use_yearly_scale])
        self.weights = initial_weights(self.scale_mask)
        self._activity_sum = 0.0
        self._active_hours = 0
        self.hours_observed = 0

    sim = dense_property("_sim", "Dense ``(31, 24)`` monthly scores.")
    siy = dense_property("_siy", "Dense ``(365, 24)`` yearly scores.")

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def si_vector(self, slot: CalendarSlot) -> np.ndarray:
        """SI scores (SId, SIw, SIm, SIy) for one calendar slot."""
        h = slot.hour
        si = np.array([
            self.sid[h],
            self.siw[slot.day_of_week, h],
            self._sim.read(slot.day_of_month, h),
            self._siy.read(slot.day_of_year, h),
        ])
        return np.where(self.scale_mask, si, 0.0)

    def raw_ip(self, slot: CalendarSlot) -> float:
        """Raw idleness probability ``w^T SI`` (paper eq. (1)).

        Lives on the SI scale (|raw| <= 1); used for placement distances
        and the 7-sigma opportunistic threshold.
        """
        return float(self.weights @ self.si_vector(slot))

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def observe(self, hour_index: int, activity: float) -> IdlenessObservation:
        """Ingest the activity level of absolute hour ``hour_index``.

        ``activity`` is the fraction of scheduler quanta the VM consumed
        during that hour, in [0, 1], *after* noise filtering (paper
        section III-C; see :mod:`repro.traces.noise`).  The update is
        :func:`hourly_update` on a one-row batch.
        """
        if not 0.0 <= activity <= 1.0:
            raise ValueError(f"activity must be in [0, 1], got {activity}")
        slot = slot_of_hour(hour_index)
        idle = activity == 0.0

        weights = np.array(self.weights, dtype=np.float64, ndmin=2)
        si_new, raw = hourly_update(
            self.params, self.scale_mask, weights, self.si_vector(slot)[None],
            np.array([activity], dtype=np.float64),
            np.array([self.mean_active_activity]))
        si_new = si_new[0]
        self.weights = weights[0]

        h = slot.hour
        self.sid[h] = si_new[SCALE_DAY]
        self.siw[slot.day_of_week, h] = si_new[SCALE_WEEK]
        if self.scale_mask[SCALE_MONTH]:
            self._sim.write(slot.day_of_month, h, si_new[SCALE_MONTH])
        if self.scale_mask[SCALE_YEAR]:
            self._siy.write(slot.day_of_year, h, si_new[SCALE_YEAR])

        if not idle:
            self._activity_sum += activity
            self._active_hours += 1
        self.hours_observed += 1

        return IdlenessObservation(
            hour_index=hour_index, activity=activity, idle=idle,
            raw_ip_before=float(raw[0]),
            raw_ip_after=float(self.weights @ si_new))
