"""Overload / underload detection (OpenStack Neat sub-problems 1 and 2).

Neat [19, 25] splits dynamic consolidation into four sub-problems; the
first two decide *which hosts* need attention.  We reimplement the
detectors from Beloglazov & Buyya that Neat ships:

* static threshold (THR);
* median absolute deviation (MAD) adaptive threshold;
* interquartile range (IQR) adaptive threshold;
* local regression (LR/LRR) trend prediction.

All detectors consume a host's recent CPU-utilization history (most
recent last).  Underload detection follows Neat's simple policy: the
lowest-utilization active host is an underload candidate; the migration
planner then checks that its VMs fit elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np


class OverloadDetector(Protocol):
    """Decides whether a host is overloaded from its utilization history."""

    def is_overloaded(self, history: Sequence[float]) -> bool: ...


@dataclass(frozen=True)
class ThresholdDetector:
    """Static utilization threshold (Neat's THR, default 0.8)."""

    threshold: float = 0.8

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")

    def is_overloaded(self, history: Sequence[float]) -> bool:
        return len(history) > 0 and bool(history[-1] > self.threshold)


@dataclass(frozen=True)
class MadDetector:
    """Adaptive threshold 1 - s * MAD(history) (Beloglazov's MAD).

    Falls back to THR behaviour until enough history accumulates.
    """

    safety: float = 2.5
    min_history: int = 10
    fallback_threshold: float = 0.8

    def is_overloaded(self, history: Sequence[float]) -> bool:
        if len(history) < self.min_history:
            return ThresholdDetector(self.fallback_threshold).is_overloaded(history)
        h = np.asarray(history, dtype=np.float64)
        mad = float(np.median(np.abs(h - np.median(h))))
        threshold = 1.0 - self.safety * mad
        return float(h[-1]) > max(threshold, 0.0)


@dataclass(frozen=True)
class IqrDetector:
    """Adaptive threshold 1 - s * IQR(history) (Beloglazov's IQR)."""

    safety: float = 1.5
    min_history: int = 10
    fallback_threshold: float = 0.8

    def is_overloaded(self, history: Sequence[float]) -> bool:
        if len(history) < self.min_history:
            return ThresholdDetector(self.fallback_threshold).is_overloaded(history)
        h = np.asarray(history, dtype=np.float64)
        q75, q25 = np.percentile(h, [75, 25])
        threshold = 1.0 - self.safety * float(q75 - q25)
        return float(h[-1]) > max(threshold, 0.0)


@dataclass(frozen=True)
class LocalRegressionDetector:
    """Local regression (LR): predict next utilization from a trend fit.

    A weighted least-squares line (tricube weights, a là Loess) is fit
    over the last ``window`` points; the host is overloaded if the
    extrapolated next value, inflated by the safety factor, reaches 1.
    """

    window: int = 10
    safety: float = 1.2
    fallback_threshold: float = 0.8

    def is_overloaded(self, history: Sequence[float]) -> bool:
        if len(history) < self.window:
            return ThresholdDetector(self.fallback_threshold).is_overloaded(history)
        h = np.asarray(history, dtype=np.float64)[-self.window:]
        x = np.arange(self.window, dtype=np.float64)
        # Tricube weights emphasizing recent observations.
        d = (x[-1] - x) / max(x[-1] - x[0], 1.0)
        w = (1.0 - d**3) ** 3
        xm = np.average(x, weights=w)
        ym = np.average(h, weights=w)
        denom = np.average((x - xm) ** 2, weights=w)
        slope = 0.0 if denom == 0 else float(np.average((x - xm) * (h - ym), weights=w) / denom)
        predicted = ym + slope * (self.window - xm)
        return self.safety * predicted >= 1.0


def overloaded_mask(detector: OverloadDetector, history: np.ndarray,
                    lengths: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """(n_hosts,) bool: which ``candidates`` the detector flags.

    ``history`` is ``(n_hosts, window)`` with each host's most recent
    utilization last and ``lengths[k]`` trailing columns of row ``k``
    filled.  The static threshold needs only the last column, so it is
    one comparison for every host; adaptive detectors see each
    candidate's filled row.
    """
    if type(detector) is ThresholdDetector:
        return candidates & (lengths > 0) & (history[:, -1] > detector.threshold)
    w = history.shape[1]
    mask = np.zeros(len(candidates), dtype=bool)
    for k in np.flatnonzero(candidates).tolist():
        mask[k] = detector.is_overloaded(history[k, w - int(lengths[k]):])
    return mask


def underload_order(utilizations: np.ndarray,
                    name_rank: np.ndarray) -> np.ndarray:
    """Indices from least to most utilized, equal utilizations in name
    order (``name_rank`` ranks the hosts' names): Neat's underload scan.

    The planner walks this order trying to fully evacuate each
    candidate.
    """
    return np.lexsort((name_rank, utilizations))


def underloaded_candidates(utilizations: dict[str, float],
                           exclude: frozenset[str] = frozenset()) -> list[str]:
    """:func:`underload_order` over a ``name -> utilization`` mapping;
    ``exclude`` removes hosts already being handled as overloaded."""
    names = [name for name in utilizations if name not in exclude]
    rank = np.empty(len(names), dtype=np.intp)
    rank[sorted(range(len(names)), key=names.__getitem__)] = np.arange(len(names))
    order = underload_order(
        np.array([utilizations[name] for name in names], dtype=np.float64),
        rank)
    return [names[k] for k in order.tolist()]
