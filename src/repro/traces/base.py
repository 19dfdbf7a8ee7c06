"""Activity traces.

A trace is the hourly activity level of one VM: the fraction of scheduler
quanta the VM consumed in each hour, in ``[0, 1]`` (paper section III-C).
An hour with activity exactly 0 is an *idle* hour; the idleness model
only distinguishes idle vs active, but the activity *level* feeds the
update magnitude (eq. (2)) and the request generator.

The paper's VM taxonomy (section I) is carried on the trace:

* ``SLMU`` — short-lived mostly-used (e.g. MapReduce tasks);
* ``LLMU`` — long-lived mostly-used (e.g. popular web services);
* ``LLMI`` — long-lived mostly-idle (e.g. seasonal web services).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..core.calendar import HOURS_PER_DAY


#: Rows the batched trace generators draw and combine at a time: their
#: temporaries stay a few hundred kB whatever the fleet size.
ROW_BLOCK = 256


class VMKind(enum.Enum):
    """Paper section I VM activity classes."""

    SLMU = "short-lived mostly-used"
    LLMU = "long-lived mostly-used"
    LLMI = "long-lived mostly-idle"


@dataclass(frozen=True)
class ActivityTrace:
    """Hourly activity levels of one VM.

    ``activities[t]`` is the activity level of absolute hour ``t`` (hours
    since the calendar epoch, a Monday Jan 1).
    """

    name: str
    activities: np.ndarray
    kind: VMKind = VMKind.LLMI

    def __post_init__(self) -> None:
        arr = np.asarray(self.activities, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("activities must be a 1-D array")
        check_levels(arr)
        object.__setattr__(self, "activities", arr)

    # ------------------------------------------------------------------
    @property
    def hours(self) -> int:
        """Trace length in hours."""
        return int(self.activities.size)

    @property
    def days(self) -> float:
        return self.hours / HOURS_PER_DAY

    @property
    def idle_mask(self) -> np.ndarray:
        """Bool array: True where the hour is idle (activity == 0)."""
        return self.activities == 0.0

    @property
    def idle_fraction(self) -> float:
        """Fraction of idle hours over the trace."""
        return float(np.mean(self.idle_mask))

    @property
    def mean_active_level(self) -> float:
        """Mean activity level over active hours (0 if never active)."""
        active = self.activities[~self.idle_mask]
        return float(active.mean()) if active.size else 0.0

    # ------------------------------------------------------------------
    def activity(self, hour_index: int) -> float:
        """Activity level of absolute hour ``hour_index``.

        Hours past the end of the trace wrap around (periodic extension),
        so a one-week trace can drive a simulation of arbitrary length —
        this mirrors the paper extending one-week Nutanix traces to three
        years (Table II).
        """
        return float(self.activities[hour_index % self.hours])

    def window(self, start_hour: int, n_hours: int) -> np.ndarray:
        """Activity levels for ``n_hours`` starting at ``start_hour``."""
        idx = (start_hour + np.arange(n_hours)) % self.hours
        return self.activities[idx]

    def tiled(self, total_hours: int, name: str | None = None) -> "ActivityTrace":
        """Periodic extension of the trace to ``total_hours``."""
        reps = int(np.ceil(total_hours / self.hours))
        arr = np.tile(self.activities, reps)[:total_hours]
        return ActivityTrace(name or f"{self.name}*{reps}", arr, self.kind)

    def with_name(self, name: str) -> "ActivityTrace":
        return ActivityTrace(name, self.activities, self.kind)

    def __len__(self) -> int:
        return self.hours


def check_levels(levels: np.ndarray) -> None:
    """Reject an empty trace, or a level that is not a finite number in
    ``[0, 1]`` (NaN and infinities included).  ``levels`` holds one
    trace, or one trace per row."""
    if levels.shape[-1] == 0:
        raise ValueError("trace must contain at least one hour")
    if not ((levels >= 0.0) & (levels <= 1.0)).all():
        raise ValueError("activity levels must be finite and in [0, 1]")


def trace_rows(matrix: np.ndarray, names, kinds,
               lengths=None) -> list[ActivityTrace]:
    """One trace per row of an ``(n, T)`` activity matrix, validated once.

    Each trace's ``activities`` is a read-only view of its row, whose
    first ``lengths[i]`` hours it spans (all ``T`` by default).  The
    matrix is frozen read-only too, so a fleet built this way shares
    one buffer: :class:`~repro.core.binding.FleetBinding` reads a run's
    horizon straight from it (DESIGN.md §6).
    """
    check_levels(matrix)
    matrix.flags.writeable = False
    if lengths is None:
        lengths = [matrix.shape[1]] * len(matrix)
    out = []
    for row, name, kind, n in zip(matrix, names, kinds, lengths):
        # The levels were checked above: skip the per-trace validation.
        trace = object.__new__(ActivityTrace)
        object.__setattr__(trace, "name", name)
        object.__setattr__(trace, "activities", row[:n])
        object.__setattr__(trace, "kind", kind)
        out.append(trace)
    return out


def activity_matrix(traces: list[ActivityTrace], n_hours: int,
                    start_hour: int = 0) -> np.ndarray:
    """Stack traces into an ``(n, T)`` activity matrix.

    ``matrix[i, k]`` equals ``traces[i].activity(start_hour + k)``
    (periodic extension per trace).  Building the matrix once and
    loading one column per simulated hour replaces ``n`` Python trace
    calls with a single array read — the trace half of the columnar hot
    path (DESIGN.md §6); :class:`~repro.core.binding.FleetBinding`
    caches the matrix for a whole run horizon.
    """
    if n_hours <= 0:
        raise ValueError("n_hours must be positive")
    return np.stack([t.window(start_hour, n_hours) for t in traces])
