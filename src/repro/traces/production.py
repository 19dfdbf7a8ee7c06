"""Production-like LLMI traces (paper Fig. 1 / Table II "real traces").

The paper drives its experiments with traces of five LLMI VMs monitored
for seven days in Nutanix's production DC (Fig. 1 shows three of them),
later extended to three years for the model evaluation (Table II,
subfigures c-g).  The traces themselves are proprietary; we substitute
seeded generators reproducing the documented structure: daily/weekly
periodic activity bursts with levels around 8-25 % and mild irregularity
(see DESIGN.md, substitution table).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.calendar import slots_of_hours
from .base import ROW_BLOCK, ActivityTrace, VMKind, trace_rows


@dataclass(frozen=True)
class ProductionTraceSpec:
    """Shape of one production LLMI workload."""

    name: str
    description: str
    #: (h, dw, dm) -> bool mask builder over vectorized coords.
    weekdays: tuple[int, ...]
    hours: tuple[int, ...]
    #: extra activity on end-of-month days (monthly periodicity).
    end_of_month: bool
    level: float
    level_jitter: float
    p_extra: float
    p_miss: float


#: Five specs calibrated on Fig. 1: daily or weekday bursts, activity
#: levels 8-25 %, V3/V4's workload is trace 1 (they "received the exact
#: same workload"), V6's is trace 3.
PRODUCTION_SPECS: tuple[ProductionTraceSpec, ...] = (
    ProductionTraceSpec(
        "real-trace-1", "morning business burst (weekdays 9-12)",
        weekdays=(0, 1, 2, 3, 4), hours=(9, 10, 11, 12),
        end_of_month=False, level=0.18, level_jitter=0.25,
        p_extra=0.002, p_miss=0.005),
    ProductionTraceSpec(
        "real-trace-2", "twin daily peaks (7 am, 7 pm, every day)",
        weekdays=tuple(range(7)), hours=(7, 19),
        end_of_month=False, level=0.12, level_jitter=0.2,
        p_extra=0.002, p_miss=0.005),
    ProductionTraceSpec(
        "real-trace-3", "nightly batch processing (1-3 am, every day)",
        weekdays=tuple(range(7)), hours=(1, 2, 3),
        end_of_month=False, level=0.22, level_jitter=0.3,
        p_extra=0.001, p_miss=0.004),
    ProductionTraceSpec(
        "real-trace-4", "weekday mornings plus Saturday catch-up",
        weekdays=(0, 1, 2, 3, 4, 5), hours=(9, 10),
        end_of_month=False, level=0.15, level_jitter=0.25,
        p_extra=0.002, p_miss=0.006),
    ProductionTraceSpec(
        "real-trace-5", "weekday middays plus end-of-month reporting",
        weekdays=(0, 1, 2, 3, 4), hours=(11, 12, 13),
        end_of_month=True, level=0.20, level_jitter=0.25,
        p_extra=0.002, p_miss=0.005),
)


#: ``(level, level_jitter, p_extra, p_miss)`` of each spec, one row per
#: trace index - 1.
_SPEC_LEVELS = np.array([(s.level, s.level_jitter, s.p_extra, s.p_miss)
                         for s in PRODUCTION_SPECS])


def _lookup(attr: str, width: int) -> np.ndarray:
    """Row ``index`` flags the spec's ``attr`` values (row 0 unused)."""
    table = np.zeros((len(PRODUCTION_SPECS) + 1, width), dtype=bool)
    for i, spec in enumerate(PRODUCTION_SPECS, start=1):
        table[i, list(getattr(spec, attr))] = True
    return table


_ACTIVE_WEEKDAYS = _lookup("weekdays", 7)
_ACTIVE_HOURS = _lookup("hours", 24)
_END_OF_MONTH = [i for i, s in enumerate(PRODUCTION_SPECS, start=1)
                 if s.end_of_month]


def production_matrix(indices, days: int, seeds, out: np.ndarray | None = None,
                      rows=None) -> np.ndarray:
    """Production-like LLMI traces as the rows of one activity matrix.

    Row ``k`` is trace ``indices[k]`` (in [1, 5]) drawn from its own
    ``default_rng(seeds[k])`` stream, exactly as a one-trace call draws
    it.  The calendar slots and each spec's weekday/hour/end-of-month
    mask are computed once for all rows.  The rows are written to
    ``out[rows, :days * 24]`` (a fresh ``(n, days * 24)`` matrix by
    default), one block of rows at a time.
    """
    indices = np.asarray(indices)
    if ((indices < 1) | (indices > len(PRODUCTION_SPECS))).any():
        raise ValueError(f"trace index must be in [1, {len(PRODUCTION_SPECS)}]")
    hours = days * 24
    if out is None:
        out = np.empty((len(indices), hours))
        rows = np.arange(len(indices))
    h, dw, dm, _, _ = slots_of_hours(np.arange(hours))
    calendar = _ACTIVE_WEEKDAYS[:, dw] & _ACTIVE_HOURS[:, h]
    calendar[_END_OF_MONTH] |= (dm >= 27) & (h >= 9) & (h <= 17)
    level, jitter, p_extra, p_miss = _SPEC_LEVELS[indices - 1].T[:, :, None]

    for lo in range(0, len(indices), ROW_BLOCK):
        block = slice(lo, lo + ROW_BLOCK)
        n = len(indices[block])
        extra, miss, levels = (np.empty((n, hours)) for _ in range(3))
        for k, seed in enumerate(seeds[block]):
            rng = np.random.default_rng(seed)
            rng.random(out=extra[k])
            rng.random(out=miss[k])
            levels[k] = rng.lognormal(0.0, jitter[lo + k, 0], size=hours)
        mask = calendar[indices[block]] | (extra < p_extra[block])
        mask &= ~(miss < p_miss[block])
        levels = level[block] * levels
        out[rows[block], :hours] = np.where(mask, np.clip(levels, 0.02, 1.0), 0.0)
    return out


def production_trace(index: int, days: int = 7, seed: int | None = None) -> ActivityTrace:
    """Production-like LLMI trace ``index`` in [1, 5] over ``days`` days.

    The default seven days matches the monitored window of section
    VI-A.2; pass ``days=3*365`` for the Fig. 4 evaluation.  ``seed``
    defaults to the trace index so V3 and V4 can share byte-identical
    workloads by using the same index and seed.  The one-row call of
    :func:`production_matrix`.
    """
    matrix = production_matrix([index], days,
                               [seed if seed is not None else 1000 + index])
    spec = PRODUCTION_SPECS[index - 1]
    return trace_rows(matrix, [spec.name], [VMKind.LLMI])[0]


def fig1_traces(days: int = 6, seed: int = 42) -> dict[str, ActivityTrace]:
    """The example workloads of Fig. 1: V3/V4 (same trace) and V6.

    Returns a mapping with keys ``"VM3"``, ``"VM4"`` and ``"VM6"``; VM3
    and VM4 carry the exact same activity array, as in the paper.
    """
    shared = production_trace(1, days=days, seed=seed)
    v6 = production_trace(3, days=days, seed=seed + 1)
    return {
        "VM3": shared.with_name("VM3"),
        "VM4": shared.with_name("VM4"),
        "VM6": v6.with_name("VM6"),
    }


def testbed_llmi_traces(days: int = 7, seed: int = 42) -> list[ActivityTrace]:
    """The six LLMI workloads of the testbed experiment (V3-V8).

    V3 and V4 receive the same workload (paper section VI-A.2); V5-V8
    draw from the remaining production specs.
    """
    shared = production_trace(1, days=days, seed=seed)
    out = [shared.with_name("V3"), shared.with_name("V4")]
    for vm, idx in zip(("V5", "V6", "V7", "V8"), (2, 3, 4, 5)):
        out.append(production_trace(idx, days=days, seed=seed + idx).with_name(vm))
    return out
