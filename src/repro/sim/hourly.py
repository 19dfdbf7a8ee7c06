"""Hour-resolution data-center simulator.

The idleness model, the traces and the consolidation all operate at the
paper's one-hour resolution, so fleet-scale energy experiments (Table I,
the kWh totals, the section VI-B sweep) run orders of magnitude faster
on an analytic hourly loop than on the request-level event simulator —
with the same power accounting, because transition latencies and
decision delays are still charged through the host state machine.

Sub-hour effects (oscillation, wake latency seen by requests) are the
event simulator's job (:mod:`repro.sim.event_driven`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cluster.accounting import HostView, host_view
from ..cluster.datacenter import DataCenter
from ..cluster.host import Host
from ..cluster.power import (
    CRASHED_CODE,
    OFF_CODE,
    ON_CODE,
    SUSPENDED_CODE,
    PowerState,
)
from ..core.calendar import time_of_hour
from ..core.params import DEFAULT_PARAMS, DrowsyParams
from ..core.result import RunResult
from ..suspend.grace import grace_from_raw_ip
from .engine import HourEngine, HourHook, validate_shared_config

#: Mean delay before the suspending module notices idleness: half its
#: check period.
DECISION_DELAY_S = 2.5


@dataclass(frozen=True)
class HourlyConfig:
    """Simulation options."""

    #: Enable host suspension (ACPI S3).  Off reproduces the
    #: "current real world case" baseline of section VI-A.1.
    suspend_enabled: bool = True
    #: Power empty hosts off (classic consolidation's S5 lever).
    power_off_empty: bool = True
    #: Run the consolidation controller every N hours.
    consolidation_period_h: int = 1
    #: Use Drowsy's periodic full-relocation evaluation mode (VI-A.1).
    relocate_all_mode: bool = False
    #: Maintain per-VM idleness models (required by Drowsy; optional for
    #: baselines, where it only costs time).
    update_models: bool = True
    #: Attach the columnar host accounting (used CPUs/memory, CPU
    #: utilization, all-idle flags, mean raw IP for every host from one
    #: vectorized pass per hour; DESIGN.md §8).  Off, every host view is
    #: the scalar one, bit-identical and slower; the sharded backend's
    #: hourly shards turn it off (their placement changes mid-tick).
    use_host_accounting: bool = True

    def __post_init__(self) -> None:
        validate_shared_config(self)


class HourlySimulator(HourEngine):
    """Drive a data center and a consolidation controller hour by hour."""

    backend_name = "hourly"

    def __init__(self, dc: DataCenter, controller,
                 params: DrowsyParams = DEFAULT_PARAMS,
                 config: HourlyConfig = HourlyConfig(),
                 hour_hooks: tuple[HourHook, ...] = ()) -> None:
        super().__init__(dc, controller, params, config, hour_hooks)
        self._overload_host_hours = 0
        self._active_host_hours = 0
        #: Controller-specific sleep veto (Oasis-style), hoisted: the
        #: controller never changes after construction.
        self._can_sleep = getattr(controller, "host_can_sleep", None)
        #: The next hour the main loop will process — advanced *before*
        #: the hour hooks fire, so a checkpoint taken by a hook resumes
        #: at exactly the right boundary (DESIGN.md §16).
        self._next_hour = 0

    # ------------------------------------------------------------------
    def _start(self, start_hour: int, n_hours: int) -> None:
        self._next_hour = start_hour

    def _advance(self, end_hour: int) -> None:
        for t in range(self._next_hour, end_hour):
            self._hour(t)

    def _hour(self, t: int) -> None:
        now = time_of_hour(t)
        self._hour_head(t, now)

        # 4. Power-state bookkeeping for the hour, one columnar pass:
        #    only the hosts whose state changes run Python (DESIGN.md
        #    §7).  The view reflects step 2's migrations.
        view = host_view(self.dc)
        counts = view.vm_counts()
        self._power_step(t, now, view, counts)

        # 5. QoS accounting (Beloglazov's SLATAH): an active host whose
        #    CPU demand saturates capacity is failing its VMs this hour.
        on = (self.dc.meters.state == ON_CODE) & (counts > 0)
        demand, limit = view.cpu_demand(t), view.overload_cpus
        self._active_host_hours += int(on.sum())
        self._overload_host_hours += int((on & (demand >= limit)).sum())

        self._next_hour = t + 1
        self._hour_tail(t, now)

    # ------------------------------------------------------------------
    def telemetry_sample(self) -> dict:
        """Cumulative engine counters for the telemetry runtime
        (DESIGN.md §17) — sampled at hour boundaries, never pushed, so
        the metrics-off path costs nothing."""
        return {
            "migrations": len(self.dc.migrations),
            "active_host_hours": self._active_host_hours,
            "overload_host_hours": self._overload_host_hours,
            "hosts_suspended": int(
                (self.dc.meters.state == SUSPENDED_CODE).sum()),
        }

    # ------------------------------------------------------------------
    def _sleepable(self, t: int, view: HostView,
                   candidates: np.ndarray) -> np.ndarray:
        """(n_hosts,) 'may this host sleep this hour?' for the
        ``candidates`` (non-empty, not crashed); False elsewhere.

        The column's source: the view's, or the controller's veto
        (Oasis-style policies) asked of the candidate hosts only."""
        if not self.config.suspend_enabled:
            return np.zeros(len(candidates), dtype=bool)
        ask = self._can_sleep
        if ask is None:
            return view.sleepable(t) & candidates
        hosts = self.dc.hosts
        flags = np.zeros(len(candidates), dtype=bool)
        for k in np.flatnonzero(candidates).tolist():
            flags[k] = ask(hosts[k])
        return flags

    def _power_step(self, t: int, now: float, view: HostView,
                    counts: np.ndarray) -> None:
        """The hour's power decisions for every host, as masks over the
        state, VM-count, sleepable and grace columns.

        Crashed hosts are left to fault injection; empty ON hosts power
        off (classic consolidation's S5 lever); an OFF host that
        received VMs powers back on; a suspended host whose VMs woke
        resumes with a grace period; an ON host whose VMs all sleep
        suspends after the decision delay (or its grace end) if the
        hour still has room for it.  Each host's decision depends only
        on its own row, so applying them mask by mask in host order is
        the per-host sequence (``tests/oracles.py`` keeps that loop).
        """
        cfg, p = self.config, self.params
        hosts = self.dc.hosts
        meters = self.dc.meters
        state = meters.state
        empty = counts == 0
        if cfg.power_off_empty:
            for k in np.flatnonzero(empty & (state == ON_CODE)).tolist():
                hosts[k].power_off(now)
        # (placement onto S5 is filtered out by controllers, but
        # relocate_all may use any managed host)
        for k in np.flatnonzero(~empty & (state == OFF_CODE)).tolist():
            hosts[k].power_on(now)
        sleepable = self._sleepable(t, view, ~empty & (state != CRASHED_CODE))
        resume = np.flatnonzero((state == SUSPENDED_CODE) & ~empty
                                & ~sleepable)
        suspend = (state == ON_CODE) & sleepable
        if suspend.any():
            begin = np.full(len(hosts), now + DECISION_DELAY_S)
            if p.use_grace:
                grace = meters.grace_until
                begin = np.where(begin < grace, grace, begin)
            # Suspend only pays off if the hour has room left.
            suspend &= begin + p.suspend_latency_s < now + 3600.0
        for k in resume.tolist():
            # Activity resumed: timer fired / request arrived at the
            # start of the active hour; charge the resume.
            host = hosts[k]
            host.begin_resume(now)
            host.finish_resume(now + p.resume_latency_s,
                               self._grace(host, t, view))
        for k in np.flatnonzero(suspend).tolist():
            at = float(begin[k])
            hosts[k].begin_suspend(at)
            hosts[k].finish_suspend(at + p.suspend_latency_s)

    def _grace(self, host: Host, t: int, view: HostView) -> float:
        if not self.params.use_grace:
            return 0.0
        return grace_from_raw_ip(view.host_mean_raw_ip(host, t), self.params)

    # ------------------------------------------------------------------
    def force_awake(self, host: Host, now: float) -> None:
        """Administrative wake at hour resolution: a zero-latency,
        zero-grace resume on the host's meter clock (the hourly power
        step may have charged it a few seconds past the hour start)."""
        if host.state is PowerState.SUSPENDED:
            now = host.meter_time(now)
            host.begin_resume(now)
            host.finish_resume(now, 0.0)

    def _result(self) -> RunResult:
        return super()._result(
            overload_host_hours=self._overload_host_hours,
            active_host_hours=self._active_host_hours)
