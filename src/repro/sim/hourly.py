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
from typing import Callable

import numpy as np

from ..cluster.accounting import HostAccounting, columnar_host_view
from ..cluster.datacenter import DataCenter
from ..cluster.host import Host
from ..cluster.power import CRASHED_CODE, OFF_CODE, ON_CODE, SUSPENDED_CODE
from ..core.binding import FleetBinding
from ..core.calendar import time_of_hour
from ..core.params import DEFAULT_PARAMS, DrowsyParams
from ..core.result import RunResult
from ..suspend.grace import grace_from_raw_ip

HourHook = Callable[[int, float], None]


def validate_shared_config(config) -> None:
    """The config contract both simulators share (DESIGN.md §13).

    Called from ``HourlyConfig.__post_init__`` and
    ``EventConfig.__post_init__`` so the shared checks and their error
    wording cannot diverge.
    """
    if config.consolidation_period_h < 1:
        raise ValueError("consolidation_period_h must be >= 1")


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
    #: Mean delay before the suspending module notices idleness
    #: (half the check period).
    decision_delay_s: float = 2.5
    #: Consume the columnar host-accounting view (used CPUs/memory, CPU
    #: utilization, all-idle flags, mean raw IP for every host from one
    #: vectorized pass per hour; DESIGN.md §8) for suspend checks,
    #: SLATAH accounting and controller host queries.  Bit-identical to
    #: the scalar per-host properties; the sharded backend's hourly
    #: shards turn it off (their placement changes mid-tick).
    use_host_accounting: bool = True

    def __post_init__(self) -> None:
        validate_shared_config(self)


class HourlySimulator:
    """Drive a data center and a consolidation controller hour by hour."""

    def __init__(self, dc: DataCenter, controller,
                 params: DrowsyParams = DEFAULT_PARAMS,
                 config: HourlyConfig = HourlyConfig(),
                 hour_hooks: tuple[HourHook, ...] = ()) -> None:
        self.dc = dc
        self.controller = controller
        self.params = params
        self.config = config
        self.hour_hooks = tuple(hour_hooks)
        self._overload_host_hours = 0
        self._active_host_hours = 0
        self._binding = self._bind()
        self._update_models = (config.update_models
                               or getattr(controller, "uses_idleness", False))
        #: Controller-specific sleep veto (Oasis-style), hoisted: the
        #: controller never changes after construction.
        self._can_sleep = getattr(controller, "host_can_sleep", None)
        self._run_start = 0
        self._horizon: tuple[int, int] | None = None
        #: The next hour the main loop will process — advanced *before*
        #: the hour hooks fire, so a checkpoint taken by a hook resumes
        #: at exactly the right boundary (DESIGN.md §16).
        self._next_hour = 0
        self._migrations_before = 0
        #: Telemetry endpoint (DESIGN.md §17), installed by a
        #: metrics/trace-enabled run; stays ``None`` — zero hooks,
        #: zero clock reads — otherwise.
        self._obs = None

    # ------------------------------------------------------------------
    def run(self, n_hours: int, start_hour: int = 0) -> RunResult:
        if n_hours <= 0:
            raise ValueError("n_hours must be positive")
        if self._binding is None or not self._binding.covers(self.dc.vms):
            # The fleet may have grown since construction: rebind so the
            # columnar path survives VM arrivals between runs.
            self._binding = self._bind()
        if self._binding is not None:
            self._binding.ensure_horizon(start_hour, n_hours)
        self._run_start = start_hour
        self._horizon = (start_hour, n_hours)
        self._next_hour = start_hour
        self._migrations_before = len(self.dc.migrations)
        return self._drive()

    def continue_run(self) -> RunResult:
        """Finish a run restored from a checkpoint: re-enter the hour
        loop at the recorded boundary.  All loop state lives on the
        engine, so the remaining hours execute exactly as the
        uninterrupted run would have."""
        if self._horizon is None:
            raise RuntimeError("no run in progress to continue")
        return self._drive()

    def _drive(self) -> RunResult:
        start_hour, n_hours = self._horizon
        for t in range(self._next_hour, start_hour + n_hours):
            self._hour(t)
        end = time_of_hour(start_hour + n_hours)
        self.dc.sync_meters(end)
        return self._result(n_hours, self._migrations_before)

    # ------------------------------------------------------------------
    def _bind(self) -> FleetBinding | None:
        """Bind the fleet into one columnar idleness model (DESIGN.md
        §6), with host accounting per the config (§8); ``None`` when
        :meth:`FleetBinding.try_bind` refuses the fleet (e.g. adaptive
        models), which keeps the scalar per-VM fallback."""
        return FleetBinding.try_bind(
            self.dc, self.params,
            accounting=self.config.use_host_accounting)

    def rebind_fleet(self) -> None:
        """Re-bind the columnar fleet model to the current VM population.

        Scenario churn (DESIGN.md §12) places and removes VMs mid-run;
        a newly placed VM carries a scalar model, so the binding no
        longer covers the fleet and every hour would fall back to the
        per-VM path.  Churn hooks call this after changing the
        population: newcomers join fresh fleet rows (existing model
        state imports bit-exactly) and the horizon matrix is rebuilt.
        """
        self._binding = self._bind()
        if self._binding is not None and self._horizon is not None:
            self._binding.ensure_horizon(*self._horizon)

    # ------------------------------------------------------------------
    def _hour(self, t: int) -> None:
        now = time_of_hour(t)
        cfg = self.config
        # Per-hour invariants, hoisted: the VM population only changes
        # between hours, never inside the steps below.
        vms = self.dc.vms
        hosts = self.dc.hosts

        # 1. Charge the previous hour, load this hour's activities.
        #    With an active binding the load is one matrix-column read;
        #    the binding opts out when unbound VMs joined the fleet.
        binding = self._binding
        activities = None
        acc: HostAccounting | None = None
        if binding is not None and binding.covers(vms):
            acc = columnar_host_view(self.dc)
            # The meter charges [previous sync, now] at the *previous*
            # hour's utilization; the accounting column for t-1 over the
            # current placement is exactly that value for every host.
            if acc is not None and t > self._run_start:
                self.dc.sync_meters(now, acc.cpu_utilization(t - 1))
            else:
                self.dc.sync_meters(now)
            activities = binding.load_hour(t)
        else:
            self.dc.set_hour_activities(t, now)
        self.controller.observe_hour(t)

        # 2. Consolidation decisions use models trained through t-1
        #    (they predict idleness of the *next* interval, section III).
        obs = self._obs
        if t % cfg.consolidation_period_h == 0:
            if obs is not None:
                obs.phase_begin("consolidate")
            if cfg.relocate_all_mode and hasattr(self.controller, "relocate_all"):
                self.controller.relocate_all(t, now)
            else:
                self.controller.step(t, now)
            if obs is not None:
                obs.phase_end()

        # 3. Learn this hour's activity: one vectorized update for the
        #    whole fleet, or the scalar per-VM loop when unbound.
        if self._update_models:
            if activities is not None:
                binding.observe(t, activities)
            else:
                for vm in vms:
                    vm.model.observe(t, vm.current_activity)

        # 4. Power-state bookkeeping for the hour, one columnar pass:
        #    only the hosts whose state changes run Python (DESIGN.md
        #    §7).  Controller migrations in step 2 already bumped the
        #    placement epoch, so the columns see the new placement.
        counts = (acc.vm_counts() if acc is not None else
                  np.fromiter((len(h.vms) for h in hosts), dtype=np.int64,
                              count=len(hosts)))
        self._power_step(t, now, acc, counts)

        # 5. QoS accounting (Beloglazov's SLATAH): an active host whose
        #    CPU demand saturates capacity is failing its VMs this hour.
        on = (self.dc.meters.state == ON_CODE) & (counts > 0)
        if acc is not None:
            demand, limit = acc.cpu_demand(t), acc.overload_cpus()
        else:
            demand, limit = np.zeros(len(hosts)), np.ones(len(hosts))
            for k in np.flatnonzero(on).tolist():
                host = hosts[k]
                demand[k] = sum(vm.current_activity * vm.resources.cpus
                                for vm in host.vms)
                limit[k] = host.capacity.cpus * 0.999
        self._active_host_hours += int(on.sum())
        self._overload_host_hours += int((on & (demand >= limit)).sum())

        self._next_hour = t + 1
        if obs is not None:
            obs.hour_mark(t)
        for hook in self.hour_hooks:
            hook(t, now)

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
    def _sleepable(self, t: int, acc: HostAccounting | None,
                   candidates: np.ndarray) -> np.ndarray:
        """(n_hosts,) 'may this host sleep this hour?' for the
        ``candidates`` (non-empty, not crashed); False elsewhere.

        The column's source: the columnar accounting, else the
        controller's veto (Oasis-style policies) or every hosted VM
        idle, asked of the candidate hosts only."""
        if not self.config.suspend_enabled:
            return np.zeros(len(candidates), dtype=bool)
        if acc is not None and self._can_sleep is None:
            return acc.sleepable(t) & candidates
        hosts = self.dc.hosts
        ask = self._can_sleep or (lambda host: host.all_vms_idle)
        flags = np.zeros(len(candidates), dtype=bool)
        for k in np.flatnonzero(candidates).tolist():
            flags[k] = ask(hosts[k])
        return flags

    def _power_step(self, t: int, now: float, acc: HostAccounting | None,
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
        sleepable = self._sleepable(t, acc, ~empty & (state != CRASHED_CODE))
        resume = np.flatnonzero((state == SUSPENDED_CODE) & ~empty
                                & ~sleepable)
        suspend = (state == ON_CODE) & sleepable
        if suspend.any():
            begin = np.full(len(hosts), now + cfg.decision_delay_s)
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
                               self._grace(host, t, acc))
        for k in np.flatnonzero(suspend).tolist():
            at = float(begin[k])
            hosts[k].begin_suspend(at)
            hosts[k].finish_suspend(at + p.suspend_latency_s)

    def _grace(self, host: Host, t: int,
               acc: HostAccounting | None = None) -> float:
        if not self.params.use_grace:
            return 0.0
        if acc is not None:
            mean_ip = float(acc.mean_raw_ip(t)[acc.pos(host)])
        else:
            mean_ip = host.mean_raw_ip(t)
        return grace_from_raw_ip(mean_ip, self.params)

    # ------------------------------------------------------------------
    def _result(self, n_hours: int, migrations_before: int) -> RunResult:
        return RunResult(
            hours=n_hours,
            controller_name=self.controller.name,
            backend="hourly",
            energy_kwh_by_host={h.name: h.meter.energy_kwh for h in self.dc.hosts},
            suspended_fraction_by_host={
                h.name: h.meter.suspended_fraction for h in self.dc.hosts},
            suspend_cycles_by_host={h.name: h.suspend_count for h in self.dc.hosts},
            migrations=len(self.dc.migrations) - migrations_before,
            vm_migrations={vm.name: vm.migrations for vm in self.dc.vms},
            overload_host_hours=self._overload_host_hours,
            active_host_hours=self._active_host_hours,
        )
