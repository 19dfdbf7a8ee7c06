"""The hour both simulation engines share (DESIGN.md §3).

The idleness model updates and the consolidation decisions run once an
hour (paper §III-C, §III-D) in both of the paper's evaluation settings
(§VI): the fleet simulation (:class:`~repro.sim.hourly.HourlySimulator`)
and the request-level testbed (:class:`~repro.sim.event_driven.
EventDrivenSimulation`).  :class:`HourEngine` writes that hour once:

1. charge the previous hour's meters and load this hour's activities,
   then let the controller observe the hour;
2. consolidate every ``consolidation_period_h`` hours, in relocate-all
   mode or through the controller's migration loop — each an engine
   hook (:meth:`HourEngine._relocate_all`, :meth:`HourEngine._step`);
3. learn the hour's activity (one fleet update, or the scalar loop).

Per-host quantities come from :func:`~repro.cluster.accounting.
host_view`, which always answers (DESIGN.md §8).

Each engine then does its own part of the hour (the hourly power step
and SLATAH accounting; the event engine's request traffic) and closes
it with :meth:`HourEngine._hour_tail`: the telemetry hour mark and the
hour hooks.  The base also owns the run prologue, the fleet (re)binding,
the :class:`~repro.core.result.RunResult` fields both engines fill, and
the administrative surface the :class:`~repro.api.Simulation` façade
exposes to scenario churn (DESIGN.md §13).
"""

from __future__ import annotations

from typing import Callable

from ..cluster.accounting import host_view
from ..cluster.datacenter import DataCenter
from ..core.binding import FleetBinding
from ..core.calendar import time_of_hour
from ..core.params import DrowsyParams
from ..core.result import RunResult

HourHook = Callable[[int, float], None]


def validate_shared_config(config) -> None:
    """The config contract both engines share (DESIGN.md §13).

    Called from ``HourlyConfig.__post_init__`` and
    ``EventConfig.__post_init__`` so the shared checks and their error
    wording cannot diverge.
    """
    if config.consolidation_period_h < 1:
        raise ValueError("consolidation_period_h must be >= 1")


class HourEngine:
    """Drive a data center and a consolidation controller hour by hour.

    An engine supplies ``_start(start_hour, n_hours)`` (arm a fresh
    run), ``_advance(end_hour)`` (run the remaining hours),
    ``force_awake(host, now)`` (an administrative zero-grace wake) and
    its hour method, which runs :meth:`_hour_head`, its own steps and
    :meth:`_hour_tail`.
    """

    #: ``RunResult.backend`` of this engine's runs.
    backend_name = ""

    def __init__(self, dc: DataCenter, controller, params: DrowsyParams,
                 config, hour_hooks: tuple[HourHook, ...]) -> None:
        self.dc = dc
        self.controller = controller
        self.params = params
        self.config = config
        self.hour_hooks = tuple(hour_hooks)
        #: Learn each hour's activity?  Idleness-driven controllers
        #: need the models whatever the config says; the controller
        #: never changes after construction.
        self._update_models = (config.update_models
                               or getattr(controller, "uses_idleness", False))
        self._binding = self._bind()
        self._run_start = 0
        self._horizon: tuple[int, int] | None = None
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
        self._run_start = start_hour
        self._horizon = (start_hour, n_hours)
        self._migrations_before = len(self.dc.migrations)
        self._start(start_hour, n_hours)
        return self.continue_run()

    def continue_run(self) -> RunResult:
        """Run (or finish) the horizon.  All in-flight state lives on
        the engine, so a run restored from a checkpoint resumes at its
        recorded boundary and executes the remaining hours exactly as
        the uninterrupted run would (DESIGN.md §16)."""
        if self._horizon is None:
            raise RuntimeError("no run in progress to continue")
        start_hour, n_hours = self._horizon
        if self._binding is not None:
            # A pickled binding leaves its horizon matrix behind.
            self._binding.ensure_horizon(start_hour, n_hours)
        self._advance(start_hour + n_hours)
        self.dc.sync_meters(time_of_hour(start_hour + n_hours))
        return self._result()

    # ------------------------------------------------------------------
    def _bind(self) -> FleetBinding | None:
        """Bind the fleet into one columnar idleness model (DESIGN.md
        §6), with host accounting (§8) unless the config turns it off;
        ``None`` when :meth:`FleetBinding.try_bind` refuses the fleet
        (e.g. adaptive models), which keeps the scalar per-VM path."""
        return FleetBinding.try_bind(
            self.dc, self.params,
            accounting=getattr(self.config, "use_host_accounting", True))

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
    # the shared hour
    # ------------------------------------------------------------------
    def _hour_head(self, t: int, now: float) -> None:
        """Steps 1-3 of hour ``t``."""
        # Hoisted: the VM population only changes between hours (churn
        # runs in the hour hooks); migrations merely reorder it.
        vms = self.dc.vms

        # 1. Charge the previous hour, load this hour's activities.
        #    With an active binding the load is one matrix-column read;
        #    the binding opts out when unbound VMs joined the fleet.
        binding = self._binding
        activities = None
        if binding is not None and binding.covers(vms):
            # The meter charges [previous sync, now] at the *previous*
            # hour's utilization: the view's column for t-1 over the
            # current placement, for every host.
            self.dc.sync_meters(now, host_view(self.dc).cpu_utilization(t - 1)
                                if t > self._run_start else None)
            activities = binding.load_hour(t)
        else:
            self.dc.set_hour_activities(t, now)
        self.controller.observe_hour(t)

        # 2. Consolidation decisions use models trained through t-1
        #    (they predict idleness of the *next* interval, section III).
        if t % self.config.consolidation_period_h == 0:
            obs = self._obs
            if obs is not None:
                obs.phase_begin("consolidate")
            if (self.config.relocate_all_mode
                    and hasattr(self.controller, "relocate_all")):
                self._relocate_all(t, now)
            else:
                self._step(t, now)
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

    def _relocate_all(self, t: int, now: float) -> None:
        """Relocate-all consolidation (paper §VI-A.1)."""
        self.controller.relocate_all(t, now)

    def _step(self, t: int, now: float) -> None:
        """The controller's own migration loop."""
        self.controller.step(t, now)

    def _hour_tail(self, t: int, now: float) -> None:
        """Close hour ``t``: the telemetry hour mark, then the hour
        hooks (observers: churn, faults, telemetry, checkpoints)."""
        if self._obs is not None:
            self._obs.hour_mark(t)
        for hook in self.hour_hooks:
            hook(t, now)

    # ------------------------------------------------------------------
    def _result(self, **own) -> RunResult:
        """The run's result: the fields every engine fills, plus the
        engine's ``own``."""
        hosts = self.dc.hosts
        return RunResult(
            hours=self._horizon[1],
            controller_name=self.controller.name,
            backend=self.backend_name,
            energy_kwh_by_host={h.name: h.meter.energy_kwh for h in hosts},
            suspended_fraction_by_host={
                h.name: h.meter.suspended_fraction for h in hosts},
            suspend_cycles_by_host={h.name: h.suspend_count for h in hosts},
            migrations=len(self.dc.migrations) - self._migrations_before,
            vm_migrations={vm.name: vm.migrations for vm in self.dc.vms},
            **own)

    # ------------------------------------------------------------------
    # administrative surface (scenario churn, maintenance tooling;
    # the façade calls these directly, DESIGN.md §13)
    # ------------------------------------------------------------------
    def reinstate_check(self, host) -> None:
        """Restore a host's suspend checks after maintenance; nothing to
        do for an engine that re-evaluates every host each hour."""

    def note_vm_departed(self, vm_name: str) -> None:
        """A VM left the fleet mid-run; nothing to do for an engine
        with no scheduled per-VM work."""

    def evacuate_host(self, host, now: float, targets=None):
        """Migrate every VM off ``host`` (maintenance drain)."""
        return self.dc.evacuate(host, now, targets)

    def place_vm(self, vm, dest) -> None:
        """Place a new VM on ``dest`` (churn arrival)."""
        self.dc.place(vm, dest)

    def power_off_host(self, host, now: float) -> None:
        """Power a drained host fully off (maintenance)."""
        host.power_off(host.meter_time(now))

    def power_on_host(self, host, now: float) -> None:
        """Power a host back on (maintenance end)."""
        host.power_on(host.meter_time(now))
