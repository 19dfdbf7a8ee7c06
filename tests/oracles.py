"""Reference engines for the parity tests.

Each production engine has one path: suspend checks swept on a timer
wheel and re-armed where their verdict can next change, one bulk RNG
pass per hour for request traffic, and the columnar fleet model with
host accounting whenever :meth:`~repro.core.binding.FleetBinding.try_bind`
accepts the fleet.  The literal versions those paths batch live here,
as test-only subclasses the parity suites compare against:

* :class:`PerHostEventSimulation` — one fixed-period suspend-check event
  per host (the iterated ``now + period`` chain), one heap event per
  request arrival with its service time drawn at submit, and optionally
  the scalar per-VM model (``binding="scalar"``) or the fleet model
  without host accounting (``binding="no-accounting"``).  Every
  ``RunResult`` field but ``events_processed`` matches the production
  engine; with ``per_host_checks=False`` the event count matches too.
* :class:`ScalarHourlySimulator` — the hourly engine on the scalar
  per-VM path (no fleet binding).
* :class:`PerHostEventBackend` — a façade backend adapter building the
  event oracle, for runs that need the façade's wiring (faults,
  observers): ``Simulation(dc, "drowsy", PerHostEventBackend())``.
* :class:`EventParityCell` / :func:`run_event_parity_cell` — one
  acceptance run (oracle or production), picklable for
  :class:`~repro.sim.sweep.SweepRunner` workers.
* :func:`assert_results_equal` / :func:`assert_matches_oracle` — the
  parity contract, one definition for every suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields

from repro.api.backends import EventBackend
from repro.cluster.power import PowerState
from repro.core.binding import FleetBinding
from repro.core.params import DEFAULT_PARAMS
from repro.core.result import RunResult
from repro.network.requests import Request
from repro.sim.event_driven import EventConfig, EventDrivenSimulation
from repro.sim.hourly import HourlySimulator

BINDINGS = ("fleet", "scalar", "no-accounting")

#: Every RunResult field is a parity observable — derived, not
#: hardcoded, so fields added later are covered automatically.
RESULT_FIELDS = tuple(f.name for f in fields(RunResult))


def assert_results_equal(a, b, skip=()):
    for field in RESULT_FIELDS:
        if field not in skip:
            assert getattr(a, field) == getattr(b, field), field


def assert_matches_oracle(fast, oracle):
    """The production event engine against the fixed-period per-host
    oracle: every field equal except the event count, which only
    shrinks."""
    assert_results_equal(fast, oracle, skip=("events_processed",))
    assert fast.events_processed < oracle.events_processed


class PerHostEventSimulation(EventDrivenSimulation):
    """The event engine's literal per-host / per-push reference."""

    def __init__(self, dc, controller, params=DEFAULT_PARAMS,
                 config: EventConfig = EventConfig(), hour_hooks=(), *,
                 per_host_checks: bool = True,
                 per_push_requests: bool = True,
                 binding: str = "fleet") -> None:
        if binding not in BINDINGS:
            raise ValueError(f"binding must be one of {BINDINGS}")
        if per_push_requests and config.request_streams != "shared":
            raise ValueError("per-push requests draw from the shared stream")
        # Set before the base constructor: it calls _bind().
        self.per_host_checks = per_host_checks
        self.per_push_requests = per_push_requests
        self.binding_mode = binding
        self._check_events: dict[str, object] = {}
        super().__init__(dc, controller, params, config, hour_hooks)

    def _bind(self):
        if self.binding_mode == "scalar":
            return None
        return FleetBinding.try_bind(self.dc, self.params,
                                     accounting=self.binding_mode == "fleet")

    # -- one check event per host, fixed period ------------------------
    def _schedule_check(self, host, delay: float) -> None:
        if not self.per_host_checks:
            return super()._schedule_check(host, delay)
        self._cancel_check(host)
        self._check_events[host.name] = self.sim.schedule_in(
            delay, self._suspend_check, host)

    def _cancel_check(self, host) -> None:
        if not self.per_host_checks:
            return super()._cancel_check(host)
        ev = self._check_events.pop(host.name, None)
        if ev is not None:
            ev.cancel()

    def _suspend_check(self, host) -> None:
        self._check_events.pop(host.name, None)
        if not self.config.suspend_enabled:
            return
        if host.state is not PowerState.ON:
            return  # resume path reinstates the check
        verdict = self.suspending[host.name].evaluate(self.sim.now)
        if verdict.should_suspend:
            self._begin_suspend(host, verdict.waking_date_s)
        else:
            self._schedule_check(host, self.params.suspend_check_period_s)

    # -- one heap event per arrival, service time drawn at submit ------
    def _generate_hour_requests(self, now: float, profile) -> None:
        if not self.per_push_requests:
            return super()._generate_hour_requests(now, profile)
        for host in self.dc.hosts:
            for vm in host.vms:
                if vm.interactive and vm.current_activity > 0.0:
                    for at in profile.hourly_arrivals(
                            self.rng, now, vm.current_activity,
                            hour_index=self._current_hour):
                        self.sim.schedule_at(float(at), self._submit_request,
                                             vm.name)

    def _submit_request(self, vm_name: str) -> None:
        if vm_name in self._departed_vms:
            return  # VM churned away after this hour's traffic was drawn
        profile = self.config.request_profile
        self.switch.submit_request(Request(
            arrival_s=self.sim.now, vm_name=vm_name,
            service_time_s=profile.sample_service_time(self.rng)))


class ScalarHourlySimulator(HourlySimulator):
    """The hourly engine on the scalar per-VM path (no fleet binding)."""

    def _bind(self):
        return None


class PerHostEventBackend(EventBackend):
    """Façade adapter building :class:`PerHostEventSimulation` with the
    given oracle options."""

    def __init__(self, **oracle) -> None:
        self.oracle = oracle

    def build(self, dc, controller, params, config, hour_hooks: tuple):
        return PerHostEventSimulation(dc, controller, params, config,
                                      hour_hooks, **self.oracle)


@dataclass(frozen=True)
class EventParityCell:
    """One event-driven acceptance run (per-host oracle or production).

    The simulator-throughput bench compares the two on the same
    workload; they are independent simulations over their own fleets,
    so they shard across cores like E8 cells — the oracle run overlaps
    the production one instead of serializing behind it.
    """

    n_vms: int
    hours: int
    batched: bool
    seed: int = 7
    llmi_fraction: float = 0.5


def run_event_parity_cell(cell: EventParityCell):
    """Run one acceptance cell; returns ``(RunResult, wall_s)`` with the
    wall-clock measured inside the worker (top-level so spawn workers
    can pickle it)."""
    from repro.api import Simulation
    from repro.experiments.common import build_fleet

    dc = build_fleet(max(1, cell.n_vms // 4), cell.n_vms,
                     cell.llmi_fraction, max(cell.hours, 24),
                     seed=cell.seed)
    sim = Simulation(dc, "drowsy",
                     "event" if cell.batched else PerHostEventBackend())
    t0 = time.perf_counter()
    result = sim.run(cell.hours)
    return result, time.perf_counter() - t0
