"""Deeper event-driven simulation tests: wake paths, queueing, stats."""

import numpy as np
import pytest

from repro.cluster import (
    DataCenter,
    Host,
    HostCapacity,
    PowerState,
    ResourceSpec,
    ServiceTimer,
    VM,
)
from repro.consolidation import NeatController
from repro.core.params import DEFAULT_PARAMS
from repro.sim.event_driven import EventConfig, EventDrivenSimulation
from repro.traces.base import ActivityTrace
from repro.traces.synthetic import always_idle_trace
from tests.oracles import PerHostEventSimulation

CAP = HostCapacity(cpus=8, memory_mb=16384, cpu_overcommit=1.0)
FLAVOR = ResourceSpec(cpus=2, memory_mb=6144)


def single_host_sim(trace=None, timers=(), interactive=True, params=DEFAULT_PARAMS,
                    config=None, engine=EventDrivenSimulation):
    host = Host("h0", CAP, params)
    dc = DataCenter([host], params)
    vm = VM("v0", trace or always_idle_trace(72), FLAVOR, params=params,
            timers=timers, interactive=interactive, ip_address="10.7.0.1")
    dc.place(vm, host)
    sim = engine(dc, NeatController(dc, params=params), params,
                 config or EventConfig(seed=3))
    return sim, dc, host, vm


class TestWakePaths:
    def test_request_wol_resume_flush_sequence(self):
        sim, dc, host, vm = single_host_sim()
        sim.sim.schedule_at(120.0, sim.switch.submit_request, "v0", 120.0,
                            0.05)  # host asleep by then
        sim.run(1)
        [req] = sim.switch.log.requests
        assert req.completed
        assert req.woke_host
        # Latency = resume latency + service time (within scheduling noise).
        expected = DEFAULT_PARAMS.resume_latency_s + 0.05
        assert req.latency_s == pytest.approx(expected, abs=0.1)

    def test_scheduled_wake_fires_before_timer(self):
        timer = ServiceTimer("cron", period_s=3600.0, first_fire_s=1800.0)
        sim, dc, host, vm = single_host_sim(timers=(timer,), interactive=False)
        sim.run(1)
        # Host resumed shortly before 1800 s.
        resume_times = [t.time for t in host.transitions
                        if t.to_state is PowerState.ON]
        assert resume_times, "expected an anticipated resume"
        first = min(resume_times)
        assert 1700.0 < first <= 1800.0

    def test_multiple_requests_share_one_wake(self):
        sim, dc, host, vm = single_host_sim()

        def burst():
            for i in range(5):
                sim.switch.submit_request("v0", sim.sim.now, 0.02)

        sim.sim.schedule_at(200.0, burst)
        sim.run(1)
        assert len(sim.switch.log.requests) == 5
        assert host.resume_count == 1

    def test_wol_counters(self):
        sim, dc, host, vm = single_host_sim()

        def submit():
            sim.switch.submit_request("v0", sim.sim.now, 0.02)

        sim.sim.schedule_at(100.0, submit)
        result = sim.run(1)
        assert result.wol_sent >= 1


class TestSuspendDynamics:
    def test_first_suspend_happens_after_check_period(self):
        sim, dc, host, vm = single_host_sim()
        sim.run(1)
        first_suspend = min(t.time for t in host.transitions
                            if t.to_state is PowerState.SUSPENDING)
        assert first_suspend == pytest.approx(
            DEFAULT_PARAMS.suspend_check_period_s, abs=1.0)

    def test_check_period_respected_while_active(self):
        trace = ActivityTrace("busy", np.full(72, 0.5))
        # Fixed-period contract: one evaluation per check period.  The
        # production engine re-checks an ACTIVE host once per hour, so
        # this runs the fixed-period per-host oracle.
        sim, dc, host, vm = single_host_sim(
            trace=trace, engine=PerHostEventSimulation)
        sim.run(2)
        # Active host: evaluations happen but no suspend.
        module = sim.suspending["h0"]
        from repro.suspend.module import SuspendDecision

        assert module.decision_counts[SuspendDecision.ACTIVE] > 100
        assert host.suspend_count == 0

    def test_adaptive_default_widens_active_checks(self):
        """The flip side: with the default (adaptive) config the same
        always-busy host is checked far less often, and still never
        suspends."""
        from repro.suspend.module import SuspendDecision

        trace = ActivityTrace("busy", np.full(72, 0.5))
        sim, dc, host, vm = single_host_sim(trace=trace)
        sim.run(2)
        module = sim.suspending["h0"]
        active = module.decision_counts[SuspendDecision.ACTIVE]
        assert 0 < active < 2 * 3600 / DEFAULT_PARAMS.suspend_check_period_s / 4
        assert host.suspend_count == 0

    def test_grace_prevents_immediate_resuspend(self):
        # One active hour between idle hours; after the resume the host
        # has a grace window before suspending again.
        acts = np.zeros(72)
        acts[1] = 0.4
        sim, dc, host, vm = single_host_sim(ActivityTrace("t", acts))
        sim.run(3)
        # Find resume then next suspend.
        events = [(t.time, t.to_state) for t in host.transitions]
        for i, (time_r, state) in enumerate(events):
            if state is PowerState.ON and i + 1 < len(events):
                next_suspend = events[i + 1][0]
                assert next_suspend - time_r >= DEFAULT_PARAMS.grace_min_s - 1e-6

    def test_blocked_io_vm_prevents_suspend(self):
        sim, dc, host, vm = single_host_sim()
        vm.blocked_io = True
        sim.run(1)
        assert host.suspend_count == 0
        from repro.suspend.module import SuspendDecision

        counts = sim.suspending["h0"].decision_counts
        assert counts[SuspendDecision.BLOCKED_IO] > 0


class TestEventResultConsistency:
    def test_meter_covers_duration(self):
        sim, dc, host, vm = single_host_sim()
        sim.run(4)
        assert host.meter.total_seconds == pytest.approx(4 * 3600.0)

    def test_result_counts_match_host_state(self):
        sim, dc, host, vm = single_host_sim()
        result = sim.run(4)
        assert result.suspend_cycles_by_host["h0"] == host.suspend_count
        assert result.resume_cycles_by_host["h0"] == host.resume_count
        assert result.events_processed > 0

    def test_no_pending_requests_left(self):
        sim, dc, host, vm = single_host_sim()

        def submit():
            sim.switch.submit_request("v0", sim.sim.now, 0.02)

        sim.sim.schedule_at(100.0, submit)
        sim.run(2)
        assert sim.switch.queued_requests == 0


class TestAddressCollisions:
    """``v1`` and ``v48`` share the default address ``10.0.0.129``."""

    def test_request_to_an_on_host_wakes_no_other_host(self):
        h_idle, h_busy = Host("h0", CAP), Host("h1", CAP)
        dc = DataCenter([h_idle, h_busy])
        busy = ActivityTrace("busy", np.full(72, 0.5))
        # Two VMs fill each host, so consolidation moves nothing.
        for name, host, trace in (("v1", h_idle, always_idle_trace(72)),
                                  ("v2", h_idle, always_idle_trace(72)),
                                  ("v48", h_busy, busy),
                                  ("v49", h_busy, busy)):
            dc.place(VM(name, trace, FLAVOR, interactive=False), host)
        sim = EventDrivenSimulation(dc, NeatController(dc),
                                    config=EventConfig(seed=3))
        sim.sim.schedule_at(1800.0, sim.switch.submit_request, "v48",
                            1800.0, 0.05)
        sim.run(1)
        assert [vm.name for vm in h_idle.vms] == ["v1", "v2"]
        assert h_idle.state is PowerState.SUSPENDED
        assert h_idle.resume_count == 0
        assert sim.waking.active.wol_sent == 0
        [req] = sim.switch.log.requests
        assert req.vm_name == "v48" and not req.woke_host
        dc.check_invariants()
