"""Cross-module integration and property tests.

These exercise whole pipelines and assert global invariants: energy
conservation bounds, meter/clock consistency, placement invariants under
every controller, and equivalence relations between the two simulators.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import (
    DataCenter,
    Host,
    HostCapacity,
    PowerState,
    ResourceSpec,
    VM,
)
from repro.consolidation import DrowsyController, NeatController, OasisController
from repro.core.params import DEFAULT_PARAMS
from repro.sim.event_driven import EventConfig, EventDrivenSimulation
from repro.sim.hourly import HourlyConfig, HourlySimulator
from repro.traces.base import ActivityTrace
from repro.traces.synthetic import weekly_pattern_trace

CAP = HostCapacity(cpus=8, memory_mb=16384, cpu_overcommit=1.0)
FLAVOR = ResourceSpec(cpus=2, memory_mb=6144)


def random_dc(seed, n_hosts=3, vms_per_host=2, days=3):
    rng = np.random.default_rng(seed)
    hosts = [Host(f"h{i}", CAP) for i in range(n_hosts)]
    dc = DataCenter(hosts)
    k = 0
    for host in hosts:
        for _ in range(vms_per_host):
            start = int(rng.integers(0, 20))
            span = int(rng.integers(1, 5))
            schedule = {d: tuple(range(start, min(start + span, 24)))
                        for d in range(7) if rng.random() < 0.8}
            schedule = schedule or {0: (9,)}
            trace = weekly_pattern_trace(f"w{k}", schedule, weeks=1,
                                         level=float(rng.uniform(0.1, 0.5)))
            dc.place(VM(f"vm{k}", trace, FLAVOR), host)
            k += 1
    return dc


class TestEnergyInvariants:
    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_energy_between_physical_bounds(self, seed):
        """Total energy lies between all-S3 and all-max-power bounds."""
        dc = random_dc(seed)
        sim = HourlySimulator(dc, NeatController(dc),
                              config=HourlyConfig(power_off_empty=False))
        hours = 48
        result = sim.run(hours)
        n = len(dc.hosts)
        lower = n * hours * DEFAULT_PARAMS.suspend_power_w / 1000.0
        upper = n * hours * DEFAULT_PARAMS.max_power_w / 1000.0
        assert lower <= result.total_energy_kwh <= upper

    @settings(max_examples=8, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_meters_cover_exact_duration(self, seed):
        dc = random_dc(seed)
        sim = HourlySimulator(dc, NeatController(dc),
                              config=HourlyConfig(power_off_empty=False))
        sim.run(30)
        for host in dc.hosts:
            assert host.meter.total_seconds == pytest.approx(30 * 3600.0)

    @settings(max_examples=6, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_suspended_fraction_bounded_by_idle_fraction(self, seed):
        """A host cannot sleep more than its VMs are jointly idle."""
        dc = random_dc(seed, n_hosts=2)
        # Record joint idleness per host up front (placement is static
        # with the passive controller below).
        hours = 48
        joint_idle = {}
        for host in dc.hosts:
            idle = np.ones(hours, dtype=bool)
            for vm in host.vms:
                idle &= np.array([vm.activity_at(t) == 0.0 for t in range(hours)])
            joint_idle[host.name] = float(idle.mean())

        class Passive:
            name = "passive"
            uses_idleness = False

            def observe_hour(self, t):
                pass

            def step(self, t, now, executor=None):
                return 0

        sim = HourlySimulator(dc, Passive(),
                              config=HourlyConfig(power_off_empty=False))
        result = sim.run(hours)
        for host in dc.hosts:
            assert (result.suspended_fraction_by_host[host.name]
                    <= joint_idle[host.name] + 1e-9)


class TestControllerInvariants:
    @pytest.mark.parametrize("make_controller", [
        lambda dc: NeatController(dc),
        lambda dc: DrowsyController(dc),
        lambda dc: OasisController(dc, n_consolidation_hosts=1),
    ])
    def test_placement_invariants_hold_throughout(self, make_controller):
        dc = random_dc(7, n_hosts=3)
        sim = HourlySimulator(
            dc, make_controller(dc),
            config=HourlyConfig(power_off_empty=False),
            hour_hooks=(lambda t, now: dc.check_invariants(),))
        sim.run(48)
        dc.check_invariants()

    def test_drowsy_relocate_mode_invariants(self):
        dc = random_dc(11, n_hosts=3)
        sim = HourlySimulator(
            dc, DrowsyController(dc),
            config=HourlyConfig(relocate_all_mode=True, power_off_empty=False),
            hour_hooks=(lambda t, now: dc.check_invariants(),))
        sim.run(48)


class TestSimulatorAgreement:
    def test_event_and_hourly_agree_on_energy_scale(self):
        """Same scenario on both drivers: energy within 10 %.

        (They cannot match exactly: the event driver wakes hosts on
        request arrival and charges per-second transitions.)
        """
        def build():
            host = Host("h0", CAP)
            dc = DataCenter([host])
            trace = weekly_pattern_trace(
                "w", {d: (9, 10, 11) for d in range(7)}, weeks=1, level=0.4)
            dc.place(VM("v", trace, FLAVOR), host)
            return dc

        dc1 = build()
        hourly = HourlySimulator(dc1, NeatController(dc1),
                                 config=HourlyConfig(power_off_empty=False)).run(48)
        dc2 = build()
        event = EventDrivenSimulation(
            dc2, NeatController(dc2),
            config=EventConfig(seed=4)).run(48)
        assert event.total_energy_kwh == pytest.approx(
            hourly.total_energy_kwh, rel=0.10)

    def test_suspension_fractions_agree(self):
        def build():
            host = Host("h0", CAP)
            dc = DataCenter([host])
            trace = weekly_pattern_trace(
                "w", {d: (9,) for d in range(7)}, weeks=1, level=0.4)
            dc.place(VM("v", trace, FLAVOR), host)
            return dc

        dc1 = build()
        hourly = HourlySimulator(dc1, NeatController(dc1),
                                 config=HourlyConfig(power_off_empty=False)).run(48)
        dc2 = build()
        event = EventDrivenSimulation(
            dc2, NeatController(dc2), config=EventConfig(seed=4)).run(48)
        assert event.suspended_fraction_by_host["h0"] == pytest.approx(
            hourly.suspended_fraction_by_host["h0"], abs=0.05)


class TestEventSimRaces:
    def test_wake_during_suspending_transition(self):
        """A WoL landing mid-S0->S3 resumes the host right after."""
        host = Host("h0", CAP)
        dc = DataCenter([host])
        trace = ActivityTrace("t", np.zeros(48))
        vm = VM("v", trace, FLAVOR, ip_address="10.9.0.1")
        dc.place(vm, host)
        sim = EventDrivenSimulation(dc, NeatController(dc),
                                    config=EventConfig(seed=1))
        # Let the suspend begin (first check at ~5 s), then fire a
        # request exactly inside the SUSPENDING window.
        def fire_request():
            assert host.state is PowerState.SUSPENDING
            sim.switch.submit_request("v", sim.sim.now, 0.01)

        sim.sim.schedule_at(DEFAULT_PARAMS.suspend_check_period_s + 1.0,
                            fire_request)
        sim.run(1)
        # The request completed despite the race.
        assert len(sim.switch.log.requests) == 1
        assert sim.switch.log.requests[0].completed
        assert host.resume_count >= 1

    def test_migration_wakes_suspended_endpoints(self):
        hosts = [Host("a", CAP), Host("b", CAP)]
        dc = DataCenter(hosts)
        vm = VM("v", ActivityTrace("t", np.zeros(48)), FLAVOR)
        dc.place(vm, hosts[0])
        sim = EventDrivenSimulation(dc, NeatController(dc),
                                    config=EventConfig(seed=1))
        observed = {}

        def migrate_now():
            src = dc.host_of(vm)
            dest = hosts[1] if src is hosts[0] else hosts[0]
            observed["state_before"] = src.state
            observed["dest"] = dest.name
            sim._execute_migration(vm, dest)

        sim.sim.schedule_at(30.0, migrate_now)
        sim.run(1)
        assert observed["state_before"] is PowerState.SUSPENDED
        assert dc.host_of(vm).name == observed["dest"]
        dc.check_invariants()


class TestReportModule:
    def test_generate_report_quick(self):
        from repro.analysis.report import generate_report

        report = generate_report(days=2, years=1)
        assert report.checks
        assert report.all_hold, report.render()
        text = report.render()
        assert "reproduction report" in text
        assert f"{len(report.checks)}/{len(report.checks)} claims hold" in text
