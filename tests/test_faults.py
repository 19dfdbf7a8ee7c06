"""Fault-injection subsystem (DESIGN.md §14).

Covers the chaos engine's three contracts:

* **parity** — an all-zero :class:`FaultPlan` installs nothing, so its
  run is bit-identical (``RunResult ==``, events processed and all) to a
  fault-free run, on both backends;
* **determinism** — a fixed ``(plan, seed)`` replays the exact fault
  sequence across repeated runs and across ``SweepRunner`` spawn
  workers;
* **resilience** — lossy WoL strands nothing (retry/backoff), the
  waking-module primary can die mid-run without losing wakes, and the
  hypothesis fuzz asserts structural invariants under random plans.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Simulation
from repro.cluster.events import EventSimulator
from repro.cluster.power import PowerState
from repro.core.params import DEFAULT_PARAMS
from repro.experiments.common import build_fleet
from repro.faults import (
    FaultInjector,
    FaultPlan,
    HostCrashFaults,
    PartitionWindow,
    TransitionFaults,
    WakingServiceFaults,
    WolFaults,
)
from repro.network.sdn import ReliableWolChannel
from repro.waking.packets import WoLPacket

ZERO_PLAN = FaultPlan(name="nothing")

LOSSY_PLAN = FaultPlan(name="lossy",
                       wol=WolFaults(loss_probability=0.2,
                                     delay_probability=0.1))


def _sim(backend="event", faults=None, seed=3, n_hosts=4, n_vms=12,
         hours=48):
    dc = build_fleet(n_hosts=n_hosts, n_vms=n_vms, llmi_fraction=0.5,
                     hours=hours, seed=seed)
    return Simulation(dc, "drowsy", backend, seed=seed, faults=faults)


# ----------------------------------------------------------------------
# plan validation
# ----------------------------------------------------------------------

class TestPlanSpec:
    def test_default_plan_is_zero(self):
        assert ZERO_PLAN.is_zero
        assert not LOSSY_PLAN.is_zero

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            WolFaults(loss_probability=1.5)
        with pytest.raises(ValueError):
            TransitionFaults(resume_failure_probability=-0.1)
        with pytest.raises(ValueError):
            HostCrashFaults(rate_per_host_per_h=-1.0)

    def test_overlapping_partitions_rejected(self):
        with pytest.raises(ValueError):
            WakingServiceFaults(partitions=(
                PartitionWindow(start_h=1.0, duration_h=3.0),
                PartitionWindow(start_h=2.0, duration_h=1.0)))

    def test_zero_crash_budget_is_zero(self):
        assert HostCrashFaults(rate_per_host_per_h=0.5, max_crashes=0).is_zero


# ----------------------------------------------------------------------
# the parity oracle: zero plans are invisible
# ----------------------------------------------------------------------

class TestZeroPlanParity:
    @pytest.mark.parametrize("backend", ["hourly", "event"])
    def test_zero_plan_bit_identical(self, backend):
        plain = _sim(backend).run(24)
        chaos = _sim(backend, faults=ZERO_PLAN).run(24)
        assert chaos == plain  # includes events_processed on event
        assert chaos.fault_summary is None

    def test_zero_plan_draws_nothing(self):
        injector = FaultInjector(ZERO_PLAN, seed=3)
        sim = _sim("event", faults=injector)
        sim.run(12)
        assert injector._streams == {}


# ----------------------------------------------------------------------
# determinism: replay and sharding
# ----------------------------------------------------------------------

class TestDeterminism:
    def test_fixed_seed_replays_fault_sequence(self):
        plan = FaultPlan(
            name="mix",
            wol=WolFaults(loss_probability=0.3),
            crashes=HostCrashFaults(rate_per_host_per_h=0.02,
                                    recover_after_s=900.0),
            transitions=TransitionFaults(resume_failure_probability=0.05))
        first = _sim("event", faults=plan).run(48)
        second = _sim("event", faults=plan).run(48)
        assert first.fault_summary == second.fault_summary
        assert first.fault_summary.faults_injected > 0
        assert first == second

    def test_seed_changes_fault_sequence(self):
        plan = FaultPlan(name="crashy",
                         crashes=HostCrashFaults(rate_per_host_per_h=0.05))
        runs = {_sim("event", faults=plan, seed=s).run(48).fault_summary
                for s in (1, 2, 3)}
        assert len(runs) > 1  # host-name-keyed Poisson streams move

    def test_crash_schedule_invariant_to_fleet_order(self):
        dc = build_fleet(n_hosts=4, n_vms=8, llmi_fraction=0.5,
                         hours=24, seed=0)
        plan = FaultPlan(name="crashy",
                         crashes=HostCrashFaults(rate_per_host_per_h=0.1,
                                                 max_crashes=100))
        injector = FaultInjector(plan, seed=9)
        forward = injector._crash_schedule(dc.hosts, 0, 24)
        backward = injector._crash_schedule(list(reversed(dc.hosts)), 0, 24)
        assert forward == backward

    def test_chaos_scenario_shards_byte_identically(self):
        from repro.scenarios.sweep import ScenarioCell, run_scenario_sweep

        cells = [ScenarioCell("flash-crowd-lossy-wol", simulator="event",
                              seed=s, hours=8, scale=0.25) for s in (0, 1)]
        serial = run_scenario_sweep(cells, workers=1)
        sharded = run_scenario_sweep(cells, workers=2)
        assert serial.rows == sharded.rows
        assert any(row.faults_injected > 0 for row in serial.rows)


# ----------------------------------------------------------------------
# resilience claims
# ----------------------------------------------------------------------

class TestResilience:
    def test_lossy_wol_strands_no_request(self):
        # The chaos scenario's flash crowds hammer drowsy hosts, so the
        # 20 %-loss wire actually drops magic packets here: 5 over three
        # days (a single day drops none).
        sim = Simulation.from_scenario("flash-crowd-lossy-wol", seed=7,
                                       backend="event", hours=72, scale=0.5)
        result = sim.run()
        summary = result.fault_summary
        assert summary.wol_dropped > 0
        assert summary.wol_retries > 0
        assert summary.backoff_wait_s > 0.0
        assert summary.stranded_requests == 0
        assert result.request_summary["requests"] > 0

    def test_primary_kill_fails_over_without_lost_wakes(self):
        plan = FaultPlan(name="kill",
                         waking=WakingServiceFaults(kill_primary_at_h=12.0))
        sim = _sim("event", faults=plan)
        result = sim.run(48)
        summary = result.fault_summary
        assert summary.primary_kills == 1
        assert summary.failovers >= 1
        assert summary.lost_service_calls == 0
        assert summary.stranded_requests == 0
        assert sim.engine.waking.active is sim.engine.waking.mirror

    def test_partition_window_served_by_switch_fallback(self):
        plan = FaultPlan(
            name="split",
            waking=WakingServiceFaults(partitions=(
                PartitionWindow(start_h=6.0, duration_h=4.0),)))
        sim = _sim("event", faults=plan)
        result = sim.run(24)
        assert result.fault_summary.partitions == 1
        assert result.fault_summary.stranded_requests == 0
        # The partition healed: the switch sees the service again.
        assert sim.engine.switch.waking_service is sim.engine.waking

    @pytest.mark.parametrize("backend", ["hourly", "event"])
    def test_crashes_charge_unavailability(self, backend):
        plan = FaultPlan(name="crashy",
                         crashes=HostCrashFaults(rate_per_host_per_h=0.02,
                                                 recover_after_s=1800.0))
        sim = _sim(backend, faults=plan)
        result = sim.run(72)
        summary = result.fault_summary
        assert summary.host_crashes > 0
        assert summary.unavailability_s > 0.0
        assert summary.host_recoveries <= summary.host_crashes
        sim.dc.check_invariants()

    def test_resume_failure_fails_over_by_migration(self):
        import dataclasses

        from repro.scenarios import get_scenario

        plan = FaultPlan(
            name="bad-resume",
            transitions=TransitionFaults(resume_failure_probability=1.0,
                                         recover_after_s=600.0))
        # The flash-crowd workload actually wakes hosts, so failed
        # resumes occur; swap the chaos plan into the frozen spec.
        spec = dataclasses.replace(get_scenario("flash-crowd"), faults=plan)
        sim = Simulation.from_scenario(spec, seed=7, backend="event",
                                       hours=24, scale=0.5)
        result = sim.run()
        summary = result.fault_summary
        assert summary.resume_failures > 0
        # Every resume failure either migrated the VMs off or stranded
        # them on the crashed host until its reboot.
        assert summary.failover_migrations + summary.stranded_vms > 0
        sim.dc.check_invariants()


# ----------------------------------------------------------------------
# ReliableWolChannel unit coverage (token-tombstone cancellation)
# ----------------------------------------------------------------------

class Delivered:
    def __init__(self):
        self.packets = []

    def __call__(self, packet, now):
        self.packets.append((packet, now))


class ScriptedTransport:
    """Replays a fixed verdict list, then delivers everything."""

    def __init__(self, *verdicts):
        self.verdicts = list(verdicts)

    def __call__(self, packet):
        return self.verdicts.pop(0) if self.verdicts else ("ok", 0.0)


def make_channel(*verdicts, wake_satisfied=None):
    sim = EventSimulator()
    delivered = Delivered()
    channel = ReliableWolChannel(sim, delivered, DEFAULT_PARAMS,
                                 wake_satisfied)
    if verdicts or wake_satisfied is not None:
        channel.transport = ScriptedTransport(*verdicts)
    return sim, delivered, channel


PACKET = WoLPacket("00:16:3e:00:00:01", reason="test")


class TestReliableWolChannel:
    def test_fault_free_path_is_synchronous(self):
        sim, delivered, channel = make_channel()
        channel.send(PACKET, 0.0)
        assert delivered.packets == [(PACKET, 0.0)]
        assert channel._generation == {}  # no timer ever armed
        assert sim.events_processed == 0

    def test_drop_retries_with_backoff(self):
        sim, delivered, channel = make_channel(("drop", 0.0), ("drop", 0.0))
        channel.send(PACKET, 0.0)
        sim.run()
        assert len(delivered.packets) == 1
        # Third attempt delivered after 1 s + 2 s of backoff.
        assert delivered.packets[0][1] == pytest.approx(3.0)
        assert channel.dropped == 2
        assert channel.retries == 2
        assert channel.backoff_wait_s == pytest.approx(3.0)

    def test_abandon_after_retry_budget(self):
        drops = [("drop", 0.0)] * (DEFAULT_PARAMS.wol_retry_max + 1)
        sim, delivered, channel = make_channel(*drops)
        channel.send(PACKET, 0.0)
        sim.run()
        assert delivered.packets == []
        assert channel.abandoned == 1
        assert channel.retries == DEFAULT_PARAMS.wol_retry_max

    def test_settle_tombstones_pending_retry(self):
        sim, delivered, channel = make_channel(("drop", 0.0))
        channel.send(PACKET, 0.0)
        channel.settle(PACKET.mac_address)
        sim.run()
        assert delivered.packets == []
        assert channel.retries == 0

    def test_settle_tombstones_delayed_delivery(self):
        sim, delivered, channel = make_channel(("delay", 5.0))
        channel.send(PACKET, 0.0)
        channel.settle(PACKET.mac_address)
        sim.run()
        assert delivered.packets == []
        assert channel.delayed == 1

    def test_double_settle_is_idempotent(self):
        sim, delivered, channel = make_channel(("drop", 0.0))
        channel.send(PACKET, 0.0)
        channel.settle(PACKET.mac_address)
        channel.settle(PACKET.mac_address)
        channel.settle("00:16:3e:ff:ff:ff")  # never armed: no-op
        sim.run()
        assert delivered.packets == []
        # A fresh send after settling works with the new generation.
        channel.send(PACKET, sim.now)
        sim.run()
        assert len(delivered.packets) == 1

    def test_satisfied_wake_stops_retrying(self):
        sim, delivered, channel = make_channel(
            ("drop", 0.0), wake_satisfied=lambda mac: True)
        channel.send(PACKET, 0.0)
        sim.run()
        assert delivered.packets == []  # destination already awake
        assert channel.retries == 0

    def test_delay_lands_late(self):
        sim, delivered, channel = make_channel(("delay", 2.5))
        channel.send(PACKET, 0.0)
        sim.run()
        assert delivered.packets[0][1] == pytest.approx(2.5)
        assert channel.delayed == 1


# ----------------------------------------------------------------------
# crash_host cancel-safety (the suspend_sweep tombstone discipline)
# ----------------------------------------------------------------------

class TestCrashCancelSafety:
    def make_engine(self):
        from repro.consolidation.drowsy import DrowsyController
        from repro.sim.event_driven import EventDrivenSimulation

        dc = build_fleet(n_hosts=3, n_vms=6, llmi_fraction=0.5,
                         hours=24, seed=5)
        return EventDrivenSimulation(dc, DrowsyController(dc)), dc

    def test_finish_suspend_after_crash_is_noop(self):
        engine, dc = self.make_engine()
        host = dc.hosts[0]
        engine._begin_suspend(host, None)
        assert host.state is PowerState.SUSPENDING
        assert engine.crash_host(host)
        # The in-flight finish_suspend was cancelled; draining the queue
        # must not resurrect or illegally transition the host.
        engine.sim.run_until(60.0)
        assert host.state is PowerState.CRASHED

    def test_finish_resume_after_crash_is_noop(self):
        engine, dc = self.make_engine()
        host = dc.hosts[0]
        engine._begin_suspend(host, None)
        engine.sim.run_until(engine.params.suspend_latency_s + 1.0)
        assert host.state is PowerState.SUSPENDED
        engine._begin_resume(host)
        assert engine.crash_host(host)
        engine.sim.run_until(engine.sim.now + 60.0)
        assert host.state is PowerState.CRASHED

    def test_double_crash_rejected(self):
        engine, dc = self.make_engine()
        host = dc.hosts[0]
        assert engine.crash_host(host)
        assert not engine.crash_host(host)
        assert engine.host_crashes == 1

    def test_recovery_reboots_and_reschedules(self):
        engine, dc = self.make_engine()
        host = dc.hosts[0]
        assert engine.crash_host(host, recover_after_s=30.0)
        engine.sim.run_until(31.0)
        assert host.state is PowerState.ON
        assert engine.host_recoveries == 1

    def test_recovery_settles_crash_era_wol(self):
        # A WoL sent while the host was down (the switch-port fallback
        # for a request queued on it) is delayed past the recovery; the
        # host re-suspends meanwhile, and the late packet must not
        # resume it for nothing.
        from repro.consolidation.drowsy import DrowsyController
        from repro.sim.event_driven import EventConfig, EventDrivenSimulation

        dc = build_fleet(n_hosts=3, n_vms=6, llmi_fraction=0.5,
                         hours=24, seed=5)
        engine = EventDrivenSimulation(
            dc, DrowsyController(dc), config=EventConfig(suspend_enabled=False))
        engine.wol_channel.transport = lambda packet: ("delay", 60.0)
        host = dc.hosts[0]
        vm = host.vms[0]
        assert engine.crash_host(host, recover_after_s=10.0)
        engine.sim.schedule_at(5.0, engine.switch.submit_request,
                               vm.name, 5.0, 1.0)
        engine.sim.schedule_at(20.0, engine._begin_suspend, host, None)
        engine.sim.run_until(100.0)
        assert engine.wol_channel.delayed == 1  # landed at 65 s
        assert engine.host_recoveries == 1
        assert engine.switch.queued_requests == 0
        assert host.state is PowerState.SUSPENDED
        assert host.resume_count == 0

    def test_crashed_host_blocks_migrations(self):
        engine, dc = self.make_engine()
        src = dc.hosts[0]
        dest = dc.hosts[1]
        vm = src.vms[0]
        engine.crash_host(dest)
        engine._execute_migration(vm, dest)
        assert engine.migrations_blocked == 1
        assert dc.host_of(vm) is src


# ----------------------------------------------------------------------
# hypothesis chaos fuzz: invariants under random plans
# ----------------------------------------------------------------------

prob = st.floats(min_value=0.0, max_value=0.4, allow_nan=False)

plans = st.builds(
    FaultPlan,
    name=st.just("fuzz"),
    wol=st.builds(WolFaults, loss_probability=prob,
                  delay_probability=prob),
    crashes=st.builds(
        HostCrashFaults,
        rate_per_host_per_h=st.sampled_from((0.0, 0.01, 0.05)),
        recover_after_s=st.sampled_from((600.0, 1800.0)),
        max_crashes=st.integers(min_value=0, max_value=4)),
    transitions=st.builds(
        TransitionFaults,
        suspend_hang_probability=prob,
        resume_failure_probability=prob,
        recover_after_s=st.just(600.0)),
    waking=st.builds(
        WakingServiceFaults,
        kill_primary_at_h=st.sampled_from((None, 5.0, 13.0))),
)


class TestChaosFuzz:
    @given(plan=plans, seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_invariants_hold_under_random_plans(self, plan, seed):
        sim = _sim("event", faults=plan, seed=seed, n_hosts=3, n_vms=9,
                   hours=24)
        vm_names = {vm.name for vm in sim.dc.vms}
        hourly_checks = []

        def check(t, now):
            sim.dc.check_invariants()
            hourly_checks.append(t)

        sim.engine.hour_hooks += (check,)
        result = sim.run(24)  # terminates

        # No VM lost: crashes, evacuations and failovers preserve the
        # fleet population and a consistent placement.
        sim.dc.check_invariants()
        assert {vm.name for vm in sim.dc.vms} == vm_names
        assert len(hourly_checks) == 24

        # Request conservation: drain in-flight completions (no new
        # arrivals past the horizon), then every submitted request is
        # completed, still queued on the switch, or dropped by churn.
        engine = sim.engine
        engine.sim.run_until(engine.sim.now + 3600.0)
        switch = engine.switch
        assert switch.packets_forwarded == (
            len(switch.log.requests) + switch.queued_requests
            + switch.requests_dropped)
        if plan.is_zero:
            assert result.fault_summary is None
