"""Sharded distributed backend (DESIGN.md §15) and the serializable
spec/result API that rides with it.

The heart of the suite is the golden parity contract: a sharded run is
**byte-identical** to its inner backend for every shard and worker
count — same energy floats, same migration records, same latency
digests, same fault summaries.  Around it: the waking-plane guard
(cross-shard waking interactions raise ``ShardError`` instead of
silently diverging), the not-shardable rejections, scenario-spec JSON
round-trips, result persistence, and the registry describe/CLI list
surface.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import RunResult, ShardedConfig, Simulation, backends, controllers
from repro.api.observers import Observer
from repro.api.sharded.coordinator import ShardError
from repro.cluster.power import PowerState
from repro.cluster.vm import VM
from repro.experiments.common import FLEET_VM, build_fleet, production_trace
from repro.faults.spec import (
    FaultPlan,
    HostCrashFaults,
    TransitionFaults,
    WakingServiceFaults,
    WolFaults,
)
from repro.scenarios.registry import get_scenario, list_scenarios
from repro.scenarios.spec import ScenarioSpec
from repro.sim.event_driven import EventConfig
from repro.sim.hourly import HourlyConfig


def fleet(n_hosts=8, n_vms=24, hours=30, seed=3, unique_ips=True):
    """The parity fleet.  ``unique_ips`` widens the 250-address default
    IP space so no two VMs collide: collision-free fleets are provably
    inside the sharded backend's waking envelope (see the guard tests
    for what happens outside it)."""
    dc = build_fleet(n_hosts=n_hosts, n_vms=n_vms, llmi_fraction=0.5,
                     hours=hours, seed=seed)
    if unique_ips:
        for i, vm in enumerate(dc.vms):
            vm.ip_address = f"10.9.{i // 200}.{i % 200 + 1}"
    return dc


def plain_event(controller, seed, hours, **kw):
    # seed= is passed alongside the config so the fault injector (if
    # any) draws from the same stream family as the sharded run's.
    return Simulation(fleet(), controller, "event", seed=seed,
                      config=EventConfig(seed=seed,
                                         request_streams="per-vm"),
                      **kw).run(hours)


def sharded(controller, seed, hours, shards, workers=0, inner="event",
            **kw):
    return Simulation(fleet(), controller, "sharded", seed=seed,
                      backend_config=ShardedConfig(
                          shards=shards, workers=workers, inner=inner),
                      **kw).run(hours)


# ----------------------------------------------------------------------
# golden parity: sharded == inner backend, bit for bit
# ----------------------------------------------------------------------

class TestEventParity:
    @pytest.mark.parametrize("controller", ["drowsy", "neat"])
    @pytest.mark.parametrize("seed", [0, 9])
    def test_byte_identical_for_any_shard_count(self, controller, seed):
        hours = 12
        plain = plain_event(controller, seed, hours)
        for shards in (1, 4):
            s = sharded(controller, seed, hours, shards)
            assert s.backend == "sharded"
            assert dataclasses.replace(s, backend="event") == plain

    def test_shard_count_does_not_matter(self):
        a = sharded("drowsy", 2, 10, shards=2)
        b = sharded("drowsy", 2, 10, shards=5)
        assert dataclasses.replace(a, backend="x") == dataclasses.replace(
            b, backend="x")

    def test_process_workers_match_threads(self):
        # Real spawn workers: the wire format (pickled sub-fleets,
        # pipe frames) must not perturb a single float.
        threads = sharded("neat", 9, 8, shards=3, workers=0)
        procs = sharded("neat", 9, 8, shards=3, workers=2)
        assert threads == dataclasses.replace(procs)


class TestHourlyParity:
    @pytest.mark.parametrize("controller,shards",
                             [("drowsy", 4), ("neat", 3)])
    def test_byte_identical(self, controller, shards):
        hours = 24
        plain = Simulation(fleet(), controller, "hourly",
                           config=HourlyConfig()).run(hours)
        s = Simulation(fleet(), controller, "sharded",
                       backend_config=ShardedConfig(
                           shards=shards, inner="hourly")).run(hours)
        assert dataclasses.replace(s, backend="hourly") == plain


# ----------------------------------------------------------------------
# churn through the admin surface (scenario-style fleet surgery)
# ----------------------------------------------------------------------

class AdminChurn(Observer):
    """Deterministic churn exercising the full admin op vocabulary:
    arrivals (collision-free IPs), departures, maintenance drain with
    evacuation, power-off/power-on, force-awake and check
    reinstatement — the same calls a compiled scenario issues."""

    wants_sim_time = True  # churn feeds ``now`` into simulated state

    def on_run_start(self, sim, start_hour, n_hours):
        self.sim = sim
        self.extra = 0

    def on_hour(self, t, now):
        sim = self.sim
        dc = sim.dc
        hosts = sorted(dc.hosts, key=lambda h: h.name)
        if t % 6 == 2:
            for _ in range(2):
                name = f"extra-{self.extra:03d}"
                trace = production_trace(1 + self.extra % 3, days=3,
                                         seed=100 + self.extra)
                vm = VM(name, trace.with_name(name), FLEET_VM,
                        ip_address=f"10.8.0.{self.extra + 1}",
                        params=dc.params)
                self.extra += 1
                dest = next(h for h in hosts if h.can_host(vm))
                sim.place_vm(vm, dest)
                vm.current_activity = vm.activity_at(t)
            sim.rebind_fleet()
        if t % 8 == 5:
            victims = sorted(vm.name for vm in dc.vms
                             if vm.name.startswith("extra-"))[:1]
            for name in victims:
                vm, _ = dc.find_vm(name)
                dc.remove(vm, now)
                sim.note_vm_departed(name)
            if victims:
                sim.rebind_fleet()
        if t == 10:
            host = hosts[0]
            if host.state is not PowerState.ON:
                sim.force_awake(host, now)
            migrated, _ = sim.evacuate_host(host, now)
            for vm in migrated:
                dest = dc.host_of(vm)
                if dest.state is not PowerState.ON:
                    sim.force_awake(dest, now)
            if not host.vms and host.state is PowerState.ON:
                sim.power_off_host(host, now)
            sim.rebind_fleet()
        if t == 20:
            host = hosts[0]
            if host.state is PowerState.OFF:
                sim.power_on_host(host, now)
                sim.reinstate_check(host)
            sim.rebind_fleet()


class TestAdminChurnParity:
    def test_event_inner(self):
        hours = 24
        plain = plain_event("drowsy", 5, hours, observers=(AdminChurn(),))
        for shards in (1, 4):
            s = sharded("drowsy", 5, hours, shards,
                        observers=(AdminChurn(),))
            assert dataclasses.replace(s, backend="event") == plain

    def test_hourly_inner(self):
        hours = 24
        plain = Simulation(fleet(), "drowsy", "hourly",
                           config=HourlyConfig(),
                           observers=(AdminChurn(),)).run(hours)
        s = Simulation(fleet(), "drowsy", "sharded",
                       backend_config=ShardedConfig(shards=3,
                                                    inner="hourly"),
                       observers=(AdminChurn(),)).run(hours)
        assert dataclasses.replace(s, backend="hourly") == plain


# ----------------------------------------------------------------------
# fault plans (the shardable ones) ride along bit-identically
# ----------------------------------------------------------------------

CRASH_PLAN = FaultPlan(name="crashes", crashes=HostCrashFaults(
    rate_per_host_per_h=0.02, recover_after_s=1800.0, max_crashes=4))
LOSSY_PLAN = FaultPlan(name="lossy", wol=WolFaults(
    loss_probability=0.2, delay_probability=0.1, mean_delay_s=0.5))


class TestFaultParity:
    @pytest.mark.parametrize("plan", [CRASH_PLAN, LOSSY_PLAN],
                             ids=lambda p: p.name)
    def test_chaos_plans_byte_identical(self, plan):
        hours = 18
        plain = plain_event("drowsy", 5, hours, faults=plan)
        s = sharded("drowsy", 5, hours, shards=4, faults=plan)
        assert dataclasses.replace(s, backend="event") == plain
        assert s.fault_summary == plain.fault_summary
        assert s.fault_summary is not None


# ----------------------------------------------------------------------
# the waking-plane guard: refuse loudly, never diverge silently
# ----------------------------------------------------------------------

class TestWakingGuard:
    def _run(self):
        run = Simulation.from_scenario("dev-churn", seed=1,
                                       controller="drowsy",
                                       backend="sharded", shards=4,
                                       hours=24)
        return run.run()

    def test_cross_shard_waking_raises_shard_error(self):
        with pytest.raises(ShardError, match="cross-shard waking"):
            self._run()

    def test_refusal_is_deterministic(self):
        messages = []
        for _ in range(2):
            with pytest.raises(ShardError) as exc:
                self._run()
            messages.append(str(exc.value))
        assert messages[0] == messages[1]

    def test_shards_one_is_always_inside_the_envelope(self):
        # One shard == one waking plane: even colliding-IP churn runs
        # must succeed and match the plain event backend.
        plain = Simulation.from_scenario(
            "dev-churn", seed=1, controller="drowsy", backend="event",
            hours=24).run()
        single = Simulation.from_scenario(
            "dev-churn", seed=1, controller="drowsy", backend="sharded",
            shards=1, hours=24).run()
        assert dataclasses.replace(single, backend="event") == plain


# ----------------------------------------------------------------------
# not-shardable configurations are rejected before any shard runs
# ----------------------------------------------------------------------

class TestRejections:
    def small(self):
        return fleet(n_hosts=4, n_vms=8, hours=10, seed=1)

    def test_waking_faults(self):
        plan = FaultPlan(name="w", waking=WakingServiceFaults(
            kill_primary_at_h=1.0))
        with pytest.raises(ValueError, match="waking-service faults"):
            Simulation(self.small(), "drowsy", "sharded", seed=1,
                       backend_config=ShardedConfig(shards=2),
                       faults=plan).run(2)

    def test_resume_failures(self):
        plan = FaultPlan(name="r", transitions=TransitionFaults(
            resume_failure_probability=0.1))
        with pytest.raises(ValueError, match="resume failures"):
            Simulation(self.small(), "drowsy", "sharded", seed=1,
                       backend_config=ShardedConfig(shards=2),
                       faults=plan).run(2)

    def test_shared_request_streams(self):
        with pytest.raises(ValueError, match="per-vm"):
            Simulation(self.small(), "drowsy", "sharded",
                       backend_config=ShardedConfig(
                           shards=2,
                           inner_config=EventConfig(
                               seed=1, request_streams="shared"))).run(2)

    def test_per_host_sleep_veto_on_hourly_inner(self):
        with pytest.raises(ValueError, match="vetoes sleep"):
            Simulation(self.small(), "oasis", "sharded",
                       backend_config=ShardedConfig(
                           shards=2, inner="hourly")).run(2)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="shards"):
            ShardedConfig(shards=0)
        with pytest.raises(ValueError, match="inner engine"):
            ShardedConfig(inner="analytic")


@pytest.mark.parametrize("inner", ["hourly", "event"])
def test_replica_is_fleet_bound_for_both_inners(inner):
    """The coordinator's replica runs on the columnar fleet binding
    whatever the inner engine — never silently on the scalar path."""
    sim = Simulation(fleet(n_hosts=4, n_vms=8, hours=10, seed=1), "drowsy",
                     "sharded", seed=1,
                     backend_config=ShardedConfig(shards=2, inner=inner))
    sim.run(2)
    binding = sim.engine._binding
    assert binding is not None
    assert binding.covers(sim.dc.vms)


# ----------------------------------------------------------------------
# property fuzz: parity over arbitrary shard counts
# ----------------------------------------------------------------------

class TestShardCountFuzz:
    _plain_cache: dict = {}

    @classmethod
    def _plain(cls, controller, seed):
        key = (controller, seed)
        if key not in cls._plain_cache:
            dc = build_fleet(n_hosts=6, n_vms=12, llmi_fraction=0.5,
                             hours=8, seed=11)
            cls._plain_cache[key] = Simulation(
                dc, controller, "event",
                config=EventConfig(seed=seed,
                                   request_streams="per-vm")).run(6)
        return cls._plain_cache[key]

    @settings(max_examples=8, deadline=None)
    @given(shards=st.integers(min_value=1, max_value=8),
           controller=st.sampled_from(["drowsy", "neat"]),
           seed=st.integers(min_value=0, max_value=2))
    def test_parity_over_shard_counts(self, shards, controller, seed):
        dc = build_fleet(n_hosts=6, n_vms=12, llmi_fraction=0.5,
                         hours=8, seed=11)
        s = Simulation(dc, controller, "sharded", seed=seed,
                       backend_config=ShardedConfig(shards=shards)).run(6)
        assert dataclasses.replace(s, backend="event") == self._plain(
            controller, seed)


# ----------------------------------------------------------------------
# serializable specs: ScenarioSpec <-> JSON
# ----------------------------------------------------------------------

class TestScenarioSpecJSON:
    def test_all_builtins_round_trip(self):
        specs = list_scenarios()
        assert len(specs) >= 11
        for spec in specs:
            text = spec.to_json()
            back = ScenarioSpec.from_json(text)
            assert back == spec, spec.name

    def test_json_is_plain_data(self):
        payload = json.loads(get_scenario("dev-churn").to_json())
        assert payload["name"] == "dev-churn"
        assert isinstance(payload["vms"], list)

    def test_fault_plan_survives(self):
        spec = get_scenario("failover-drill")
        back = ScenarioSpec.from_json(spec.to_json())
        assert back.faults == spec.faults
        assert back.faults.waking.kill_primary_at_h == 30.0

    def test_round_tripped_spec_compiles_identically(self):
        spec = ScenarioSpec.from_json(get_scenario("steady-llmu").to_json())
        a = Simulation.from_scenario(spec, seed=0, backend="hourly",
                                     hours=6).run()
        b = Simulation.from_scenario("steady-llmu", seed=0,
                                     backend="hourly", hours=6).run()
        assert a == b


# ----------------------------------------------------------------------
# serializable results: RunResult.save()/load()
# ----------------------------------------------------------------------

class TestResultPersistence:
    @pytest.fixture(scope="class")
    def result(self):
        return plain_event("drowsy", 5, 8)

    @pytest.mark.parametrize("suffix", ["csv", "db"])
    def test_round_trip(self, result, suffix, tmp_path):
        path = tmp_path / f"run.{suffix}"
        result.save(path)
        assert RunResult.load(path) == result

    def test_parquet_round_trip(self, result, tmp_path):
        pytest.importorskip("pyarrow")
        path = tmp_path / "run.parquet"
        result.save(path)
        assert RunResult.load(path) == result

    def test_fault_summary_round_trips(self, tmp_path):
        res = plain_event("drowsy", 5, 8, faults=CRASH_PLAN)
        assert res.fault_summary is not None
        path = tmp_path / "run.csv"
        res.save(path)
        back = RunResult.load(path)
        assert back.fault_summary == res.fault_summary
        assert back == res

    def test_sharded_result_round_trips(self, tmp_path):
        res = sharded("drowsy", 5, 8, shards=3)
        path = tmp_path / "run.db"
        res.save(path)
        assert RunResult.load(path) == res


# ----------------------------------------------------------------------
# registry describe + CLI list
# ----------------------------------------------------------------------

class TestDescribeAndList:
    def test_registry_describe(self):
        desc = backends.describe()
        assert set(desc) >= {"hourly", "event", "sharded"}
        assert all(isinstance(v, str) and v for v in desc.values())
        assert set(controllers.describe()) >= {"drowsy", "neat"}

    @pytest.mark.parametrize("kind,expect", [
        ("controllers", "drowsy"),
        ("backends", "sharded"),
        ("scenarios", "dev-churn"),
    ])
    def test_cli_list(self, kind, expect, capsys):
        from repro.cli import main

        assert main(["list", kind]) == 0
        assert expect in capsys.readouterr().out
