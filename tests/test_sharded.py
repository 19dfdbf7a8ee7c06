"""Sharded distributed backend (DESIGN.md §15) and the serializable
spec/result API that rides with it.

The heart of the suite is the golden parity contract: a sharded run is
**byte-identical** to the plain ``hourly`` backend for every shard and
worker count — same energy floats, same migration records, same fault
summaries.  Around it: the not-shardable rejections and the config
surface, scenario-spec JSON round-trips, result persistence, and the
registry describe/CLI list surface.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.api import RunResult, ShardedConfig, Simulation, backends, controllers
from repro.api.observers import Observer
from repro.cluster.power import PowerState
from repro.cluster.vm import VM
from repro.experiments.common import FLEET_VM, build_fleet
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
from repro.traces.production import production_trace


def fleet(n_hosts=8, n_vms=24, hours=30, seed=3):
    """The parity fleet (stock ``build_fleet`` addresses)."""
    return build_fleet(n_hosts=n_hosts, n_vms=n_vms, llmi_fraction=0.5,
                       hours=hours, seed=seed)


def plain_hourly(controller, hours, **kw):
    return Simulation(fleet(), controller, "hourly", **kw).run(hours)


def sharded(controller, hours, shards, workers=0, **kw):
    return Simulation(fleet(), controller, "sharded",
                      config=ShardedConfig(shards=shards, workers=workers),
                      **kw).run(hours)


def as_hourly(result):
    return dataclasses.replace(result, backend="hourly")


def plain_event(controller, seed, hours, **kw):
    # An event result (request summary, fault summary) for the
    # persistence round-trips.
    return Simulation(fleet(), controller, "event", seed=seed,
                      config=EventConfig(seed=seed,
                                         request_streams="per-vm"),
                      **kw).run(hours)


# ----------------------------------------------------------------------
# golden parity: sharded == plain hourly, bit for bit
# ----------------------------------------------------------------------

class TestHourlyParity:
    @pytest.mark.parametrize("controller,shards",
                             [("drowsy", 4), ("neat", 3)])
    def test_byte_identical(self, controller, shards):
        hours = 24
        plain = Simulation(fleet(), controller, "hourly",
                           config=HourlyConfig()).run(hours)
        s = Simulation(fleet(), controller, "sharded",
                       config=ShardedConfig(
                           shards=shards, inner="hourly")).run(hours)
        assert as_hourly(s) == plain

    @pytest.mark.parametrize("controller", ["drowsy", "neat"])
    def test_byte_identical_for_any_shard_count(self, controller):
        hours = 24
        plain = plain_hourly(controller, hours)
        for shards in (1, 2, 3, 4):
            s = sharded(controller, hours, shards)
            assert s.backend == "sharded"
            assert as_hourly(s) == plain, shards

    def test_relocate_all_mode(self):
        # Drowsy's periodic full relocation reaches the shards as "bulk"
        # blocks (swap-safe detach-then-attach, cross-shard bundles).
        config = HourlyConfig(relocate_all_mode=True)
        plain = plain_hourly("drowsy", 24, config=config)
        assert plain.migrations > 0
        for shards in (2, 4):
            s = Simulation(fleet(), "drowsy", "sharded",
                           config=ShardedConfig(shards=shards,
                                                inner_config=config)
                           ).run(24)
            assert as_hourly(s) == plain, shards

    def test_process_workers_match_threads(self):
        # Real spawn workers: the wire format (pickled sub-fleets,
        # pipe frames) must not perturb a single float.
        plain = plain_hourly("neat", 12)
        for shards in (2, 4):
            threads = sharded("neat", 12, shards=shards, workers=0)
            procs = sharded("neat", 12, shards=shards, workers=2)
            assert threads == procs
            assert as_hourly(procs) == plain


# ----------------------------------------------------------------------
# churn through the admin surface (scenario-style fleet surgery)
# ----------------------------------------------------------------------

class AdminChurn(Observer):
    """Deterministic churn exercising the full admin op vocabulary:
    arrivals, departures, maintenance drain with evacuation,
    power-off/power-on, force-awake and check reinstatement — the same
    calls compiled scenario churn makes."""

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
    def test_hourly_inner(self):
        hours = 24
        plain = plain_hourly("drowsy", hours, observers=(AdminChurn(),))
        for shards in (1, 3):
            s = sharded("drowsy", hours, shards, observers=(AdminChurn(),))
            assert as_hourly(s) == plain, shards


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
        # The WoL-only plan is inert on hourly engines: the sharded run
        # must accept it and report the same (empty) degradation.
        hours = 18
        plain = plain_hourly("drowsy", hours, seed=5, faults=plan)
        s = sharded("drowsy", hours, shards=4, seed=5, faults=plan)
        assert as_hourly(s) == plain
        assert s.fault_summary == plain.fault_summary
        assert s.fault_summary is not None
        if plan is CRASH_PLAN:
            assert s.fault_summary.host_crashes > 0


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
                       config=ShardedConfig(shards=2),
                       faults=plan).run(2)

    def test_resume_failures(self):
        plan = FaultPlan(name="r", transitions=TransitionFaults(
            resume_failure_probability=0.1))
        with pytest.raises(ValueError, match="resume failures"):
            Simulation(self.small(), "drowsy", "sharded", seed=1,
                       config=ShardedConfig(shards=2),
                       faults=plan).run(2)

    def test_per_host_sleep_veto_on_hourly_inner(self):
        with pytest.raises(ValueError, match="vetoes sleep"):
            Simulation(self.small(), "oasis", "sharded",
                       config=ShardedConfig(
                           shards=2, inner="hourly")).run(2)

    def test_config_validation(self, capsys):
        from repro.cli import main

        with pytest.raises(ValueError, match="shards"):
            ShardedConfig(shards=0)
        # The shards run the hourly engine only; request-level runs are
        # pointed at the event backend.
        assert ShardedConfig().inner == "hourly"
        for bad in ("event", "analytic"):
            with pytest.raises(ValueError, match='backend="event"'):
                ShardedConfig(inner=bad)
        with pytest.raises(ValueError, match='backend="event"'):
            ShardedConfig(inner_config=EventConfig())
        ShardedConfig(inner_config=HourlyConfig())  # accepted
        # No scenario-level sharded simulator: the CLI refuses it at
        # parse time, the façade has no shard geometry to pass.
        with pytest.raises(SystemExit) as exc:
            main(["scenario", "run", "dev-churn", "--simulator", "sharded"])
        assert exc.value.code == 2
        assert "invalid choice: 'sharded'" in capsys.readouterr().err
        with pytest.raises(TypeError, match="shards"):
            Simulation.from_scenario("dev-churn", seed=1, shards=2)


@pytest.mark.parametrize("inner", ["hourly"])
def test_replica_is_fleet_bound_for_both_inners(inner):
    """The coordinator's replica runs on the columnar fleet binding —
    never silently on the scalar path."""
    sim = Simulation(fleet(n_hosts=4, n_vms=8, hours=10, seed=1), "drowsy",
                     "sharded", seed=1,
                     config=ShardedConfig(shards=2, inner=inner))
    sim.run(2)
    binding = sim.engine._binding
    assert binding is not None
    assert binding.covers(sim.dc.vms)


# ----------------------------------------------------------------------
# property fuzz: parity over arbitrary shard counts
# ----------------------------------------------------------------------

class TestShardCountFuzz:
    _plain_cache: dict = {}

    @staticmethod
    def _fleet(fleet_seed):
        return build_fleet(n_hosts=6, n_vms=12, llmi_fraction=0.5,
                           hours=8, seed=fleet_seed)

    @classmethod
    def _plain(cls, controller, fleet_seed):
        key = (controller, fleet_seed)
        if key not in cls._plain_cache:
            cls._plain_cache[key] = Simulation(
                cls._fleet(fleet_seed), controller, "hourly").run(6)
        return cls._plain_cache[key]

    @settings(max_examples=8, deadline=None)
    @given(shards=st.integers(min_value=1, max_value=8),
           controller=st.sampled_from(["drowsy", "neat"]),
           fleet_seed=st.integers(min_value=10, max_value=12))
    def test_parity_over_shard_counts(self, shards, controller, fleet_seed):
        s = Simulation(self._fleet(fleet_seed), controller, "sharded",
                       config=ShardedConfig(shards=shards)).run(6)
        assert as_hourly(s) == self._plain(controller, fleet_seed)


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
        res = sharded("drowsy", 8, shards=3, faults=CRASH_PLAN)
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
