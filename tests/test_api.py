"""The ``repro.api`` façade (DESIGN.md §13).

The acceptance contract of the API redesign:

* **golden parity** — ``Simulation(...)`` produces results bit-identical
  to constructing the engines directly, for every registered controller
  × both backends × two seeds;
* **registries** — controller/backend names resolve through one table
  that covers (at least) everything the CLI accepts;
* **observers** — lifecycle hooks fire in registration order and see
  the same hours the legacy ``hour_hooks`` did;
* **config validation** — both config dataclasses reject contradictory
  flags at construction time;
* **one construction path** — no consumer under ``src/`` or
  ``examples/`` builds an engine directly anymore.
"""

import pathlib
import re

import pytest

from repro.api import (
    Observer,
    Registry,
    RunResult,
    Simulation,
    as_observer,
    backends,
    build_controller,
    controllers,
)
from repro.experiments.common import build_fleet, build_testbed
from repro.sim.event_driven import EventConfig, EventDrivenSimulation
from repro.sim.hourly import HourlyConfig, HourlySimulator
from repro.sim.sweep import CONTROLLER_NAMES

REPO = pathlib.Path(__file__).resolve().parents[1]

#: Everything the registry ships, including the passive baseline.
ALL_CONTROLLERS = ("drowsy", "neat", "neat-distributed", "oasis", "none")


def _dc(seed, hours=24, n_vms=12):
    return build_fleet(n_hosts=3, n_vms=n_vms, llmi_fraction=0.5,
                       hours=hours, seed=seed)


# ----------------------------------------------------------------------
# golden parity: façade == direct engine construction, bit for bit
# ----------------------------------------------------------------------

class TestGoldenParity:
    @pytest.mark.parametrize("controller", ALL_CONTROLLERS)
    @pytest.mark.parametrize("seed", [7, 11])
    def test_hourly_bit_identical(self, controller, seed):
        dc1 = _dc(seed)
        direct = HourlySimulator(
            dc1, build_controller(controller, dc1, dc1.params),
            dc1.params).run(12)
        dc2 = _dc(seed)
        unified = Simulation(dc2, controller, "hourly").run(12)
        # Engines return RunResult themselves: whole-result equality.
        assert isinstance(direct, RunResult)
        assert isinstance(unified, RunResult)
        assert unified == direct
        # Backend provenance: event-only fields are None, not zero.
        assert unified.backend == "hourly"
        assert unified.request_summary is None
        assert unified.resume_cycles_by_host is None
        assert unified.wol_sent is None
        assert unified.events_processed is None

    @pytest.mark.parametrize("controller", ALL_CONTROLLERS)
    @pytest.mark.parametrize("seed", [7, 11])
    def test_event_bit_identical(self, controller, seed):
        dc1 = _dc(seed)
        direct = EventDrivenSimulation(
            dc1, build_controller(controller, dc1, dc1.params),
            dc1.params, EventConfig(seed=seed)).run(6)
        dc2 = _dc(seed)
        unified = Simulation(dc2, controller, "event", seed=seed).run(6)
        assert isinstance(direct, RunResult)
        assert unified == direct
        assert unified.backend == "event"
        # Hourly-only accounting is absent, so its derived metrics say
        # "not measured" instead of a fake zero.
        assert unified.overload_host_hours is None
        assert unified.active_host_hours is None
        assert unified.slatah is None
        assert unified.esv is None

    def test_config_and_hooks_pass_through(self):
        """Non-default configs and hour hooks reach the engine verbatim."""
        seen_direct, seen_unified = [], []
        config = HourlyConfig(relocate_all_mode=True, power_off_empty=False)
        dc1 = _dc(3)
        direct = HourlySimulator(
            dc1, build_controller("drowsy", dc1, dc1.params), dc1.params,
            config, hour_hooks=(lambda t, now: seen_direct.append(t),)
        ).run(8)
        dc2 = _dc(3)
        unified = Simulation(
            dc2, "drowsy", config=config,
            observers=(lambda t, now: seen_unified.append(t),)).run(8)
        assert seen_direct == seen_unified == list(range(8))
        assert unified == direct

    def test_from_scenario_matches_compiler(self):
        from repro.scenarios import ScenarioCompiler, get_scenario

        spec = get_scenario("dev-churn").scaled(0.5)
        via_compiler = ScenarioCompiler(spec).compile(
            controller="drowsy", simulator="event", seed=2, hours=12).run()
        via_facade = Simulation.from_scenario(
            "dev-churn", seed=2, controller="drowsy", backend="event",
            scale=0.5, hours=12).run()
        assert via_facade == via_compiler  # RunResult dataclass equality

    def test_accepts_testbed_wrapper(self):
        bed = build_testbed(days=1)
        result = Simulation(bed, "neat").run(12)
        assert result.hours == 12
        assert result.total_energy_kwh > 0.0

    def test_rejects_non_datacenter(self):
        with pytest.raises(TypeError, match="DataCenter"):
            Simulation(object())

    def test_run_requires_horizon_unless_scenario(self):
        sim = Simulation(_dc(1))
        with pytest.raises(ValueError, match="n_hours"):
            sim.run()
        scenario_sim = Simulation.from_scenario("steady-llmu", seed=0,
                                                scale=0.25, hours=4)
        assert scenario_sim.run().hours == 4  # horizon carried by the spec


# ----------------------------------------------------------------------
# registries
# ----------------------------------------------------------------------

class TestRegistries:
    def test_controllers_cover_cli_choices(self):
        assert set(controllers.names()) >= set(CONTROLLER_NAMES)
        assert "none" in controllers

    def test_backends_registered(self):
        assert set(backends.names()) == {"hourly", "event", "sharded"}

    def test_unknown_names_fail_fast_with_choices(self):
        with pytest.raises(ValueError, match="unknown controller.*drowsy"):
            controllers.get("bogus")
        with pytest.raises(ValueError, match="unknown backend.*hourly"):
            backends.get("quantum")
        with pytest.raises(ValueError, match="unknown controller"):
            Simulation(_dc(1), "bogus")
        with pytest.raises(ValueError, match="unknown backend"):
            Simulation(_dc(1), "drowsy", "quantum")

    def test_factories_build_named_controllers(self):
        dc = _dc(5)
        # Registry keys are stable identifiers; the controllers' own
        # display names may differ (e.g. "drowsy" -> "drowsy-dc").
        expected = {"drowsy": "drowsy-dc", "neat": "neat",
                    "neat-distributed": "neat-distributed",
                    "oasis": "oasis", "none": "none"}
        for name in ALL_CONTROLLERS:
            controller = build_controller(name, dc, dc.params)
            assert controller.name == expected[name]
            assert callable(controller.observe_hour)

    def test_registration_protocol(self):
        reg = Registry("widget")
        reg.register("a", 1)

        @reg.register("b")
        def make_b():
            return 2

        assert reg.names() == ("a", "b")
        assert reg.get("b")() == 2
        assert "a" in reg and len(reg) == 2 and list(reg) == ["a", "b"]
        with pytest.raises(ValueError, match="already registered"):
            reg.register("a", 3)

    def test_custom_controller_reaches_every_entry_point(self):
        """Register once, resolve from the façade, the sweep cells and
        the CLI validator — the one-path contract."""
        from repro.cli import _validated_controllers
        from repro.sim.sweep import SweepCell, run_cell

        @controllers.register("test-passive")
        def _factory(dc, params):
            from repro.consolidation.baseline import PassiveController

            ctrl = PassiveController()
            ctrl.name = "test-passive"
            return ctrl

        try:
            result = Simulation(_dc(2), "test-passive").run(4)
            assert result.controller_name == "test-passive"
            row = run_cell(SweepCell(controller="test-passive", n_vms=8,
                                     seed=1, hours=4))
            assert row.controller == "test-passive"
            assert _validated_controllers("drowsy,test-passive") == (
                "drowsy", "test-passive")
        finally:
            del controllers._entries["test-passive"]


# ----------------------------------------------------------------------
# observers
# ----------------------------------------------------------------------

class Recorder(Observer):
    def __init__(self, label, log):
        self.label = label
        self.log = log

    def on_run_start(self, sim, start_hour, n_hours):
        self.log.append((self.label, "start", start_hour, n_hours))

    def on_hour(self, t, now):
        self.log.append((self.label, "hour", t))

    def on_run_end(self, result):
        self.log.append((self.label, "end", result.backend))


class TestObservers:
    def test_lifecycle_order(self):
        """start (registration order) → per-hour interleaved in
        registration order → end (registration order), with the unified
        result delivered to on_run_end."""
        log = []
        sim = Simulation(_dc(4), "none",
                         observers=(Recorder("a", log), Recorder("b", log)))
        result = sim.run(2)
        assert log == [
            ("a", "start", 0, 2), ("b", "start", 0, 2),
            ("a", "hour", 0), ("b", "hour", 0),
            ("a", "hour", 1), ("b", "hour", 1),
            ("a", "end", "hourly"), ("b", "end", "hourly"),
        ]
        assert isinstance(result, RunResult)
        assert sim.last_result is result

    def test_event_backend_fires_observers_too(self):
        log = []
        Simulation(_dc(4), "none", "event", seed=1,
                   observers=(Recorder("a", log),)).run(2)
        assert [e[:2] for e in log] == [
            ("a", "start"), ("a", "hour"), ("a", "hour"), ("a", "end")]
        assert log[-1] == ("a", "end", "event")

    def test_as_observer_adapters(self):
        hours = []
        adapted = as_observer(lambda t, now: hours.append(t))
        adapted.on_run_start(None, 0, 1)  # no-op, not an error
        adapted.on_hour(3, 0.0)
        adapted.on_run_end(None)
        assert hours == [3]

        class Partial:  # duck-typed subset
            def __init__(self):
                self.ended = False

            def on_run_end(self, result):
                self.ended = True

        partial = Partial()
        obs = as_observer(partial)
        obs.on_hour(0, 0.0)  # filled no-op
        obs.on_run_end(None)
        assert partial.ended

        full = Recorder("x", [])
        assert as_observer(full) is full
        with pytest.raises(TypeError, match="not an observer"):
            as_observer(42)

    def test_plain_callable_observer_sees_every_hour(self):
        hours = []
        Simulation(_dc(4), "none",
                   observers=(lambda t, now: hours.append(t),)).run(3)
        assert hours == [0, 1, 2]


# ----------------------------------------------------------------------
# config validation (both configs, one contract)
# ----------------------------------------------------------------------

class TestConfigValidation:
    @pytest.mark.parametrize("cls", [HourlyConfig, EventConfig])
    def test_consolidation_period_validated(self, cls):
        with pytest.raises(ValueError, match="consolidation_period_h"):
            cls(consolidation_period_h=0)

    def test_event_flag_contradictions_raise_at_config_time(self):
        with pytest.raises(ValueError, match="request_streams"):
            EventConfig(request_streams="typo")

    def test_backend_rejects_wrong_config_type(self):
        with pytest.raises(TypeError, match="HourlyConfig"):
            Simulation(_dc(1), "drowsy", "hourly", config=EventConfig())
        with pytest.raises(TypeError, match="EventConfig"):
            Simulation(_dc(1), "drowsy", "event", config=HourlyConfig())

    def test_seed_threads_into_event_config(self):
        sim = Simulation(_dc(1), "none", "event", seed=5)
        assert sim.config.seed == 5
        sim2 = Simulation(_dc(1), "none", "event", seed=5,
                          config=EventConfig(seed=1, request_streams="per-vm"))
        assert sim2.config.seed == 5
        assert sim2.config.request_streams == "per-vm"
        # The hourly backend accepts (and ignores) a seed for signature
        # uniformity — runs draw no randomness there.
        assert Simulation(_dc(1), "none", seed=5).config == HourlyConfig()


# ----------------------------------------------------------------------
# one construction path
# ----------------------------------------------------------------------

class TestSingleConstructionPath:
    def test_no_direct_engine_construction_outside_core(self):
        """The acceptance grep of the API redesign: every consumer goes
        through ``repro.api`` — direct engine construction survives only
        inside the engines' own package and the façade."""
        pattern = re.compile(r"\b(?:HourlySimulator|EventDrivenSimulation)\(")
        allowed = {REPO / "src" / "repro" / "sim",
                   REPO / "src" / "repro" / "api"}
        offenders = []
        for root in (REPO / "src", REPO / "examples"):
            for path in root.rglob("*.py"):
                if any(parent in allowed for parent in path.parents):
                    continue
                if pattern.search(path.read_text()):
                    offenders.append(str(path.relative_to(REPO)))
        assert not offenders, (
            f"direct simulator construction outside repro.sim/repro.api: "
            f"{offenders}")


class TestSinglePlacementWriter:
    def test_no_placement_writes_outside_datacenter(self):
        """``DataCenter`` is the only placement writer: no other source
        module touches its indexes or attach hooks, or edits a host's VM
        list through ``Host.add_vm``/``Host.remove_vm``."""
        pattern = re.compile(
            r"\._placement\b|\._vm_by_name\b|\._note_(?:attach|detach)\b"
            r"|\.add_vm\(|\.remove_vm\(")
        owner = REPO / "src" / "repro" / "cluster" / "datacenter.py"
        offenders = []
        for path in (REPO / "src").rglob("*.py"):
            if path == owner:
                continue
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                if pattern.search(line):
                    offenders.append(f"{path.relative_to(REPO)}:{lineno}")
        assert not offenders, (
            f"placement state written outside DataCenter: {offenders}")
