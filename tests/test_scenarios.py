"""Scenario engine tests (DESIGN.md §12).

The acceptance contract: every built-in scenario runs deterministically
under both simulators (same spec + seed ⇒ identical result tables), a
scenario × controller × seed grid sharded over workers is byte-identical
to the serial run, and the churn sequence — drawn from a scenario-keyed
Philox stream — is the same under both simulators.
"""

import numpy as np
import pytest

from repro.api import Simulation
from repro.cluster import VM, DataCenter, Host
from repro.cluster.power import PowerState
from repro.cluster.resources import TESTBED_VM
from repro.core.calendar import time_of_hour
from repro.experiments.common import build_fleet
from repro.network.requests import ArrivalShape, RequestProfile
from repro.scenarios import (
    ChurnSpec,
    HostClass,
    MaintenanceWindow,
    ScenarioCell,
    ScenarioCompiler,
    ScenarioSpec,
    ScenarioTable,
    TraceSpec,
    VMClass,
    get_scenario,
    list_scenarios,
    run_scenario_cell,
    run_scenario_sweep,
    scenario_grid,
    stable_seed,
)
from repro.sim import EventConfig, HourlyConfig
from repro.traces.replay import trace_from_csv
from repro.traces.synthetic import always_idle_trace
from tests.oracles import assert_bits_equal

SMALL = dict(scale=0.25, hours=12)


def small_cells(simulator, scenarios=None, controllers=("drowsy",),
                seeds=(0,)):
    names = scenarios or [s.name for s in list_scenarios()]
    return scenario_grid(names, controllers=controllers, seeds=seeds,
                         simulator=simulator, **SMALL)


# ----------------------------------------------------------------------
# specs
# ----------------------------------------------------------------------

class TestSpecs:
    def test_registry_has_at_least_six(self):
        assert len(list_scenarios()) >= 6

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("nope")
        with pytest.raises(KeyError):
            scenario_grid(["nope"])

    def test_spec_validation(self):
        host = HostClass("h", count=1)
        vm = VMClass("v", count=1)
        with pytest.raises(ValueError, match="host and VM classes"):
            ScenarioSpec("s", "d", hosts=(), vms=(vm,))
        with pytest.raises(ValueError, match="duplicate VM classes"):
            ScenarioSpec("s", "d", hosts=(host,), vms=(vm, vm))
        with pytest.raises(ValueError, match="arrival_class"):
            ScenarioSpec("s", "d", hosts=(host,), vms=(vm,),
                         churn=ChurnSpec(vm_arrivals_per_h=1.0,
                                         arrival_class="ghost"))
        with pytest.raises(ValueError, match="out of range"):
            ScenarioSpec("s", "d", hosts=(host,), vms=(vm,),
                         churn=ChurnSpec(maintenance=(
                             MaintenanceWindow(5, 0, 1),)))

    def test_overlapping_maintenance_windows_rejected(self):
        """The injector tracks hosts, not windows: overlap would let the
        first window to end cancel maintenance for the rest."""
        host = HostClass("h", count=2)
        vm = VMClass("v", count=1)
        with pytest.raises(ValueError, match="overlapping maintenance"):
            ScenarioSpec("s", "d", hosts=(host,), vms=(vm,),
                         churn=ChurnSpec(maintenance=(
                             MaintenanceWindow(0, 1, 6),
                             MaintenanceWindow(0, 2, 2))))
        # Back-to-back windows on one host are fine.
        ScenarioSpec("s", "d", hosts=(host,), vms=(vm,),
                     churn=ChurnSpec(maintenance=(
                         MaintenanceWindow(0, 1, 2),
                         MaintenanceWindow(0, 3, 2))))

    def test_trace_spec_validation(self):
        with pytest.raises(ValueError, match="unknown trace generator"):
            TraceSpec(generator="fancy")
        with pytest.raises(ValueError, match="csv"):
            TraceSpec(generator="csv")

    def test_trace_build_is_name_keyed(self):
        spec = TraceSpec(generator="production", index=2)
        a = spec.build("vm-a", 0, 168, seed=1)
        b = spec.build("vm-a", 7, 168, seed=1)  # ordinal must not matter
        c = spec.build("vm-b", 0, 168, seed=1)
        assert np.array_equal(a.activities, b.activities)
        assert not np.array_equal(a.activities, c.activities)

    def test_trace_generators_cover_horizon(self):
        for gen in ("production", "google-llmu", "llmu", "backup",
                    "weekly", "always-idle"):
            trace = TraceSpec(generator=gen).build("x", 0, 100, seed=0)
            assert trace.hours >= 100
            assert trace.name == "x"

    def test_csv_trace_generator(self):
        spec = TraceSpec(generator="csv", csv="activity\n0.0\n0.5\n")
        trace = spec.build("x", 0, 4, seed=0)
        assert trace.activities.tolist() == [0.0, 0.5]
        assert trace.activity(3) == 0.5  # periodic extension

    def test_scaled_floors_at_one_per_class(self):
        spec = get_scenario("diurnal-office").scaled(0.01)
        assert all(c.count == 1 for c in spec.hosts)
        assert all(c.count == 1 for c in spec.vms)
        down = get_scenario("maintenance-churn").scaled(0.1)
        assert all(w.host_index < down.n_hosts
                   for w in down.churn.maintenance)

    def test_scaled_drops_windows_clamped_into_collision(self):
        """Disjoint windows on different hosts can land on the same
        host at fractional scale — the smaller fleet sees less
        maintenance rather than a validation error."""
        spec = ScenarioSpec(
            "wide", "d", hosts=(HostClass("h", count=8),),
            vms=(VMClass("v", count=4),),
            churn=ChurnSpec(maintenance=(
                MaintenanceWindow(0, 10, 8),
                MaintenanceWindow(4, 10, 8),
                MaintenanceWindow(6, 30, 8))))
        down = spec.scaled(0.1)  # one host: the twin window must go
        assert down.n_hosts == 1
        starts = [(w.host_index, w.start_hour)
                  for w in down.churn.maintenance]
        assert starts == [(0, 10), (0, 30)]

    def test_stable_seed_is_stable(self):
        assert stable_seed(1, "trace", "vm") == stable_seed(1, "trace", "vm")
        assert stable_seed(1, "a") != stable_seed(1, "b")


# ----------------------------------------------------------------------
# arrival shaping
# ----------------------------------------------------------------------

class TestArrivalShaping:
    def test_shape_validation(self):
        with pytest.raises(ValueError, match="unknown arrival shape"):
            ArrivalShape(kind="squiggle")
        with pytest.raises(ValueError, match="factors"):
            ArrivalShape(kind="replay")

    def test_diurnal_peaks_at_phase(self):
        shape = ArrivalShape(kind="diurnal", amplitude=0.5, phase_h=15.0)
        factors = shape.factors_for(0, 24)
        assert int(np.argmax(factors)) == 15

    def test_weekly_damps_weekends(self):
        shape = ArrivalShape(kind="weekly", weekend_factor=0.25)
        # Calendar epoch is a Monday: hour 15 of day 5 is a Saturday.
        assert shape.rate_factor(5 * 24 + 15) == pytest.approx(
            0.25 * shape.rate_factor(15))

    def test_flash_bursts(self):
        shape = ArrivalShape(kind="flash", burst_period_h=10, burst_len_h=2,
                             burst_factor=4.0)
        factors = shape.factors_for(0, 10)
        assert factors.tolist() == [4.0, 4.0] + [1.0] * 8

    def test_replay_cycles(self):
        shape = ArrivalShape.from_csv("hour,rate\n0,1.0\n1,3.0\n")
        assert shape.rate_factor(0) == 1.0
        assert shape.rate_factor(3) == 3.0

    def test_unshaped_profile_is_bit_identical(self):
        """shape=None (the default everywhere outside scenarios) must
        not perturb a single RNG draw."""
        plain = RequestProfile()
        explicit = RequestProfile(shape=None)
        a = plain.hourly_arrivals(np.random.default_rng(7), 0.0, 0.5)
        b = explicit.hourly_arrivals(np.random.default_rng(7), 0.0, 0.5,
                                     hour_index=42)
        assert np.array_equal(a, b)

    def test_zero_factor_hour_silences_vm(self):
        profile = RequestProfile(shape=ArrivalShape(
            kind="replay", factors=(0.0, 1.0)))
        rng = np.random.default_rng(7)
        assert profile.hourly_arrivals(rng, 0.0, 0.9, hour_index=0).size == 0
        assert profile.hourly_arrivals(rng, 0.0, 0.9, hour_index=1).size > 0

    def test_flash_hour_raises_traffic(self):
        shape = ArrivalShape(kind="flash", burst_period_h=24, burst_len_h=1,
                             burst_factor=10.0)
        profile = RequestProfile(peak_rate_per_s=0.05, shape=shape)
        burst = profile.hourly_arrivals(
            np.random.default_rng(1), 0.0, 1.0, hour_index=0).size
        calm = profile.hourly_arrivals(
            np.random.default_rng(1), 0.0, 1.0, hour_index=12).size
        assert burst > 2 * calm


# ----------------------------------------------------------------------
# determinism acceptance
# ----------------------------------------------------------------------

class TestDeterminism:
    @pytest.mark.parametrize("simulator", ["hourly", "event"])
    def test_all_builtins_run_deterministically(self, simulator):
        """Same spec + seed ⇒ identical result tables, for every
        built-in scenario, under both simulators."""
        cells = small_cells(simulator)
        first = run_scenario_sweep(cells, workers=1)
        second = run_scenario_sweep(cells, workers=1)
        assert first.to_csv() == second.to_csv()

    def test_sharded_table_byte_identical_to_serial(self):
        cells = small_cells("hourly", controllers=("drowsy", "neat"),
                            seeds=(0, 3))
        serial = run_scenario_sweep(cells, workers=1)
        sharded = run_scenario_sweep(cells, workers=2)
        assert serial.to_csv() == sharded.to_csv()

    def test_sharded_event_cells_byte_identical(self):
        cells = small_cells("event",
                            scenarios=["dev-churn", "flash-crowd"],
                            seeds=(0, 1))
        serial = run_scenario_sweep(cells, workers=1)
        sharded = run_scenario_sweep(cells, workers=2)
        assert serial.to_csv() == sharded.to_csv()

    @pytest.mark.parametrize("name", ["dev-churn", "maintenance-churn"])
    def test_cross_simulator_shared_quantities(self, name):
        """The churn sequence and fleet shape are simulator-independent:
        both simulators see the same arrivals, departures and (for these
        scenarios) the same consolidation decisions."""
        rows = {}
        for simulator in ("hourly", "event"):
            rows[simulator] = run_scenario_cell(ScenarioCell(
                scenario=name, controller="drowsy", seed=1,
                simulator=simulator, scale=0.5, hours=48))
        h, e = rows["hourly"], rows["event"]
        assert (h.n_hosts, h.n_vms) == (e.n_hosts, e.n_vms)
        assert (h.vms_added, h.vms_removed) == (e.vms_added, e.vms_removed)
        assert h.migrations == e.migrations

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("relocate_all", [False, True],
                             ids=["step", "relocate-all"])
    @pytest.mark.parametrize("controller", ["drowsy", "neat"])
    def test_cross_engine_moves_without_sleep(self, controller,
                                              relocate_all, seed):
        """When no host sleeps, both engines run the same hour: the
        same migrations, hour by hour, and bit-identical idleness
        models."""
        configs = {
            "hourly": HourlyConfig(suspend_enabled=False,
                                   power_off_empty=False,
                                   relocate_all_mode=relocate_all),
            "event": EventConfig(suspend_enabled=False,
                                 relocate_all_mode=relocate_all),
        }
        fleets = {}
        for backend, config in configs.items():
            dc = build_fleet(16, 32, 0.5, 48, seed=seed)
            Simulation(dc, controller, backend, config=config).run(48)
            fleets[backend] = dc
        h, e = fleets["hourly"], fleets["event"]
        moves = {name: [(int(r.time // 3600), r.vm_name, r.source,
                         r.destination) for r in dc.migrations]
                 for name, dc in fleets.items()}
        assert moves["hourly"] == moves["event"]
        assert moves["hourly"]  # the comparison is not vacuous
        for vm in h.vms:
            twin, _ = e.find_vm(vm.name)
            assert_bits_equal(vm.model.sid, twin.model.sid, vm.name)
            assert_bits_equal(vm.model.siw, twin.model.siw, vm.name)


# ----------------------------------------------------------------------
# compiler + churn mechanics
# ----------------------------------------------------------------------

class TestCompiler:
    def test_heterogeneous_fleet_respects_capacity(self):
        run = ScenarioCompiler(
            get_scenario("heterogeneous-fleet").scaled(0.5)).compile(seed=2)
        run.dc.check_invariants()
        # Fat VMs only fit the big host class.
        for host in run.dc.hosts:
            for vm in host.vms:
                assert vm.resources.memory_mb <= host.capacity.memory_mb

    def test_overfull_scenario_rejected(self):
        spec = ScenarioSpec(
            "tight", "d", hosts=(HostClass("h", count=1),),
            vms=(VMClass("v", count=9),))  # 9 x 8 GB into one 32 GB host
        with pytest.raises(ValueError, match="does not fit"):
            ScenarioCompiler(spec).build_datacenter(seed=0)

    def test_unknown_simulator_rejected(self):
        with pytest.raises(ValueError, match="unknown simulator"):
            ScenarioCompiler(get_scenario("steady-llmu")).compile(
                simulator="quantum")

    def test_maintenance_window_drains_and_restores(self):
        spec = ScenarioSpec(
            "maint", "d", hosts=(HostClass("h", count=3),),
            vms=(VMClass("v", count=4,
                         trace=TraceSpec(generator="llmu")),),
            horizon_hours=12,
            churn=ChurnSpec(maintenance=(MaintenanceWindow(0, 2, 4),)))
        run = ScenarioCompiler(spec).compile(controller="neat",
                                             simulator="hourly", seed=0)
        target = run.dc.hosts[0]
        states = {}
        original_hook = run.churn.hook

        def spy(t, now):
            original_hook(t, now)
            states[t] = (target.state, len(target.vms))

        run.sim.hour_hooks = (spy,)
        run.run()
        # Drained and off during the window, repopulatable after it.
        assert states[2] == (PowerState.OFF, 0)
        assert states[4] == (PowerState.OFF, 0)
        assert states[6][0] is not PowerState.OFF
        assert run.churn.vms_evacuated > 0

    @pytest.mark.parametrize("simulator", ["hourly", "event"])
    def test_evacuation_wakes_drowsy_destination(self, simulator):
        """When the only evacuation target is suspended, the fallback
        destination is woken so the evacuated VM actually runs — the
        event simulator has no hourly power step to notice otherwise."""
        spec = ScenarioSpec(
            "sleepy-maint", "d", hosts=(HostClass("h", count=2),),
            vms=(VMClass("quiet", count=2,
                         trace=TraceSpec(generator="weekly", weekdays=(0,),
                                         hours_of_day=(9,), level=0.3),
                         interactive=False),),
            horizon_hours=10,
            churn=ChurnSpec(maintenance=(MaintenanceWindow(0, 3, 4),)))
        run = ScenarioCompiler(spec).compile(
            controller="neat", simulator=simulator, seed=0)
        source, dest = run.dc.hosts
        # One VM per host (rotating first-fit over two hosts); put the
        # destination to sleep, then open the source's window directly.
        assert source.vms and dest.vms
        dest.begin_suspend(0.0)
        dest.finish_suspend(0.0)
        run.churn._begin_maintenance(source, 0.0)
        assert run.churn.vms_evacuated == 1
        assert not source.vms and len(dest.vms) == 2
        assert dest.state is PowerState.ON  # woken for its new VM
        assert source.state is PowerState.OFF  # drained and parked

    def test_back_to_back_windows_order_independent(self):
        """A window ending exactly when the next begins must end first,
        however the spec happens to list the windows."""
        host = HostClass("h", count=2)
        vm = VMClass("v", count=1, trace=TraceSpec(generator="llmu"))
        results = []
        for windows in ((MaintenanceWindow(0, 1, 2),
                         MaintenanceWindow(0, 3, 2)),
                        (MaintenanceWindow(0, 3, 2),
                         MaintenanceWindow(0, 1, 2))):
            spec = ScenarioSpec(
                "b2b", "d", hosts=(host,), vms=(vm,), horizon_hours=8,
                churn=ChurnSpec(maintenance=windows))
            run = ScenarioCompiler(spec).compile(controller="neat", seed=0)
            target = run.dc.hosts[0]
            states = {}
            hook = run.churn.hook

            def spy(t, now, hook=hook, states=states, target=target):
                hook(t, now)
                states[t] = target.state
            run.sim.hour_hooks = (spy,)
            run.run()
            # In maintenance (and tracked) for the whole 1..5 span.
            assert states[2] is PowerState.OFF
            assert states[3] is PowerState.OFF
            assert states[4] is PowerState.OFF
            results.append(states)
        assert results[0] == results[1]

    def test_active_arrival_wakes_drowsy_destination(self):
        """A non-interactive churn arrival with activity must wake its
        host: nothing else (no request, no hourly power step) would."""
        spec = ScenarioSpec(
            "night-shift", "d", hosts=(HostClass("h", count=1),),
            vms=(VMClass("batch", count=1, ephemeral=True,
                         interactive=False,
                         trace=TraceSpec(generator="llmu",
                                         base_level=0.8)),),
            horizon_hours=8,
            churn=ChurnSpec(vm_arrivals_per_h=2.0, arrival_class="batch"))
        run = ScenarioCompiler(spec).compile(controller="neat",
                                             simulator="event", seed=1)
        host = run.dc.hosts[0]
        # Simulate the state mid-run: host drowsy, then an arrival hour.
        host.begin_suspend(0.0)
        host.finish_suspend(0.0)
        before = run.churn.vms_added
        run.churn.hook(0, 0.0)
        assert run.churn.vms_added > before  # rate 2/h: arrivals landed
        assert host.state is PowerState.ON   # woken for the active VM

    def test_churn_arrivals_capped(self):
        spec = ScenarioSpec(
            "burst", "d", hosts=(HostClass("h", count=2),),
            vms=(VMClass("v", count=2, ephemeral=True,
                         trace=TraceSpec(generator="llmu")),),
            horizon_hours=24,
            churn=ChurnSpec(vm_arrivals_per_h=5.0, arrival_class="v",
                            max_extra_vms=3))
        run = ScenarioCompiler(spec).compile(controller="neat", seed=0)
        run.run()
        assert run.churn.vms_added == 3
        assert run.churn.arrivals_dropped > 0

    def test_departures_only_touch_ephemeral_vms(self):
        spec = ScenarioSpec(
            "drain", "d", hosts=(HostClass("h", count=2),),
            vms=(VMClass("keep", count=2,
                         trace=TraceSpec(generator="llmu")),
                 VMClass("tmp", count=4, ephemeral=True,
                         trace=TraceSpec(generator="llmu"))),
            horizon_hours=24,
            churn=ChurnSpec(vm_departures_per_h=2.0))
        run = ScenarioCompiler(spec).compile(controller="neat", seed=0)
        run.run()
        names = {vm.name for vm in run.dc.vms}
        assert {"keep-000", "keep-001"} <= names
        assert run.churn.vms_removed == 4  # every ephemeral VM, eventually

    def test_event_churn_run_with_requests_is_clean(self):
        """Departing interactive VMs must not fault the request path
        (their already-scheduled arrivals fall through)."""
        spec = ScenarioSpec(
            "live", "d", hosts=(HostClass("h", count=2),),
            vms=(VMClass("web", count=6, ephemeral=True,
                         trace=TraceSpec(generator="google-llmu")),),
            horizon_hours=8, request_peak_rate_per_s=0.05,
            churn=ChurnSpec(vm_arrivals_per_h=1.0, vm_departures_per_h=1.0,
                            arrival_class="web"))
        run = ScenarioCompiler(spec).compile(controller="neat",
                                             simulator="event", seed=3)
        result = run.run()
        assert result.request_summary["requests"] > 0
        assert run.churn.vms_removed > 0


# ----------------------------------------------------------------------
# administrative actions never rewind a host's meter
# ----------------------------------------------------------------------

#: The seeds of ``maintenance-with-crashes`` in 0-59 whose hourly runs
#: used to raise "time went backwards": a maintenance drain at an hour
#: start acted on a host whose meter the hourly power step had already
#: charged a few seconds past that hour start (after a suspend or a
#: resume).
PRECHARGED_DRAIN_SEEDS = (3, 6, 10, 11, 21, 23, 43, 45, 51)


class TestMeterClock:
    def test_admin_ops_at_the_hour_start_keep_the_meter_clock(self):
        a, b = Host("a"), Host("b")
        dc = DataCenter([a, b])
        vm = VM("v", always_idle_trace(24), TESTBED_VM)
        dc.place(vm, a)
        # An hourly-style power step suspends ``a`` past the hour start.
        a.begin_suspend(2.5)
        a.finish_suspend(5.5)
        hourly = Simulation(dc, "none", "hourly").engine
        hourly.force_awake(a, 0.0)
        assert a.state is PowerState.ON
        assert a.transitions[-1].time == 5.5
        dc.migrate(vm, b, now=0.0)
        assert dc.host_of(vm) is b
        assert b.meter.last_time == 0.0
        assert dc.migrations[-1].time == 0.0
        hourly.power_off_host(a, 0.0)
        assert a.state is PowerState.OFF
        assert a.meter.last_time == 5.5
        dc.remove(vm, now=0.0)
        dc.check_invariants()

    @pytest.mark.parametrize("seed", PRECHARGED_DRAIN_SEEDS)
    def test_maintenance_with_crashes_finishes(self, seed):
        sim = Simulation.from_scenario("maintenance-with-crashes",
                                       seed=seed, backend="hourly")
        result = sim.run()
        assert result.hours == sim.hours
        sim.dc.check_invariants()
        end = time_of_hour(sim.hours)
        assert all(h.meter.last_time == end for h in sim.dc.hosts)


# ----------------------------------------------------------------------
# tables
# ----------------------------------------------------------------------

class TestScenarioTable:
    def make_table(self):
        cells = small_cells("hourly", scenarios=["steady-llmu"])
        return run_scenario_sweep(cells)

    def test_csv_round_trip(self):
        table = self.make_table()
        assert ScenarioTable.from_csv(table.to_csv()).rows == table.rows

    def test_sqlite_round_trip(self, tmp_path):
        table = self.make_table()
        path = tmp_path / "scen.sqlite"
        table.save(path)
        assert ScenarioTable.load(path).rows == table.rows
        # Appends runs, does not clobber: base-class behaviour holds.
        table.save(path)
        assert ScenarioTable.from_sqlite(path, run=0).rows == table.rows

    def test_render_mentions_every_scenario(self):
        table = self.make_table()
        assert "steady-llmu" in table.render()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

class TestScenarioCLI:
    def test_list(self, capsys):
        from repro.cli import main

        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for spec in list_scenarios():
            assert spec.name in out

    def test_run_both_simulators(self, capsys):
        from repro.cli import main

        assert main(["scenario", "run", "steady-llmu", "--simulator",
                     "both", "--scale", "0.2", "--hours", "6"]) == 0
        out = capsys.readouterr().out
        assert "[hourly]" in out and "[event]" in out

    def test_sweep_writes_table(self, capsys, tmp_path):
        from repro.cli import main

        out_csv = tmp_path / "scen.csv"
        assert main(["scenario", "sweep", "--scenarios",
                     "steady-llmu,seasonal-quiet", "--controllers", "drowsy",
                     "--scale", "0.25", "--hours", "6",
                     "--out", str(out_csv)]) == 0
        table = ScenarioTable.load(out_csv)
        assert {r.scenario for r in table.rows} == {
            "steady-llmu", "seasonal-quiet"}

    def test_sweep_rejects_unknown_scenario(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="unknown scenario"):
            main(["scenario", "sweep", "--scenarios", "nope"])

    def test_run_fails_fast_on_typos(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="unknown scenario"):
            main(["scenario", "run", "nope"])
        with pytest.raises(SystemExit, match="unknown controller"):
            main(["scenario", "run", "steady-llmu", "--controller", "bogus"])
        # One controller only: a comma list must fail validation too,
        # not blow up in the cell runner after a partial run.
        with pytest.raises(SystemExit, match="unknown controller"):
            main(["scenario", "run", "steady-llmu",
                  "--controller", "drowsy,neat"])


# ----------------------------------------------------------------------
# CSV replay
# ----------------------------------------------------------------------

class TestCsvReplay:
    def test_trace_from_file(self, tmp_path):
        path = tmp_path / "load.csv"
        path.write_text("hour,activity\n0,0.0\n1,0.25\n2,0.5\n")
        trace = trace_from_csv(path)
        assert trace.name == "load"
        assert trace.activities.tolist() == [0.0, 0.25, 0.5]

    def test_bad_value_rejected(self):
        with pytest.raises(ValueError, match="non-numeric"):
            trace_from_csv("0.1\nbogus\n")

    def test_header_after_blank_line_tolerated(self):
        trace = trace_from_csv("\nactivity\n0.5\n")
        assert trace.activities.tolist() == [0.5]

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no hourly values"):
            trace_from_csv("activity\n\n")

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            trace_from_csv("0.5\n1.5\n")
