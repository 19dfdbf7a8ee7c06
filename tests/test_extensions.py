"""Tests for the extension modules: adaptive alpha/beta, persistence,
idleness heuristics, rack sharding, plotting, CLI."""


import numpy as np
import pytest

from repro.cluster import EventSimulator, Host, TESTBED_VM, VM
from repro.core import (
    AdaptiveBands,
    AdaptiveIdlenessModel,
    FleetIdlenessModel,
    IdlenessModel,
    load_fleet,
    load_model,
    model_from_bytes,
    model_to_bytes,
    save_fleet,
    save_model,
)
from repro.core.calendar import slot_of_hour
from repro.core.params import DEFAULT_PARAMS
from repro.suspend import (
    CombinedHeuristic,
    DirtyRateHeuristic,
    ResourceFractionHeuristic,
    SuspendDecision,
    SuspendingModule,
)
from repro.traces.synthetic import always_idle_trace
from repro.waking import RackShardedWakingService


class TestAdaptiveModel:
    def test_stable_activity_keeps_low_cv(self):
        m = AdaptiveIdlenessModel()
        for h in range(200):
            m.observe(h, 0.3)
        assert m.coefficient_of_variation < 0.1
        # Stable behaviour -> gentle alpha, high beta.
        assert m.effective_alpha < DEFAULT_PARAMS.alpha
        assert m.effective_beta > DEFAULT_PARAMS.beta

    def test_volatile_activity_raises_alpha(self):
        rng = np.random.default_rng(0)
        m = AdaptiveIdlenessModel()
        for h in range(400):
            m.observe(h, float(rng.choice([0.02, 0.9])))
        assert m.coefficient_of_variation > 0.5
        assert m.effective_alpha > DEFAULT_PARAMS.alpha
        assert m.effective_beta < DEFAULT_PARAMS.beta

    def test_bands_derive_edges(self):
        bands = AdaptiveBands()
        a_lo, b_hi = bands.derive(0.0)
        a_hi, b_lo = bands.derive(10.0)
        assert a_lo == bands.alpha_min and b_hi == bands.beta_max
        assert a_hi == bands.alpha_max and b_lo == bands.beta_min

    def test_still_learns_patterns(self):
        from repro.core.calendar import slot_of_hour

        m = AdaptiveIdlenessModel()
        for h in range(30 * 24):
            m.observe(h, 0.4 if h % 24 == 9 else 0.0)
        assert not m.predict_idle(slot_of_hour(30 * 24 + 9))
        assert m.predict_idle(slot_of_hour(30 * 24 + 3))

    def test_cold_start_cv_zero(self):
        assert AdaptiveIdlenessModel().coefficient_of_variation == 0.0


class TestSerialization:
    def train(self, model, hours=300):
        for h in range(hours):
            model.observe(h, 0.3 if h % 24 < 8 else 0.0)
        return model

    def test_scalar_roundtrip(self, tmp_path):
        model = self.train(IdlenessModel())
        path = tmp_path / "model.npz"
        save_model(model, path)
        restored = load_model(path)
        np.testing.assert_array_equal(restored.sid, model.sid)
        np.testing.assert_array_equal(restored.siy, model.siy)
        np.testing.assert_array_equal(restored.weights, model.weights)
        assert restored.hours_observed == model.hours_observed
        assert restored.mean_active_activity == model.mean_active_activity

    def test_restored_model_continues_identically(self, tmp_path):
        model = self.train(IdlenessModel())
        path = tmp_path / "model.npz"
        save_model(model, path)
        restored = load_model(path)
        for h in range(300, 350):
            a = 0.3 if h % 24 < 8 else 0.0
            model.observe(h, a)
            restored.observe(h, a)
        np.testing.assert_array_equal(restored.sid, model.sid)
        np.testing.assert_array_equal(restored.weights, model.weights)

    @staticmethod
    def save_v1(model, path, **extra):
        """Write ``model`` as a version-1 archive (dense sim/siy)."""
        fleet = isinstance(model, FleetIdlenessModel)
        counters = dict(n=model.n, row_hours=model.row_hours) if fleet else {}
        counters.update(extra)
        np.savez_compressed(
            path, version=1, kind="fleet" if fleet else "scalar",
            sid=model.sid, siw=model.siw, sim=model.sim, siy=model.siy,
            weights=model.weights, scale_mask=model.scale_mask,
            activity_sum=model._activity_sum,
            active_hours=model._active_hours,
            hours_observed=model.hours_observed, **counters)

    @staticmethod
    def assert_same_model(restored, model):
        for name in ("sid", "siw", "sim", "siy", "weights"):
            a, b = getattr(restored, name), getattr(model, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
        assert restored.hours_observed == model.hours_observed

    def test_scalar_roundtrip_both_versions(self, tmp_path):
        model = self.train(IdlenessModel())
        self.save_v1(model, tmp_path / "v1.npz")
        save_model(model, tmp_path / "v2.npz")
        for name in ("v1.npz", "v2.npz"):
            restored = load_model(tmp_path / name)
            self.assert_same_model(restored, model)
            assert restored.raw_ip(slot_of_hour(300)) == model.raw_ip(
                slot_of_hour(300))

    def test_fleet_roundtrip(self, tmp_path):
        fleet = FleetIdlenessModel(3)
        A = np.where(np.random.default_rng(0).random((3, 200)) < 0.6, 0.0, 0.4)
        fleet.run_trace_matrix(A, start_hour=364 * 24 - 30)
        fleet.observe_one(1, 364 * 24 + 170, 0.0)  # one row ahead
        self.save_v1(fleet, tmp_path / "v1.npz")
        save_fleet(fleet, tmp_path / "v2.npz")
        for name in ("v1.npz", "v2.npz"):
            restored = load_fleet(tmp_path / name)
            assert restored.n == 3
            self.assert_same_model(restored, fleet)
            np.testing.assert_array_equal(restored.row_hours, fleet.row_hours)
            np.testing.assert_array_equal(restored._active_hours,
                                          fleet._active_hours)
            nxt = 364 * 24 + 171
            assert restored.raw_ip(nxt).tobytes() == fleet.raw_ip(nxt).tobytes()

    def test_v2_stores_touched_days_only(self, tmp_path):
        fleet = FleetIdlenessModel(3)
        fleet.run_trace_matrix(np.zeros((3, 48)))
        save_fleet(fleet, tmp_path / "f.npz")
        with np.load(tmp_path / "f.npz") as data:
            assert int(data["version"]) == 2
            assert data["siy_days"].tolist() == [0, 1]
            assert data["siy_rows"].shape == (3, 2, 24)
            assert "siy" not in data.files

    def test_v1_without_row_hours_loads(self, tmp_path):
        fleet = FleetIdlenessModel(2)
        fleet.run_trace_matrix(np.full((2, 30), 0.3))
        path = tmp_path / "old.npz"
        self.save_v1(fleet, path)
        with np.load(path) as data:
            legacy = {k: data[k] for k in data.files if k != "row_hours"}
        np.savez(path, **legacy)
        restored = load_fleet(path)
        np.testing.assert_array_equal(restored.row_hours, [30, 30])
        self.assert_same_model(restored, fleet)

    def test_kind_mismatch_rejected(self, tmp_path):
        model = self.train(IdlenessModel())
        path = tmp_path / "model.npz"
        save_model(model, path)
        with pytest.raises(ValueError):
            load_fleet(path)

    def test_bytes_roundtrip(self):
        model = self.train(IdlenessModel())
        blob = model_to_bytes(model)
        restored = model_from_bytes(blob)
        np.testing.assert_array_equal(restored.sid, model.sid)

    def test_bound_view_roundtrip(self, tmp_path):
        """A fleet-bound VM's model saves like its detached scalar copy
        and loads back bit for bit."""
        from repro.api.sharded.wire import detached_model
        from repro.core.binding import FleetBinding

        vms = [VM(f"v{i}", always_idle_trace(48), TESTBED_VM)
               for i in range(3)]
        binding = FleetBinding(vms, DEFAULT_PARAMS)
        rng = np.random.default_rng(5)
        start = 30 * 24 - 5  # crosses a month boundary
        for h in range(start, start + 40):
            binding.observe(h, np.where(rng.random(3) < 0.5, 0.0,
                                        rng.random(3)))
        vms[1].model.observe(start + 40, 0.25)  # one row ahead
        for vm in vms:
            view = vm.model
            save_model(view, tmp_path / "view.npz")
            save_model(detached_model(view, DEFAULT_PARAMS),
                       tmp_path / "copy.npz")
            with np.load(tmp_path / "view.npz") as a, \
                    np.load(tmp_path / "copy.npz") as b:
                assert a.files == b.files
                for key in a.files:
                    assert a[key].tobytes() == b[key].tobytes(), key
            for restored in (load_model(tmp_path / "view.npz"),
                             model_from_bytes(model_to_bytes(view))):
                self.assert_same_model(restored, view)
                assert restored._activity_sum == view._activity_sum
                assert restored._active_hours == view._active_hours


class TestHeuristics:
    def make_host(self, activity):
        host = Host("h")
        vm = VM("v", always_idle_trace(48), TESTBED_VM)
        vm.current_activity = activity
        host.add_vm(vm)
        return host, vm

    def test_dirty_rate_veto(self):
        host, vm = self.make_host(0.0)
        h = DirtyRateHeuristic(threshold=0.01)
        assert h.host_seems_idle(host)
        vm.current_activity = 0.2  # dirty rate follows activity
        assert not h.host_seems_idle(host)

    def test_resource_fraction(self):
        host, vm = self.make_host(0.0)
        assert ResourceFractionHeuristic().host_seems_idle(host)
        vm.current_activity = 0.9
        assert not ResourceFractionHeuristic().host_seems_idle(host)

    def test_combined_all_must_agree(self):
        host, vm = self.make_host(0.0)
        combined = CombinedHeuristic((DirtyRateHeuristic(),
                                      ResourceFractionHeuristic()))
        assert combined.host_seems_idle(host)
        vm.current_activity = 0.5
        assert not combined.host_seems_idle(host)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            DirtyRateHeuristic(threshold=2.0)
        with pytest.raises(ValueError):
            ResourceFractionHeuristic(cpu_threshold=-0.1)

    def test_module_integration(self):
        """A dirty-but-process-idle VM triggers the heuristic veto."""

        class AlwaysDirty:
            def host_seems_idle(self, host):
                return False

        host, vm = self.make_host(0.0)
        module = SuspendingModule(host, heuristic=AlwaysDirty())
        verdict = module.evaluate(now=10.0)
        assert verdict.decision is SuspendDecision.HEURISTIC_VETO

    def test_module_without_heuristic_unchanged(self):
        host, vm = self.make_host(0.0)
        module = SuspendingModule(host)
        assert module.evaluate(now=10.0).should_suspend


class TestRackSharding:
    def make_service(self, n_racks=2, hosts_per_rack=2):
        sim = EventSimulator()
        wols = []
        hosts = []
        rack_of_host = {}
        for r in range(n_racks):
            for i in range(hosts_per_rack):
                host = Host(f"r{r}h{i}")
                vm = VM(f"vm-r{r}h{i}", always_idle_trace(48), TESTBED_VM,
                        ip_address=f"10.{r}.{i}.1")
                host.add_vm(vm)
                hosts.append(host)
                rack_of_host[host.name] = f"rack{r}"
        service = RackShardedWakingService(
            sim, lambda p, t: wols.append(p), rack_of_host)
        return sim, service, hosts, wols

    def test_routing_to_owning_shard(self):
        sim, service, hosts, wols = self.make_service()
        service.register_suspension(hosts[0], None)
        shard0 = service.shards["rack0"]
        shard1 = service.shards["rack1"]
        assert shard0.active.state.vm_to_mac
        assert not shard1.active.state.vm_to_mac

    def test_packet_routed_and_wakes(self):
        sim, service, hosts, wols = self.make_service()
        service.register_suspension(hosts[3], None)
        vm_ip = hosts[3].vms[0].ip_address
        assert service.analyze_packet(vm_ip)
        assert len(wols) == 1
        assert wols[0].mac_address == hosts[3].mac_address

    def test_unknown_destination(self):
        sim, service, hosts, wols = self.make_service()
        assert not service.analyze_packet("1.2.3.4")

    def test_shard_failover_isolated(self):
        sim, service, hosts, wols = self.make_service()
        service.register_suspension(hosts[0], waking_date_s=500.0)
        service.fail_rack_primary("rack0")
        sim.run_until(600.0)
        # The rack0 mirror still delivered the scheduled wake.
        assert any(w.mac_address == hosts[0].mac_address for w in wols)
        # rack1 untouched.
        assert service.shards["rack1"].active is service.shards["rack1"].primary

    def test_unassigned_host_rejected(self):
        sim, service, hosts, wols = self.make_service()
        stray = Host("stray")
        with pytest.raises(KeyError):
            service.register_suspension(stray, None)

    def test_requires_assignments(self):
        with pytest.raises(ValueError):
            RackShardedWakingService(EventSimulator(), lambda p, t: None, {})


class TestPlotting:
    def test_sparkline_range(self):
        from repro.analysis import sparkline

        line = sparkline([0.0, 0.5, 1.0])
        assert len(line) == 3
        assert line[0] == " " and line[-1] == "@"

    def test_sparkline_skips_nan(self):
        from repro.analysis import sparkline

        assert sparkline([float("nan")] * 5) == "(no defined values)"

    def test_ascii_chart_shape(self):
        from repro.analysis import ascii_chart

        chart = ascii_chart(np.linspace(0, 1, 30), width=30, height=5)
        lines = chart.splitlines()
        assert len(lines) == 6
        assert "*" in chart

    def test_compare_table(self):
        from repro.analysis import compare_table

        text = compare_table({"a": {"x": 1.0, "y": float("nan")},
                              "b": {"x": 2.0, "y": 3.0}})
        assert "a" in text and "x" in text and "-" in text
        assert compare_table({}) == "(empty)"


class TestCLI:
    def test_list(self, capsys):
        from repro.cli import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig2_colocation" in out

    def test_run_small(self, capsys):
        from repro.cli import main

        assert main(["run", "fig1_traces", "--days", "3"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 1" in out and "finished in" in out

    def test_unknown_experiment(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["run", "nope"])
