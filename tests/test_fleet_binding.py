"""Simulator parity for the columnar fleet hot path (DESIGN.md §6).

The fleet-bound simulators must be *bit-identical* to the seed per-VM
scalar path: identical energy totals, suspend cycles, migrations and
SLATAH — not merely close.  Plus property tests for the O(1) placement
index under migrate/apply_assignment/remove.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Simulation
from repro.cluster.datacenter import DataCenter, PlacementError
from repro.cluster.host import Host
from repro.cluster.resources import TESTBED_VM
from repro.cluster.vm import VM
from repro.consolidation.drowsy import DrowsyController
from repro.consolidation.managers import DistributedNeat
from repro.consolidation.neat import NeatController
from repro.consolidation.oasis import OasisController
from repro.core.binding import FleetBinding, FleetVMView
from repro.core.calendar import slot_of_hour
from repro.core.model import IdlenessModel
from repro.core.params import DEFAULT_PARAMS
from repro.experiments.common import build_fleet
from repro.sim.event_driven import EventDrivenSimulation
from repro.sim.hourly import HourlyConfig, HourlySimulator
from repro.traces.base import activity_matrix
from repro.traces.synthetic import daily_backup_trace, llmu_trace
from tests.oracles import PerHostEventSimulation, ScalarHourlySimulator

HOURS = 96  # >= 72 h, exercises several day boundaries

CONTROLLERS = {
    "drowsy": lambda dc: DrowsyController(dc),
    "neat": lambda dc: NeatController(dc),
    "oasis": lambda dc: OasisController(dc),
    "neat-distributed": lambda dc: DistributedNeat(dc),
}


def _hourly_run(controller_name: str, use_fleet: bool, hours: int = HOURS,
                **config_kwargs):
    dc = build_fleet(n_hosts=8, n_vms=24, llmi_fraction=0.5, hours=hours)
    controller = CONTROLLERS[controller_name](dc)
    engine = HourlySimulator if use_fleet else ScalarHourlySimulator
    sim = engine(dc, controller, config=HourlyConfig(**config_kwargs))
    return sim.run(hours), dc


def _assert_identical(a, b):
    assert a.total_energy_kwh == b.total_energy_kwh
    assert a.energy_kwh_by_host == b.energy_kwh_by_host
    assert a.suspend_cycles_by_host == b.suspend_cycles_by_host
    assert a.suspended_fraction_by_host == b.suspended_fraction_by_host
    assert a.migrations == b.migrations
    assert a.vm_migrations == b.vm_migrations


class TestHourlyParity:
    """Scalar vs fleet-bound hourly runs are bit-identical."""

    @pytest.mark.parametrize("controller", sorted(CONTROLLERS))
    def test_controller_parity(self, controller):
        scalar, _ = _hourly_run(controller, use_fleet=False)
        fleet, dc = _hourly_run(controller, use_fleet=True)
        _assert_identical(scalar, fleet)
        assert scalar.slatah == fleet.slatah
        assert scalar.overload_host_hours == fleet.overload_host_hours
        # The fleet run really took the columnar path.
        assert all(type(vm.model) is FleetVMView for vm in dc.vms)

    def test_relocate_all_mode_parity(self):
        """The 24-slot IP window of relocate_all hits the column cache."""
        scalar, _ = _hourly_run("drowsy", use_fleet=False,
                                relocate_all_mode=True,
                                consolidation_period_h=12)
        fleet, _ = _hourly_run("drowsy", use_fleet=True,
                               relocate_all_mode=True,
                               consolidation_period_h=12)
        _assert_identical(scalar, fleet)

    def test_model_state_parity(self):
        """Post-run SI tables and weights match the scalar models."""
        _, dc_s = _hourly_run("drowsy", use_fleet=False)
        _, dc_f = _hourly_run("drowsy", use_fleet=True)
        scalar_by_name = {vm.name: vm for vm in dc_s.vms}
        for vm in dc_f.vms:
            ref = scalar_by_name[vm.name].model
            np.testing.assert_array_equal(vm.model.sid, ref.sid)
            np.testing.assert_array_equal(vm.model.siw, ref.siw)
            np.testing.assert_array_equal(vm.model.weights, ref.weights)
            assert vm.model.hours_observed == ref.hours_observed
            slot = slot_of_hour(HOURS + 3)
            assert vm.model.raw_ip(slot) == ref.raw_ip(slot)


class TestEventParity:
    """The request-level simulator takes the same columnar path."""

    @pytest.mark.parametrize("controller", ["drowsy", "oasis"])
    def test_event_run_parity(self, controller):
        def run(use_fleet):
            dc = build_fleet(n_hosts=4, n_vms=12, llmi_fraction=0.5,
                             hours=72)
            if use_fleet:
                sim = EventDrivenSimulation(dc, CONTROLLERS[controller](dc))
            else:
                # Scalar models, production check and request paths.
                sim = PerHostEventSimulation(
                    dc, CONTROLLERS[controller](dc), per_host_checks=False,
                    per_push_requests=False, binding="scalar")
            return sim.run(72), dc

        (scalar, dc_s), (fleet, dc_f) = run(False), run(True)
        assert scalar.total_energy_kwh == fleet.total_energy_kwh
        assert scalar.suspend_cycles_by_host == fleet.suspend_cycles_by_host
        assert scalar.resume_cycles_by_host == fleet.resume_cycles_by_host
        assert scalar.migrations == fleet.migrations
        assert scalar.request_summary == fleet.request_summary
        assert scalar.wol_sent == fleet.wol_sent
        assert scalar.events_processed == fleet.events_processed
        # The learned models too: the columnar update is the scalar one.
        for vm_s, vm_f in zip(dc_s.vms, dc_f.vms):
            assert type(vm_f.model) is FleetVMView
            assert type(vm_s.model) is IdlenessModel
            np.testing.assert_array_equal(vm_f.model.sid, vm_s.model.sid)
            np.testing.assert_array_equal(vm_f.model.weights,
                                          vm_s.model.weights)


class TestFleetVMView:
    def _bound_vm(self, hours=48):
        host = Host("h0")
        dc = DataCenter([host])
        vm = VM("v", daily_backup_trace(days=4), TESTBED_VM)
        dc.place(vm, host)
        binding = FleetBinding.try_bind(dc, DEFAULT_PARAMS)
        assert binding is not None
        return vm, binding

    def test_view_observe_matches_scalar(self):
        """The single-row fallback path is the scalar update, exactly."""
        vm, _ = self._bound_vm()
        ref = IdlenessModel()
        trace = daily_backup_trace(days=4)
        for t in range(96):
            a = float(trace.activities[t])
            obs_v = vm.model.observe(t, a)
            obs_s = ref.observe(t, a)
            assert obs_v.raw_ip_before == obs_s.raw_ip_before
            assert obs_v.raw_ip_after == obs_s.raw_ip_after
        np.testing.assert_array_equal(vm.model.sid, ref.sid)
        np.testing.assert_array_equal(vm.model.weights, ref.weights)
        assert vm.model.hours_observed == ref.hours_observed == 96
        assert vm.model.mean_active_activity == ref.mean_active_activity

    def test_view_rejects_bad_activity(self):
        vm, _ = self._bound_vm()
        with pytest.raises(ValueError):
            vm.model.observe(0, 1.5)

    def test_binding_preserves_pretrained_state(self):
        host = Host("h0")
        dc = DataCenter([host])
        vm = VM("v", daily_backup_trace(days=4), TESTBED_VM)
        dc.place(vm, host)
        for t in range(72):
            vm.model.observe(t, vm.activity_at(t))
        ref = IdlenessModel()
        for t in range(72):
            ref.observe(t, vm.activity_at(t))
        FleetBinding.try_bind(dc, DEFAULT_PARAMS)
        np.testing.assert_array_equal(vm.model.sid, ref.sid)
        np.testing.assert_array_equal(vm.model.weights, ref.weights)
        assert vm.model.hours_observed == 72

    def test_try_bind_refuses_empty_and_mixed(self):
        dc = DataCenter([Host("h0")])
        assert FleetBinding.try_bind(dc, DEFAULT_PARAMS) is None  # empty

        vm = VM("v", daily_backup_trace(days=2), TESTBED_VM)
        dc.place(vm, dc.host("h0"))
        vm.model = object()  # non-standard model
        assert FleetBinding.try_bind(dc, DEFAULT_PARAMS) is None

    def test_try_bind_reuses_existing_binding(self):
        dc = DataCenter([Host("h0")])
        dc.place(VM("v", daily_backup_trace(days=2), TESTBED_VM),
                 dc.host("h0"))
        b1 = FleetBinding.try_bind(dc, DEFAULT_PARAMS)
        b2 = FleetBinding.try_bind(dc, DEFAULT_PARAMS)
        assert b1 is b2

    def test_rebind_after_fleet_growth(self):
        """A VM placed after binding makes covers() False; the next
        run() rebinds (views import exactly, newcomers join the fleet)
        so the columnar path survives fleet growth."""
        hosts = [Host(f"h{i}") for i in range(2)]
        dc = DataCenter(hosts)
        dc.place(VM("old", daily_backup_trace(days=5), TESTBED_VM), hosts[0])
        binding = FleetBinding.try_bind(dc, DEFAULT_PARAMS)
        assert binding.covers(dc.vms)
        newcomer = VM("new", llmu_trace(hours=120, seed=5), TESTBED_VM)
        dc.place(newcomer, hosts[1])
        assert not binding.covers(dc.vms)

        # try_bind builds a fresh binding spanning old views + newcomer.
        rebound = FleetBinding.try_bind(dc, DEFAULT_PARAMS)
        assert rebound is not binding
        assert rebound.covers(dc.vms)
        assert rebound.fleet.n == 2

        class Passive:
            name = "p"
            uses_idleness = False

            def observe_hour(self, t):
                pass

            def step(self, t, now, executor=None):
                return 0

        sim = HourlySimulator(dc, Passive(),
                              config=HourlyConfig(power_off_empty=False))
        sim.run(24)
        for vm in dc.vms:
            assert type(vm.model) is FleetVMView
            assert vm.model.hours_observed == 24

    def test_rebound_state_matches_scalar(self):
        """Growth + rebind changes nothing: results equal an all-scalar
        run over the same schedule."""
        def run(use_fleet):
            hosts = [Host(f"h{i}") for i in range(2)]
            dc = DataCenter(hosts)
            dc.place(VM("old", daily_backup_trace(days=10), TESTBED_VM),
                     hosts[0])
            engine = HourlySimulator if use_fleet else ScalarHourlySimulator
            sim = engine(dc, DrowsyController(dc))
            sim.run(48)
            dc.place(VM("new", llmu_trace(hours=240, seed=5), TESTBED_VM),
                     hosts[1])
            return sim.run(120, start_hour=48), dc

        scalar, dc_s = run(False)
        fleet, dc_f = run(True)
        _assert_identical(scalar, fleet)
        ref = {vm.name: vm.model for vm in dc_s.vms}
        for vm in dc_f.vms:
            np.testing.assert_array_equal(vm.model.sid, ref[vm.name].sid)
            np.testing.assert_array_equal(vm.model.weights,
                                          ref[vm.name].weights)


def _fleet_arrays(fleet) -> dict:
    """Every array of a fleet model as ``(dtype, shape, bytes)``; the
    slabs as their written days and rows."""
    arrays = {name: getattr(fleet, name) for name in (
        "sid", "siw", "weights", "scale_mask", "_activity_sum",
        "_active_hours", "row_hours", "blocked_io")}
    for name in ("_sim", "_siy"):
        slab = getattr(fleet, name)
        arrays[name + "_days"] = slab.day_of_row()
        arrays[name + "_rows"] = slab.written_rows()
    return {k: (v.dtype, v.shape, v.tobytes()) for k, v in arrays.items()}


class TestUnreadModels:
    """A VM builds its scalar model on first read.  A fleet bound before
    any read equals one bound after reading every model, and one bound
    over scalar models pre-trained on the same hours."""

    START = 24

    def _bound(self, prepare):
        dc = build_fleet(n_hosts=8, n_vms=24, llmi_fraction=0.5,
                         hours=self.START + 48, seed=5)
        prepare(dc)
        binding = FleetBinding.try_bind(dc, DEFAULT_PARAMS)
        assert binding is not None
        return dc, binding

    def test_bind_parity(self):
        def as_built(dc):
            assert all(vm._model is None for vm in dc.vms)

        def read(dc):
            assert all(type(vm.model) is IdlenessModel for vm in dc.vms)

        def pretrained(dc):
            for vm in dc.vms:
                for t in range(self.START):
                    vm.model.observe(t, vm.activity_at(t))

        fresh, runs = [], []
        for prepare in (as_built, read, pretrained):
            dc, binding = self._bound(prepare)
            if prepare is not pretrained:
                fresh.append(_fleet_arrays(binding.fleet))
                binding.ensure_horizon(0, self.START)
                for t in range(self.START):  # the VMs' activities untouched
                    binding.observe(t, binding.activities(t))
            arrays = _fleet_arrays(binding.fleet)
            result = Simulation(dc, "drowsy", "hourly").run(
                48, start_hour=self.START)
            assert dc._fleet_binding is binding
            runs.append((arrays, result))
        assert fresh[0] == fresh[1]
        for arrays, result in runs[1:]:
            assert arrays == runs[0][0]
            assert result == runs[0][1]

    def test_blocked_io_on_unbound_vm_builds_no_model(self):
        vm = VM("v", daily_backup_trace(days=2), TESTBED_VM)
        vm.blocked_io = True
        assert vm._model is None and vm.blocked_io

    def test_try_bind_refuses_unread_model_with_other_params(self):
        dc = DataCenter([Host("h0")])
        other = DEFAULT_PARAMS.replace(use_yearly_scale=False)
        vm = VM("v", daily_backup_trace(days=2), TESTBED_VM, params=other)
        dc.place(vm, dc.host("h0"))
        assert FleetBinding.try_bind(dc, DEFAULT_PARAMS) is None
        assert vm._model is None
        assert FleetBinding.try_bind(dc, other) is not None

    def test_try_bind_matches_shared_params_by_identity(self, monkeypatch):
        dc = build_fleet(n_hosts=4, n_vms=16, llmi_fraction=0.5, hours=24)
        calls = []
        eq = type(DEFAULT_PARAMS).__eq__
        monkeypatch.setattr(type(DEFAULT_PARAMS), "__eq__",
                            lambda a, b: calls.append(1) or eq(a, b))
        assert FleetBinding.try_bind(dc, DEFAULT_PARAMS) is not None
        assert calls == []
        # An equal copy is still accepted, through __eq__.
        dc = build_fleet(n_hosts=4, n_vms=16, llmi_fraction=0.5, hours=24)
        assert FleetBinding.try_bind(
            dc, DEFAULT_PARAMS.replace()) is not None
        assert len(calls) == 16


class TestActivityMatrix:
    def test_matches_scalar_activity(self):
        traces = [daily_backup_trace(days=2),
                  llmu_trace(hours=30, seed=1)]
        m = activity_matrix(traces, 50, start_hour=7)
        for i, tr in enumerate(traces):
            for k in range(50):
                assert m[i, k] == tr.activity(7 + k)

    def test_rejects_empty_horizon(self):
        with pytest.raises(ValueError):
            activity_matrix([daily_backup_trace(days=1)], 0)


# ----------------------------------------------------------------------
# Placement-index properties
# ----------------------------------------------------------------------

def _make_dc(n_hosts=4):
    hosts = [Host(f"h{i}") for i in range(n_hosts)]
    return DataCenter(hosts)


def _vm(name):
    return VM(name, daily_backup_trace(days=1), TESTBED_VM)


def _scan_host_of(dc, vm):
    for host in dc.hosts:
        if vm in host.vms:
            return host
    return None


ops = st.lists(
    st.tuples(st.sampled_from(["migrate", "swap", "remove", "add"]),
              st.integers(0, 7), st.integers(0, 3)),
    min_size=1, max_size=40)


class TestPlacementIndex:
    @settings(max_examples=40, deadline=None)
    @given(ops)
    def test_index_consistent_under_ops(self, operations):
        """host_of agrees with a full scan after any op sequence."""
        dc = _make_dc()
        vms = [_vm(f"v{i}") for i in range(8)]
        placed = []
        for i, vm in enumerate(vms[:4]):
            dc.place(vm, dc.hosts[i % 4])
            placed.append(vm)
        spare = list(vms[4:])

        for clock, (op, vm_i, host_i) in enumerate(operations, start=1):
            now = float(clock)
            host = dc.hosts[host_i]
            if op == "add" and spare:
                vm = spare.pop()
                if host.can_host(vm):
                    dc.place(vm, host)
                    placed.append(vm)
            elif not placed:
                continue
            elif op == "migrate":
                vm = placed[vm_i % len(placed)]
                src = dc.host_of(vm)
                if src is not host and host.can_host(vm):
                    dc.migrate(vm, host, now=now)
            elif op == "swap" and len(placed) >= 2:
                a = placed[vm_i % len(placed)]
                b = placed[(vm_i + 1) % len(placed)]
                ha, hb = dc.host_of(a), dc.host_of(b)
                if ha is not hb:
                    dc.apply_assignment({a.name: hb, b.name: ha}, now=now)
            elif op == "remove":
                vm = placed.pop(vm_i % len(placed))
                dc.remove(vm, now=now)
                spare.append(vm)

            for vm in vms:
                expected = _scan_host_of(dc, vm)
                if expected is None:
                    with pytest.raises(PlacementError):
                        dc.host_of(vm)
                else:
                    assert dc.host_of(vm) is expected
            dc.check_invariants()

    def test_check_invariants_detects_directly_wired_vm(self):
        """A VM appended to host.vms behind the DC's back is unknown to
        the (authoritative) index and is reported, not healed."""
        dc = _make_dc(2)
        vm = _vm("wired")
        dc.hosts[0].vms.append(vm)
        with pytest.raises(PlacementError, match="index disagrees"):
            dc.check_invariants()
        # The check only asserts: nothing was rebuilt behind our back.
        assert vm.name not in dc._placement
        with pytest.raises(PlacementError):
            dc.check_invariants()

    def test_host_of_rejects_directly_wired_vm(self):
        """host_of answers from the index alone: no scan fallback."""
        dc = _make_dc(2)
        vm = _vm("direct")
        dc.hosts[1].vms.append(vm)
        with pytest.raises(PlacementError, match="not placed"):
            dc.host_of(vm)
        with pytest.raises(KeyError):
            dc.find_vm(vm.name)

    def test_host_of_unplaced_raises(self):
        dc = _make_dc(2)
        with pytest.raises(PlacementError):
            dc.host_of(_vm("ghost"))

    def test_check_invariants_detects_manual_move(self):
        dc = _make_dc(2)
        vm = _vm("mover")
        dc.place(vm, dc.hosts[0])
        dc.check_invariants()
        # Move behind the data center's back: the index still says h0.
        dc.hosts[0].vms.remove(vm)
        dc.hosts[1].vms.append(vm)
        assert dc.host_of(vm) is dc.hosts[0]
        with pytest.raises(PlacementError, match="index disagrees"):
            dc.check_invariants()

    def test_same_name_different_vm_is_not_placed(self):
        dc = _make_dc(2)
        vm = _vm("twin")
        dc.place(vm, dc.hosts[0])
        impostor = _vm("twin")
        with pytest.raises(PlacementError, match="not placed"):
            dc.host_of(impostor)
        with pytest.raises(PlacementError, match="already placed"):
            dc.place(impostor, dc.hosts[1])

    def test_apply_assignment_failure_leaves_detached_vm_unindexed(self):
        dc = _make_dc(3)
        a, b, c = _vm("a"), _vm("b"), _vm("c")
        dc.place(a, dc.hosts[0])
        dc.place(b, dc.hosts[1])
        dc.place(c, dc.hosts[2])
        with pytest.raises(PlacementError):
            dc.apply_assignment(
                {"a": dc.hosts[2], "b": dc.hosts[2]}, now=1.0)
        # Whichever VM failed to re-attach is reported unplaced.
        unplaced = [vm for vm in (a, b) if _scan_host_of(dc, vm) is None]
        for vm in unplaced:
            with pytest.raises(PlacementError):
                dc.host_of(vm)
