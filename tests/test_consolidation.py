"""Tests for detectors, selectors, placement and the controllers."""

import numpy as np
import pytest

from repro.cluster import DataCenter, Host, HostCapacity, ResourceSpec, VM
from repro.cluster.accounting import HostAccounting, ScalarHostView
from repro.consolidation import (
    DrowsyController,
    IPAwarePlacement,
    IPDistanceSelector,
    IqrDetector,
    LocalRegressionDetector,
    MadDetector,
    MinimumMigrationTimeSelector,
    NeatController,
    OasisController,
    PowerAwareBestFitDecreasing,
    RandomSelector,
    MaximumCorrelationSelector,
    ThresholdDetector,
    select_until_not_overloaded,
    underloaded_candidates,
)
from repro.core.binding import FleetBinding
from repro.core.params import DEFAULT_PARAMS
from repro.traces.synthetic import always_idle_trace

CAP = HostCapacity(cpus=8, memory_mb=16384, cpu_overcommit=1.0)
FLAVOR = ResourceSpec(cpus=2, memory_mb=4096)


def make_vm(name, activity=0.0, trace=None):
    vm = VM(name, trace or always_idle_trace(24 * 30), FLAVOR)
    vm.current_activity = activity
    return vm


class TestDetectors:
    def test_threshold(self):
        d = ThresholdDetector(0.8)
        assert d.is_overloaded([0.5, 0.9])
        assert not d.is_overloaded([0.9, 0.5])
        assert not d.is_overloaded([])

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            ThresholdDetector(0.0)

    def test_mad_adapts_to_variability(self):
        stable = [0.5] * 20 + [0.85]
        # MAD of constant history = 0 -> threshold 1.0 -> not overloaded.
        assert not MadDetector().is_overloaded(stable)
        volatile = list(np.linspace(0.1, 0.9, 20)) + [0.85]
        assert MadDetector().is_overloaded(volatile)

    def test_mad_fallback_with_short_history(self):
        assert MadDetector().is_overloaded([0.9])

    def test_iqr_behaviour(self):
        stable = [0.5] * 20 + [0.99]
        assert not IqrDetector().is_overloaded(stable)

    def test_lr_predicts_trend(self):
        rising = list(np.linspace(0.3, 0.9, 10))
        assert LocalRegressionDetector().is_overloaded(rising)
        flat = [0.3] * 10
        assert not LocalRegressionDetector().is_overloaded(flat)

    def test_underloaded_ordering(self):
        utils = {"a": 0.5, "b": 0.1, "c": 0.3}
        assert underloaded_candidates(utils) == ["b", "c", "a"]
        assert underloaded_candidates(utils, exclude=frozenset({"b"})) == ["c", "a"]


class TestSelectors:
    def make_host(self, activities):
        host = Host("h", CAP)
        for i, act in enumerate(activities):
            host.add_vm(make_vm(f"v{i}", act))
        return host

    def test_mmt_prefers_cheap_migrations(self):
        host = self.make_host([0.9, 0.0])
        order = MinimumMigrationTimeSelector().order(host, 0)
        # The idle VM dirties no pages: cheapest to move.
        assert order[0].name == "v1"

    def test_random_selector_deterministic_with_seed(self):
        host = self.make_host([0.1, 0.2, 0.3])
        a = [vm.name for vm in RandomSelector(seed=1).order(host, 0)]
        b = [vm.name for vm in RandomSelector(seed=1).order(host, 0)]
        assert a == b

    def test_ip_distance_selector_picks_outlier_first(self):
        host = Host("h", CAP)
        odd, even1, even2 = (make_vm(n) for n in ("odd", "even1", "even2"))
        for h in range(14 * 24):
            odd.model.observe(h, 0.5)
            even1.model.observe(h, 0.0)
            even2.model.observe(h, 0.0)
        for vm in (even1, even2, odd):
            host.add_vm(vm)
        order = IPDistanceSelector().order(host, 14 * 24)
        assert order[0].name == "odd"

    def test_max_correlation_falls_back_when_short(self):
        host = self.make_host([0.5])
        order = MaximumCorrelationSelector().order(host, 0)
        assert len(order) == 1

    def test_select_until_not_overloaded(self):
        host = self.make_host([1.0, 1.0, 1.0, 1.0])  # util 8/8 = 1.0
        order = host.vms
        selected = select_until_not_overloaded(host, order, threshold=0.8)
        # Removing one VM: 6/8 = 0.75 <= 0.8.
        assert len(selected) == 1


class TestPlacement:
    def make_hosts(self, n):
        return [Host(f"h{i}", CAP) for i in range(n)]

    def test_pabfd_packs_by_power(self):
        hosts = self.make_hosts(2)
        hosts[0].add_vm(make_vm("existing", 0.5))
        vm = make_vm("new", 0.2)
        placement = PowerAwareBestFitDecreasing().place(
            [vm], hosts, 0, {})
        # Marginal power is identical (linear model) so the first host in
        # order wins; what matters is that a valid host is chosen.
        assert placement["new"].name in ("h0", "h1")

    def test_pabfd_respects_capacity(self):
        hosts = self.make_hosts(1)
        vms = [make_vm(f"v{i}") for i in range(5)]  # only 4 fit
        placement = PowerAwareBestFitDecreasing().place(vms, hosts, 0, {})
        assert len(placement) == 4

    def test_pabfd_excludes_current_host(self):
        hosts = self.make_hosts(2)
        vm = make_vm("v")
        hosts[0].add_vm(vm)
        placement = PowerAwareBestFitDecreasing().place(
            [vm], hosts, 0, {"v": hosts[0]})
        assert placement["v"].name == "h1"

    def test_ip_aware_places_with_closest_ip(self):
        hosts = self.make_hosts(2)
        idle_mate, busy_mate, cand = (make_vm(n) for n in ("im", "bm", "c"))
        for h in range(14 * 24):
            idle_mate.model.observe(h, 0.0)
            busy_mate.model.observe(h, 0.6)
            cand.model.observe(h, 0.0)
        hosts[0].add_vm(busy_mate)
        hosts[1].add_vm(idle_mate)
        placement = IPAwarePlacement().place([cand], hosts, 14 * 24, {})
        assert placement["c"].name == "h1"

    @pytest.mark.parametrize("bound", [False, True])
    def test_full_hosts_place_nothing_before_any_column(self, bound,
                                                        monkeypatch):
        """With no (VM, host) pair that fits, both policies return an
        empty plan without reading the mean-IP or demand column."""
        dc = build_dc([[0.5] * 4, [0.2] * 4])
        if bound:
            FleetBinding.try_bind(dc, DEFAULT_PARAMS)
        vm = make_vm("extra", 0.3)
        for cls in (ScalarHostView, HostAccounting):
            for name in ("mean_raw_ip", "cpu_demand"):
                monkeypatch.setattr(cls, name, None)
        for policy in (PowerAwareBestFitDecreasing(), IPAwarePlacement()):
            assert policy.place([vm], dc.hosts, 0, {}) == {}
            assert policy.place(list(dc.hosts[0].vms), dc.hosts[1:], 0,
                                {}) == {}


def build_dc(activities_by_host, params=DEFAULT_PARAMS):
    hosts = [Host(f"h{i}", CAP, params) for i in range(len(activities_by_host))]
    dc = DataCenter(hosts, params)
    k = 0
    for host, acts in zip(hosts, activities_by_host):
        for a in acts:
            vm = make_vm(f"vm{k}", a)
            dc.place(vm, host)
            k += 1
    return dc


class TestNeatController:
    def test_overloaded_host_sheds_vms(self):
        dc = build_dc([[1.0, 1.0, 1.0, 1.0], []])
        ctrl = NeatController(dc)
        for _ in range(2):
            ctrl.observe_hour(0)
        moved = ctrl.step(0, now=0.0)
        assert moved >= 1
        assert dc.host("h0").cpu_utilization <= 1.0
        dc.check_invariants()

    def test_underload_evacuation_powers_path(self):
        # h1 has one small VM and the lowest utilization; it fits on h0
        # -> h1 is evacuated, and the receiver h0 is not re-evacuated.
        dc = build_dc([[0.2, 0.2], [0.1]])
        ctrl = NeatController(dc)
        ctrl.observe_hour(0)
        ctrl.step(0, now=0.0)
        assert len(dc.host("h1").vms) == 0
        assert len(dc.host("h0").vms) == 3

    def test_no_action_when_balanced(self):
        dc = build_dc([[0.3, 0.3], [0.3, 0.3]])
        ctrl = NeatController(dc)
        ctrl.observe_hour(0)
        # Full hosts cannot be evacuated; nothing overloaded.
        before = len(dc.migrations)
        ctrl.step(0, now=0.0)
        # Underload may still try; invariants must hold regardless.
        dc.check_invariants()
        assert len(dc.migrations) >= before

    def test_history_recorded(self):
        dc = build_dc([[0.5]])
        ctrl = NeatController(dc)
        ctrl.observe_hour(0)
        ctrl.observe_hour(1)
        assert len(ctrl.history["h0"]) == 2


class TestDrowsyController:
    def train(self, dc, patterns, hours=7 * 24):
        """patterns: map vm name -> callable(hour) -> activity"""
        for t in range(hours):
            for vm in dc.vms:
                vm.model.observe(t, patterns[vm.name](t))

    def test_opportunistic_step_splits_wide_host(self):
        params = DEFAULT_PARAMS
        dc = build_dc([[0.0, 0.0], [0.0, 0.0]], params)
        # vm0 idle-pattern, vm1 active-pattern on same host; partners on h1.
        patterns = {
            "vm0": lambda t: 0.0,
            "vm1": lambda t: 0.5,
            "vm2": lambda t: 0.0,
            "vm3": lambda t: 0.5,
        }
        self.train(dc, patterns, hours=28 * 24)
        # Rearrange so h0 = {idle, active}, h1 = {idle, active}: wide ranges.
        ctrl = DrowsyController(dc, params=params)
        hour = 28 * 24
        assert dc.host("h0").ip_range(hour) > params.ip_range_threshold
        moved = ctrl.opportunistic_step(hour, lambda vm, dest: dc.migrate(vm, dest, 0.0))
        assert moved >= 1
        # After the step, like sits with like.
        h0_names = {vm.name for vm in dc.host("h0").vms}
        assert h0_names in ({"vm0", "vm2"}, {"vm1", "vm3"})

    def test_opportunistic_step_disabled_by_params(self):
        params = DEFAULT_PARAMS.replace(opportunistic_step=False)
        # Full hosts: underload evacuation cannot move anything either.
        dc = build_dc([[0.0] * 4, [0.0] * 4], params)
        ctrl = DrowsyController(dc, params=params)
        ctrl.observe_hour(0)
        before = len(dc.migrations)
        ctrl.step(0, now=0.0)
        # No overload, no underload possible (capacity), no opportunistic.
        assert len(dc.migrations) == before

    def test_relocate_all_groups_matching_patterns(self):
        params = DEFAULT_PARAMS
        dc = build_dc([[0.0, 0.0], [0.0, 0.0]], params)
        patterns = {
            "vm0": lambda t: 0.3 if t % 24 < 12 else 0.0,
            "vm1": lambda t: 0.3 if t % 24 >= 12 else 0.0,
            "vm2": lambda t: 0.3 if t % 24 < 12 else 0.0,
            "vm3": lambda t: 0.3 if t % 24 >= 12 else 0.0,
        }
        self.train(dc, patterns)
        ctrl = DrowsyController(dc, params=params)
        ctrl.relocate_all(7 * 24, now=7 * 24 * 3600.0)
        groups = [{vm.name for vm in dc.host(h).vms} for h in ("h0", "h1")]
        assert {"vm0", "vm2"} in groups
        assert {"vm1", "vm3"} in groups

    def test_relocate_all_stable_on_repeat(self):
        """Second relocation right after the first moves nothing."""
        params = DEFAULT_PARAMS
        dc = build_dc([[0.0, 0.0], [0.0, 0.0]], params)
        patterns = {
            "vm0": lambda t: 0.3 if t % 24 < 12 else 0.0,
            "vm1": lambda t: 0.3 if t % 24 >= 12 else 0.0,
            "vm2": lambda t: 0.3 if t % 24 < 12 else 0.0,
            "vm3": lambda t: 0.3 if t % 24 >= 12 else 0.0,
        }
        self.train(dc, patterns)
        ctrl = DrowsyController(dc, params=params)
        ctrl.relocate_all(7 * 24, now=0.0)
        assert ctrl.relocate_all(7 * 24, now=1.0) == 0

    def test_relocate_empty_dc(self):
        dc = DataCenter([Host("h0", CAP)])
        ctrl = DrowsyController(dc)
        assert ctrl.relocate_all(0, now=0.0) == 0


class TestOasis:
    def test_parks_idle_and_restores_active(self):
        dc = build_dc([[0.0], [0.0]])
        ctrl = OasisController(dc, n_consolidation_hosts=1)
        worker_vm = dc.host("h1").vms[0]
        ctrl.step(0, now=0.0)
        assert worker_vm.name in ctrl.parked
        assert ctrl.host_can_sleep(dc.host("h1"))
        worker_vm.current_activity = 0.5
        ctrl.step(1, now=3600.0)
        assert worker_vm.name not in ctrl.parked
        assert ctrl.restore_count == 1
        assert not ctrl.host_can_sleep(dc.host("h1"))

    def test_consolidation_host_never_sleeps(self):
        dc = build_dc([[0.0], [0.0]])
        ctrl = OasisController(dc, n_consolidation_hosts=1)
        ctrl.step(0, now=0.0)
        assert not ctrl.host_can_sleep(dc.host("h0"))

    def test_transfer_energy_accumulates(self):
        dc = build_dc([[0.0], [0.0]])
        ctrl = OasisController(dc)
        ctrl.step(0, now=0.0)
        assert ctrl.transfer_energy_j > 0

    def test_validation(self):
        dc = build_dc([[0.0]])
        with pytest.raises(ValueError):
            OasisController(dc, n_consolidation_hosts=1)  # no workers left
        with pytest.raises(ValueError):
            OasisController(dc, n_consolidation_hosts=0)
