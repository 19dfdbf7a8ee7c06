"""Host view parity (DESIGN.md §8).

Both host views — the columnar ``HostAccounting`` and the live
``ScalarHostView`` — must be *bit-identical* to the per-host properties
(`Host.cpu_utilization`, `used_resources`, `all_vms_idle`,
`mean_raw_ip`, `ip_range`), and so to each other.  Covers direct
property comparisons under arbitrary interleavings of migrations, VM
arrivals and hour ticks (hypothesis), a bare host list, a VM placed
since the last bind, plus end-to-end simulator parity with the
accounting disabled.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Simulation
from repro.cluster.accounting import (
    HostAccounting,
    ScalarHostView,
    host_list_view,
    host_view,
)
from repro.cluster.datacenter import DataCenter, PlacementError
from repro.cluster.host import Host
from repro.cluster.resources import HostCapacity, ResourceSpec
from repro.cluster.vm import VM
from repro.consolidation.drowsy import DrowsyController
from repro.consolidation.managers import DistributedNeat
from repro.consolidation.neat import NeatController
from repro.consolidation.oasis import OasisController
from repro.core.binding import FleetBinding
from repro.core.params import DEFAULT_PARAMS
from repro.experiments.common import build_fleet
from repro.faults import FaultPlan, HostCrashFaults, TransitionFaults
from repro.sim.event_driven import EventConfig
from repro.sim.hourly import HourlyConfig, HourlySimulator
from repro.traces.synthetic import daily_backup_trace, llmu_trace, weekly_pattern_trace
from tests.oracles import PerHostEventBackend, assert_results_equal

BIG_HOST = HostCapacity(cpus=64, memory_mb=64 * 1024, cpu_overcommit=1.0)
SMALL_VM = ResourceSpec(cpus=2, memory_mb=4 * 1024)
TINY_VM = ResourceSpec(cpus=1, memory_mb=2 * 1024)

CONTROLLERS = {
    "drowsy": lambda dc: DrowsyController(dc),
    "neat": lambda dc: NeatController(dc),
    "oasis": lambda dc: OasisController(dc),
    "neat-distributed": lambda dc: DistributedNeat(dc),
}


def _assert_host_parity(hosts, view, hour):
    """A view's vectors equal the per-host properties, bit for bit."""
    view.verify()
    util = view.cpu_utilization(hour)
    demand = view.cpu_demand(hour)
    used_cpus = view.used_cpus()
    used_mem = view.used_memory_mb()
    counts = view.vm_counts()
    all_idle = view.all_idle(hour)
    blocked = view.any_blocked_io()
    mean_ip = view.mean_raw_ip(hour)
    ip_range = view.ip_range(hour)
    for k, host in enumerate(hosts):
        assert view.pos(host) == k
        used = host.used_resources
        assert int(used_cpus[k]) == used.cpus
        assert int(used_mem[k]) == used.memory_mb
        assert int(counts[k]) == len(host.vms)
        assert float(util[k]) == host.cpu_utilization
        assert float(demand[k]) == sum(
            vm.current_activity * vm.resources.cpus for vm in host.vms)
        assert bool(all_idle[k]) == host.all_vms_idle
        assert bool(blocked[k]) == any(vm.blocked_io for vm in host.vms)
        assert float(mean_ip[k]) == host.mean_raw_ip(hour)
        assert view.host_mean_raw_ip(host, hour) == host.mean_raw_ip(hour)
        assert float(ip_range[k]) == host.ip_range(hour)
        assert float(view.capacity_cpus[k]) == host.capacity.cpus
    acts = view.vm_activities()
    assert acts.dtype == np.float64
    assert acts.tolist() == [vm.current_activity for host in hosts
                             for vm in host.vms]


def _columns(view, hour):
    """Every column a view serves, by name."""
    return {
        "vm_counts": view.vm_counts(),
        "used_cpus": view.used_cpus(),
        "used_memory_mb": view.used_memory_mb(),
        "cpu_demand": view.cpu_demand(hour),
        "cpu_utilization": view.cpu_utilization(hour),
        "all_idle": view.all_idle(hour),
        "sleepable": view.sleepable(hour),
        "any_blocked_io": view.any_blocked_io(),
        "mean_raw_ip": view.mean_raw_ip(hour),
        "ip_range": view.ip_range(hour),
        "overload_cpus": view.overload_cpus,
        "capacity_cpus": view.capacity_cpus,
        "capacity_memory_mb": view.capacity_memory_mb,
        "schedulable_cpus": view.schedulable_cpus,
        "name_rank": view.name_rank,
        "vm_activities": view.vm_activities(),
    }


def _assert_views_equal(acc, scalar, hour):
    """The two views serve the same columns, bit for bit."""
    assert scalar.positions == acc.positions
    got, want = _columns(scalar, hour), _columns(acc, hour)
    for name, col in want.items():
        assert got[name].dtype == col.dtype, name
        assert got[name].tobytes() == col.tobytes(), name


class TestColumnarParityProperties:
    """Hypothesis: arbitrary interleavings of migrations, arrivals,
    removals and hour ticks keep the view equal to the scalar oracle."""

    ops = st.lists(
        st.tuples(
            st.sampled_from(["tick", "migrate", "arrive", "remove", "tick"]),
            st.integers(0, 9), st.integers(0, 2)),
        min_size=1, max_size=30)

    def _vm(self, i):
        flavor = SMALL_VM if i % 2 == 0 else TINY_VM
        if i % 3 == 0:
            trace = daily_backup_trace(days=3)
        elif i % 3 == 1:
            trace = llmu_trace(hours=72, seed=i)
        else:
            trace = weekly_pattern_trace(
                f"w{i}", {d: (9, 10, 11) for d in range(7)}, weeks=1)
        return VM(f"v{i}", trace.with_name(f"v{i}"), flavor,
                  params=DEFAULT_PARAMS)

    @settings(max_examples=30, deadline=None)
    @given(ops)
    def test_view_matches_scalar_oracle(self, operations):
        params = DEFAULT_PARAMS
        hosts = [Host(f"h{i}", BIG_HOST, params) for i in range(3)]
        dc = DataCenter(hosts, params)
        vms = [self._vm(i) for i in range(10)]
        placed = list(vms[:6])
        for i, vm in enumerate(placed):
            dc.place(vm, hosts[i % 3])
        spare = list(vms[6:])
        binding = FleetBinding.try_bind(dc, params)
        assert binding is not None
        hour = 0
        loaded = False

        for clock, (op, vm_i, host_i) in enumerate(operations, start=1):
            if op == "tick":
                binding = FleetBinding.try_bind(dc, params)
                col = binding.load_hour(hour)
                binding.observe(hour, col)
                hour += 1
                loaded = True
            elif op == "migrate" and placed:
                vm = placed[vm_i % len(placed)]
                dest = hosts[host_i]
                if dc.host_of(vm) is not dest and dest.can_host(vm):
                    dc.migrate(vm, dest, now=float(clock))
            elif op == "arrive" and spare:
                vm = spare.pop()
                if hosts[host_i].can_host(vm):
                    dc.place(vm, hosts[host_i])
                    placed.append(vm)
                else:
                    spare.append(vm)
            elif op == "remove" and placed:
                vm = placed.pop(vm_i % len(placed))
                dc.remove(vm, now=float(clock))
                spare.append(vm)

            # The single writer keeps every index and (valid) row set
            # in step after each op — nothing to reconcile.
            dc.check_invariants()
            view = host_view(dc)
            scalar = ScalarHostView(dc.host_columns)
            at = max(hour - 1, 0)
            if dc._accounting.valid:
                assert view is dc._accounting
                if loaded:
                    _assert_host_parity(dc.hosts, view, at)
                    _assert_views_equal(view, scalar, at)
            else:
                # An arrival outside the binding marks the accounting
                # stale until the next tick rebinds the fleet, as the
                # simulators' rebind_fleet does: the view is scalar.
                assert type(view) is ScalarHostView
            _assert_host_parity(dc.hosts, scalar, at)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(2, 12))
    def test_deep_host_exact_sums(self, n_vms):
        """Hosts beyond numpy's pairwise-summation block size (8) still
        reproduce Python's sequential sums exactly."""
        params = DEFAULT_PARAMS
        host = Host("big", BIG_HOST, params)
        dc = DataCenter([host], params)
        vms = [VM(f"v{i}", llmu_trace(hours=48, seed=i), TINY_VM,
                  params=params) for i in range(n_vms)]
        for vm in vms:
            dc.place(vm, host)
        binding = FleetBinding.try_bind(dc, params)
        for t in range(5):
            col = binding.load_hour(t)
            binding.observe(t, col)
        acc = host_view(dc)
        assert acc is dc._accounting
        _assert_host_parity(dc.hosts, acc, 4)
        scalar = ScalarHostView(dc.host_columns)
        _assert_host_parity(dc.hosts, scalar, 4)
        _assert_views_equal(acc, scalar, 4)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31), st.integers(1, 6), st.integers(1, 4))
    def test_views_agree_on_random_fleets(self, seed, n_hosts, per_host):
        """Random fleets, placements, hours, blocked-I/O flags and
        migrations: the scalar view serves the accounting's columns."""
        rng = np.random.default_rng(seed)
        dc = build_fleet(n_hosts, n_hosts * per_host, float(rng.random()), 48,
                         seed=int(rng.integers(1000)))
        binding = FleetBinding.try_bind(dc, DEFAULT_PARAMS)
        hours = int(rng.integers(1, 30))
        for t in range(hours):
            binding.observe(t, binding.load_hour(t))
        for vm in dc.vms:
            if rng.random() < 0.2:
                vm.blocked_io = True
        for _ in range(int(rng.integers(0, 4))):
            vm = dc.vms[int(rng.integers(len(dc.vms)))]
            dest = dc.hosts[int(rng.integers(n_hosts))]
            if dc.host_of(vm) is not dest and dest.can_host(vm):
                dc.migrate(vm, dest, now=float(hours * 3600))
        acc = host_view(dc)
        assert acc is dc._accounting
        scalar = ScalarHostView(dc.host_columns)
        _assert_views_equal(acc, scalar, hours - 1)
        _assert_host_parity(dc.hosts, scalar, hours - 1)

    def test_bare_host_list_gets_a_scalar_view(self):
        """Hosts outside any data center: a scalar view of the list
        itself, in list order."""
        params = DEFAULT_PARAMS
        hosts = [Host(f"h{i}", BIG_HOST, params) for i in (2, 0, 1)]
        for i in range(5):
            vm = VM(f"v{i}", llmu_trace(hours=24, seed=i),
                    SMALL_VM if i % 2 else TINY_VM, params=params)
            vm.current_activity = vm.activity_at(3)
            hosts[i % 2].add_vm(vm)
        view, pos = host_list_view(hosts)
        assert type(view) is ScalarHostView
        assert pos.tolist() == [0, 1, 2]
        assert view.name_rank.tolist() == [2, 0, 1]
        _assert_host_parity(hosts, view, 3)

    def test_host_list_of_a_data_center_reads_its_view(self):
        dc = build_fleet(n_hosts=4, n_vms=12, llmi_fraction=0.5, hours=24)
        FleetBinding.try_bind(dc, DEFAULT_PARAMS).load_hour(0)
        subset = [dc.hosts[3], dc.hosts[1]]
        view, pos = host_list_view(subset)
        assert view is dc._accounting
        assert pos.tolist() == [3, 1]

    def test_vm_placed_since_bind_gets_the_scalar_view(self):
        """A VM placed after the last bind: the accounting goes stale
        and the view is scalar, equal to the properties, until a rebind
        brings the accounting back with the same columns."""
        dc = build_fleet(n_hosts=3, n_vms=9, llmi_fraction=0.5, hours=24)
        binding = FleetBinding.try_bind(dc, DEFAULT_PARAMS)
        binding.observe(0, binding.load_hour(0))
        binding.load_hour(1)
        host = next(h for h in dc.hosts if h.can_host(
            VM("probe", llmu_trace(hours=24, seed=1), TINY_VM)))
        newcomer = VM("newcomer", llmu_trace(hours=24, seed=9), TINY_VM)
        newcomer.current_activity = newcomer.activity_at(1)
        dc.place(newcomer, host)
        view = host_view(dc)
        assert type(view) is ScalarHostView
        assert host_view(dc) is not view  # built per call, never cached
        _assert_host_parity(dc.hosts, view, 1)
        binding = FleetBinding.try_bind(dc, DEFAULT_PARAMS)
        binding.ensure_horizon(0, 24)
        binding.load_hour(1)
        acc = host_view(dc)
        assert acc is dc._accounting
        _assert_views_equal(acc, view, 1)


class TestSimulatorParityWithAccounting:
    """Accounting on vs off changes nothing observable, only speed."""

    @staticmethod
    def _hourly(controller_name, use_accounting):
        dc = build_fleet(n_hosts=8, n_vms=24, llmi_fraction=0.5, hours=72)
        sim = HourlySimulator(
            dc, CONTROLLERS[controller_name](dc),
            config=HourlyConfig(use_host_accounting=use_accounting))
        return sim.run(72)

    @pytest.mark.parametrize("controller", sorted(CONTROLLERS))
    def test_hourly_accounting_parity(self, controller):
        off = self._hourly(controller, False)
        on = self._hourly(controller, True)
        assert on.energy_kwh_by_host == off.energy_kwh_by_host
        assert on.suspend_cycles_by_host == off.suspend_cycles_by_host
        assert on.suspended_fraction_by_host == off.suspended_fraction_by_host
        assert on.migrations == off.migrations
        assert on.vm_migrations == off.vm_migrations
        assert on.overload_host_hours == off.overload_host_hours
        assert on.active_host_hours == off.active_host_hours

    def test_event_accounting_parity(self):
        """Every field, event count included.  Crashes and failed
        resumes leave resumed hosts in grace windows that end mid-hour,
        so the columnar post-resume grace decides suspend instants."""
        plan = FaultPlan(
            name="evacuations",
            crashes=HostCrashFaults(rate_per_host_per_h=0.05,
                                    recover_after_s=900.0),
            transitions=TransitionFaults(resume_failure_probability=0.3,
                                         recover_after_s=1200.0))

        def run(backend):
            dc = build_fleet(n_hosts=16, n_vms=48, llmi_fraction=0.75,
                             hours=8, seed=5)
            return Simulation(dc, "drowsy", backend,
                              config=EventConfig(seed=5),
                              faults=plan).run(8)

        off = run(PerHostEventBackend(per_host_checks=False,
                                      per_push_requests=False,
                                      binding="no-accounting"))
        on = run("event")
        assert sum(on.resume_cycles_by_host.values()) > 0
        assert_results_equal(on, off)


class TestHostAccountingUnit:
    def _bound(self, n_hosts=2, n_vms=6):
        dc = build_fleet(n_hosts=n_hosts, n_vms=n_vms, llmi_fraction=0.5,
                         hours=48)
        binding = FleetBinding.try_bind(dc, DEFAULT_PARAMS)
        binding.load_hour(0)
        return dc, binding

    def test_incidence_matrix_shape_and_content(self):
        dc, binding = self._bound()
        acc = dc._accounting
        P = acc.incidence_matrix()
        assert P.shape == (len(dc.hosts), binding.fleet.n)
        np.testing.assert_array_equal(P.sum(axis=0), np.ones(binding.fleet.n))
        for k, host in enumerate(dc.hosts):
            assert P[k].sum() == len(host.vms)
            for vm in host.vms:
                assert P[k, binding.index[vm.name]] == 1.0

    def test_incidence_tracks_migration_incrementally(self):
        dc, binding = self._bound()
        acc = dc._accounting
        epoch = acc.epoch
        vm = dc.hosts[0].vms[0]
        dc.migrate(vm, dc.hosts[1], now=1.0)
        assert acc.epoch > epoch
        P = acc.incidence_matrix()
        assert P[1, binding.index[vm.name]] == 1.0
        assert P[0, binding.index[vm.name]] == 0.0
        acc.verify()

    def test_unknown_vm_marks_stale(self):
        dc, _ = self._bound()
        acc = dc._accounting
        newcomer = VM("newcomer", daily_backup_trace(days=2), TINY_VM)
        dc.place(newcomer, dc.hosts[0])
        assert not acc.valid
        assert type(host_view(dc)) is ScalarHostView

    def test_empty_host_semantics(self):
        params = DEFAULT_PARAMS
        hosts = [Host("a", BIG_HOST, params), Host("b", BIG_HOST, params)]
        dc = DataCenter(hosts, params)
        vm = VM("only", daily_backup_trace(days=2), SMALL_VM, params=params)
        dc.place(vm, hosts[0])
        binding = FleetBinding.try_bind(dc, params)
        binding.load_hour(0)
        acc = dc._accounting
        # Host b is empty: utilization 0, mean IP 0, all-idle True
        # (all() over the empty list), exactly like the scalar oracle.
        assert float(acc.cpu_utilization(0)[1]) == hosts[1].cpu_utilization == 0.0
        assert float(acc.mean_raw_ip(0)[1]) == hosts[1].mean_raw_ip(0) == 0.0
        assert bool(acc.all_idle(0)[1]) is hosts[1].all_vms_idle is True
        assert not acc.sleepable(0)[1]
        assert float(acc.ip_range(0)[0]) == hosts[0].ip_range(0) == 0.0

    def test_accounting_disabled_detaches(self):
        dc, _ = self._bound()
        assert host_view(dc) is dc._accounting
        FleetBinding.try_bind(dc, DEFAULT_PARAMS, accounting=False)
        assert dc._accounting is None
        assert type(host_view(dc)) is ScalarHostView

    def test_position_and_pos(self):
        dc, _ = self._bound()
        acc = dc._accounting
        for k, host in enumerate(dc.hosts):
            assert acc.pos(host) == acc.position(host.name) == k
        assert acc.position("nope") is None

    def test_verify_raises_on_direct_wiring(self):
        dc, _ = self._bound()
        acc = dc._accounting
        dc.check_invariants()
        vm = dc.hosts[0].vms.pop()  # behind the data center's back
        dc.hosts[1].vms.append(vm)
        with pytest.raises(AssertionError):
            acc.verify()
        # check_invariants only asserts: it reports the divergence and
        # leaves the rows as they were.
        with pytest.raises(PlacementError):
            dc.check_invariants()
        with pytest.raises(AssertionError):
            acc.verify()

    def test_hourly_simulator_attaches_accounting(self):
        dc = build_fleet(n_hosts=4, n_vms=12, llmi_fraction=0.5, hours=24)
        HourlySimulator(dc, DrowsyController(dc))
        assert isinstance(dc._accounting, HostAccounting)
        assert host_view(dc) is dc._accounting
