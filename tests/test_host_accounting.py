"""Columnar host accounting parity (DESIGN.md §8).

The accounting layer must be *bit-identical* to the scalar per-host
properties (`Host.cpu_utilization`, `used_resources`, `all_vms_idle`,
`mean_raw_ip`, `ip_range`) — the scalar loop stays in the code as the
parity oracle.  Covers direct property comparisons under arbitrary
interleavings of migrations, VM arrivals and hour ticks (hypothesis),
plus end-to-end simulator parity with the accounting disabled.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Simulation
from repro.cluster.accounting import HostAccounting, columnar_host_view
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


def _assert_host_parity(dc, acc, hour):
    """Columnar vectors equal the scalar per-host oracle, bit for bit."""
    acc.verify()
    util = acc.cpu_utilization(hour)
    demand = acc.cpu_demand(hour)
    used_cpus = acc.used_cpus()
    used_mem = acc.used_memory_mb()
    counts = acc.vm_counts()
    all_idle = acc.all_idle(hour)
    mean_ip = acc.mean_raw_ip(hour)
    ip_range = acc.ip_range(hour)
    for k, host in enumerate(dc.hosts):
        assert acc.pos(host) == k
        used = host.used_resources
        assert int(used_cpus[k]) == used.cpus
        assert int(used_mem[k]) == used.memory_mb
        assert int(counts[k]) == len(host.vms)
        assert float(util[k]) == host.cpu_utilization
        assert float(demand[k]) == sum(
            vm.current_activity * vm.resources.cpus for vm in host.vms)
        assert bool(all_idle[k]) == host.all_vms_idle
        assert float(mean_ip[k]) == host.mean_raw_ip(hour)
        assert float(ip_range[k]) == host.ip_range(hour)


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
            acc = columnar_host_view(dc)
            if acc is None:
                # An arrival outside the binding marks the accounting
                # stale until the next tick rebinds the fleet, as the
                # simulators' rebind_fleet does.
                continue
            if loaded and binding.covers(dc.vms):
                _assert_host_parity(dc, acc, max(hour - 1, 0))

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
        acc = columnar_host_view(dc)
        _assert_host_parity(dc, acc, 4)


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
        assert columnar_host_view(dc) is None

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
        assert columnar_host_view(dc) is not None
        FleetBinding.try_bind(dc, DEFAULT_PARAMS, accounting=False)
        assert columnar_host_view(dc) is None

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
        assert columnar_host_view(dc) is dc._accounting
