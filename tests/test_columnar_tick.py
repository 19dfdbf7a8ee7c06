"""The columnar hour tick (DESIGN.md §7) against its per-host references.

Every columnar piece — the meter bank, the power-step masks, the
vectorized placement policies and Drowsy/Neat's host scans — must give
bit-identical results to the per-host loops kept in ``tests/oracles.py``.
"""

from collections import deque
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Simulation, build_controller
from repro.cluster import DataCenter, Host, HostCapacity, PowerModel, ResourceSpec, VM
from repro.cluster.accounting import HostAccounting, ScalarHostView, host_view
from repro.cluster.power import POWER_STATES, EnergyMeter, PowerState
from repro.consolidation import (
    DrowsyController,
    IPAwarePlacement,
    IqrDetector,
    LocalRegressionDetector,
    MadDetector,
    PowerAwareBestFitDecreasing,
    ThresholdDetector,
)
from repro.consolidation.baseline import PassiveController
from repro.core.binding import FleetBinding
from repro.core.params import DEFAULT_PARAMS, SIGMA
from repro.experiments.common import build_fleet
from repro.sim.hourly import HourlyConfig, HourlySimulator
from repro.traces.synthetic import always_idle_trace, llmu_trace

from tests.oracles import (
    LoopIPAwarePlacement,
    LoopPowerAwareBestFitDecreasing,
    PerHostDrowsyController,
    ScalarEnergyMeter,
    ScalarHourlySimulator,
    assert_results_equal,
)

CAP = HostCapacity(cpus=8, memory_mb=16384, cpu_overcommit=1.0)
FLAVOR = ResourceSpec(cpus=2, memory_mb=4096)


# ----------------------------------------------------------------------
# meter bank vs the scalar meter
# ----------------------------------------------------------------------
_models = st.tuples(
    st.floats(0.0, 20.0), st.floats(0.0, 80.0), st.floats(0.0, 150.0),
    st.floats(0.0, 3.0),
).map(lambda w: PowerModel(suspend_w=w[0], idle_w=w[0] + w[1],
                           max_w=w[0] + w[1] + w[2], off_w=w[3]))

_step = st.tuples(
    # elapsed time: zero-length steps included
    st.one_of(st.just(0.0), st.floats(0.0, 7200.0)),
    st.lists(st.sampled_from(POWER_STATES), min_size=5, max_size=5),
    st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5),
    # hosts charged on their own first, at a per-host earlier instant
    st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5),
    st.lists(st.booleans(), min_size=5, max_size=5),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(_models, min_size=1, max_size=5), st.lists(_step, max_size=12))
def test_meter_bank_matches_scalar_meters(models, steps):
    """Random per-host times, states, utilizations and power models,
    OFF/CRASHED intervals and zero-length steps: every row of the bank
    is bit-equal to a standalone scalar meter fed the same intervals."""
    hosts = [Host(f"h{k}", CAP, power_model=m) for k, m in enumerate(models)]
    dc = DataCenter(hosts)
    ref = [ScalarEnergyMeter(m) for m in models]
    now = 0.0
    for dt, states, utils, frac, solo in steps:
        prev, now = now, now + dt
        for k, host in enumerate(hosts):
            if solo[k]:
                # A single-host charge (a transition or migration) to
                # somewhere inside the step, then the state change.
                at = prev + frac[k] * dt
                u = utils[k] if host.state is PowerState.ON else 0.0
                host.meter.advance(at, host.state, u)
                ref[k].advance(at, host.state, u)
            host.state = states[k]
        column = utils[:len(hosts)]
        dc.sync_meters(now, column)
        for k, host in enumerate(hosts):
            u = column[k] if host.state is PowerState.ON else 0.0
            ref[k].advance(now, host.state, u)
    for host, r in zip(hosts, ref):
        assert host.meter.energy_j == r.energy_j
        assert host.meter.state_seconds == r.state_seconds
        assert host.meter.last_time == r.last_time
        assert host.meter.total_seconds == sum(r.state_seconds.values())


def test_meter_bank_rewind_names_the_host():
    hosts = [Host("alpha"), Host("beta")]
    dc = DataCenter(hosts)
    hosts[1].sync_meter(100.0)
    ref = ScalarEnergyMeter(PowerModel())
    ref.advance(100.0, PowerState.ON, 0.0)
    with pytest.raises(ValueError, match="time went backwards"):
        ref.advance(50.0, PowerState.ON, 0.0)
    with pytest.raises(ValueError, match=r"^beta: time went backwards"):
        dc.sync_meters(50.0)
    with pytest.raises(ValueError, match=r"^beta: time went backwards"):
        hosts[1].sync_meter(50.0)
    # Within the 1 ns slack nothing is charged and nothing raises.
    dc.sync_meters(100.0 - 1e-10)
    assert hosts[1].meter.last_time == 100.0


def test_meter_bank_rejects_out_of_range_utilization():
    dc = DataCenter([Host("a"), Host("b")])
    with pytest.raises(ValueError, match="utilization"):
        dc.sync_meters(10.0, [0.5, 1.5])
    # A non-ON host is charged at utilization 0 whatever the column says.
    dc.hosts[1].state = PowerState.SUSPENDED
    dc.sync_meters(10.0, [0.5, 1.5])


def test_standalone_meter_has_its_own_row():
    meter = EnergyMeter(PowerModel(idle_w=50, max_w=120, suspend_w=5))
    meter.advance(3600.0, PowerState.ON, 0.0)
    ref = ScalarEnergyMeter(PowerModel(idle_w=50, max_w=120, suspend_w=5))
    ref.advance(3600.0, PowerState.ON, 0.0)
    assert meter.energy_j == ref.energy_j
    assert meter._bank.energy_j.shape == (1,)


def test_data_center_reseats_host_meters():
    """Meters charged before the data center existed keep their rows;
    the state writer updates the bank's state column."""
    a, b = Host("a"), Host("b")
    a.meter.advance(60.0, PowerState.ON, 0.25)
    before = a.meter.energy_j
    meter = a.meter
    dc = DataCenter([a, b])
    assert a.meter is meter and meter._bank is dc.meters
    assert a.meter.energy_j == before and a.meter.last_time == 60.0
    b.power_off(0.0)
    assert dc.meters.state[1] == PowerState.OFF.code
    b.state = PowerState.CRASHED
    assert dc.meters.state[1] == PowerState.CRASHED.code
    dc.check_invariants()


# ----------------------------------------------------------------------
# vectorized placement vs the pair loops
# ----------------------------------------------------------------------
def _vm(name, rng, ip, memory_mb=None):
    vm = VM(name, llmu_trace(hours=48, seed=int(rng.integers(1 << 30))),
            ResourceSpec(cpus=int(rng.integers(1, 4)),
                         memory_mb=memory_mb or int(rng.choice([2048, 4096]))))
    vm.model.sid[:] = ip
    vm.model.weights = np.array([1.0, 0.0, 0.0, 0.0])
    return vm


def _placement_fleet(seed: int, bound: bool):
    """Hosts in shuffled name order with equal capacity; IPs drawn from
    a few values so whole tolerance buckets tie, and equal per-host
    loads so free memory ties and the name decides."""
    rng = np.random.default_rng(seed)
    n_hosts = int(rng.integers(3, 9))
    names = [f"h{k:02d}" for k in rng.permutation(n_hosts)]
    hosts = [Host(name, CAP) for name in names]
    dc = DataCenter(hosts)
    ips = rng.choice([0.0, 1.0, 3.0], size=4 * n_hosts) * SIGMA
    n = 0
    for host in hosts:
        for _ in range(int(rng.integers(0, 3))):
            dc.place(_vm(f"p{n:03d}", rng, ips[n], memory_mb=4096), host)
            n += 1
    movers = [_vm(f"m{k:02d}", rng, ips[k]) for k in range(int(rng.integers(1, 6)))]
    # One VM that fits nowhere.
    movers.append(_vm("huge", rng, 0.0, memory_mb=CAP.memory_mb + 1))
    spare = hosts[int(rng.integers(n_hosts))]
    for vm in movers:
        if spare.can_host(vm):
            dc.place(vm, spare)
    if bound:
        binding = FleetBinding.try_bind(dc, DEFAULT_PARAMS)
        binding.ensure_horizon(0, 24)
        binding.load_hour(5)
        assert dc._accounting is not None
    else:
        for vm in dc.vms:
            vm.current_activity = vm.activity_at(5)
    current = {vm.name: dc.host_of(vm) for vm in movers
               if vm.name in dc._placement}
    return dc, rng.permutation(hosts).tolist(), movers, current


@pytest.mark.parametrize("bound", [True, False], ids=["accounting", "unbound"])
@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("tol", [0.0, 0.5 * SIGMA, 10.0])
def test_ip_aware_placement_matches_loop(seed, bound, tol):
    dc, hosts, movers, current = _placement_fleet(seed, bound)
    params = replace(DEFAULT_PARAMS, ip_distance_tolerance=tol)
    got = IPAwarePlacement(params).place(movers, hosts, 5, current)
    want = LoopIPAwarePlacement(params).place(movers, hosts, 5, current)
    assert {k: h.name for k, h in got.items()} == {
        k: h.name for k, h in want.items()}
    assert "huge" not in got


@pytest.mark.parametrize("bound", [True, False], ids=["accounting", "unbound"])
@pytest.mark.parametrize("seed", range(12))
def test_pabfd_matches_loop(seed, bound):
    dc, hosts, movers, current = _placement_fleet(seed, bound)
    if seed % 2:
        # Idle movers add no power anywhere: every score ties at 0.
        for vm in movers:
            vm.current_activity = 0.0
    got = PowerAwareBestFitDecreasing().place(movers, hosts, 5, current)
    want = LoopPowerAwareBestFitDecreasing().place(movers, hosts, 5, current)
    assert {k: h.name for k, h in got.items()} == {
        k: h.name for k, h in want.items()}
    assert "huge" not in got


def test_placement_ties_break_by_name():
    """Same bucket, same free memory: the smallest name wins, whatever
    the host list order."""
    rng = np.random.default_rng(0)
    hosts = [Host(name, CAP) for name in ("hc", "ha", "hb")]
    DataCenter(hosts)
    vm = _vm("v", rng, 0.0)
    for policy in (IPAwarePlacement(), PowerAwareBestFitDecreasing()):
        assert policy.place([vm], hosts, 0, {})["v"].name == "ha"


# ----------------------------------------------------------------------
# the opportunistic step re-reads the range column
# ----------------------------------------------------------------------
def _crossing_fleet(bound: bool):
    """A (range 10σ) sends its extreme VM to B, pushing B (range 1σ)
    over the 7σ threshold; C is far away."""
    rng = np.random.default_rng(1)
    hosts = [Host(name, CAP) for name in ("A", "B", "C")]
    dc = DataCenter(hosts)
    layout = {"A": [("a1", 0.0), ("a2", 10.0)],
              "B": [("b1", 16.5), ("b2", 17.5)],
              "C": [("c1", 100.0)]}
    for host in hosts:
        for name, ip in layout[host.name]:
            dc.place(_vm(name, rng, ip * SIGMA, memory_mb=4096), host)
    if bound:
        FleetBinding.try_bind(dc, DEFAULT_PARAMS)
        assert dc._accounting is not None
    return dc


@pytest.mark.parametrize("bound", [True, False], ids=["accounting", "unbound"])
def test_opportunistic_step_rereads_ranges(bound):
    results = []
    for cls in (DrowsyController, PerHostDrowsyController):
        dc = _crossing_fleet(bound)
        ctrl = cls(dc)
        moved = ctrl.opportunistic_step(
            0, lambda vm, dest: dc.migrate(vm, dest, 0.0))
        results.append((moved, [(r.vm_name, r.source, r.destination)
                                for r in dc.migrations]))
    assert results[0] == results[1]
    # B crossed the threshold mid-pass and was split later in it.
    assert results[0] == (2, [("a2", "A", "B"), ("a2", "B", "A")])


# ----------------------------------------------------------------------
# whole runs: columnar scans and power step vs the per-host loops
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [3, 8])
@pytest.mark.parametrize("accounting", [True, False])
def test_drowsy_scans_match_per_host_controller(seed, accounting):
    """Production DrowsyController vs the per-host one, on fleets that
    migrate (loose packing, half-empty hosts)."""
    results = []
    for cls in (DrowsyController, PerHostDrowsyController):
        dc = build_fleet(n_hosts=12, n_vms=20, llmi_fraction=0.5,
                         hours=72, seed=seed)
        sim = HourlySimulator(dc, cls(dc), config=HourlyConfig(
            use_host_accounting=accounting))
        results.append(sim.run(72))
    assert results[0].migrations > 0
    assert_results_equal(results[0], results[1])


def _power_fleet(seed: int, params) -> DataCenter:
    """Random host states, VM counts, idle or busy VMs and grace
    deadlines, at hour 1."""
    rng = np.random.default_rng(seed)
    hosts = [Host(f"h{k}", CAP, params)
             for k in range(int(rng.integers(1, 9)))]
    dc = DataCenter(hosts, params)
    n = 0
    for host in hosts:
        for _ in range(int(rng.integers(0, 3))):
            trace = (always_idle_trace(48) if rng.random() < 0.6
                     else llmu_trace(hours=48, seed=int(rng.integers(99))))
            vm = VM(f"v{n}", trace, FLAVOR, params=params)
            vm.current_activity = vm.activity_at(1)
            dc.place(vm, host)
            n += 1
    for host in hosts:
        host.state = POWER_STATES[int(rng.integers(len(POWER_STATES)))]
        host.grace_until = float(rng.choice(
            [0.0, 3600.0, 3610.0, 3620.0, 3650.0, 7300.0]))
    return dc


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**31), st.booleans(), st.booleans(), st.booleans(),
       st.booleans())
def test_power_step_masks_match_per_host_loop(seed, bound, use_grace,
                                              power_off_empty,
                                              suspend_enabled):
    """The columnar power step against the host-by-host loop from
    every mix of states: crashed hosts untouched, empty suspended
    hosts left asleep, OFF hosts with VMs powered on (and possibly
    suspended again), suspends pushed to a grace deadline or dropped
    when the hour has no room left."""
    params = replace(DEFAULT_PARAMS, use_grace=use_grace)
    config = HourlyConfig(power_off_empty=power_off_empty,
                          suspend_enabled=suspend_enabled)
    outcomes = []
    for cls in (HourlySimulator, ScalarHourlySimulator):
        dc = _power_fleet(seed, params)
        sim = cls(dc, PassiveController(), params=params,
                  config=replace(config, use_host_accounting=bound))
        view = host_view(dc)
        accounted = bound and cls is HourlySimulator and bool(dc.vms)
        assert type(view) is (HostAccounting if accounted
                              else ScalarHostView)
        counts = np.array([len(h.vms) for h in dc.hosts], dtype=np.int64)
        sim._power_step(1, 3600.0, view, counts)
        outcomes.append([(h.state, h.transitions, h.suspend_count,
                          h.resume_count, h.grace_until, h.meter.energy_j,
                          h.meter.state_seconds, h.meter.last_time)
                         for h in dc.hosts])
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("controller", ["drowsy", "neat", "oasis"])
def test_columnar_power_step_matches_per_host_loop(controller):
    fast = Simulation(build_fleet(8, 20, 0.5, 48, seed=4), controller).run(48)
    dc = build_fleet(8, 20, 0.5, 48, seed=4)
    ref = ScalarHourlySimulator(dc, build_controller(controller, dc, dc.params)).run(48)
    assert_results_equal(fast, ref)


# ----------------------------------------------------------------------
# detectors accept any sequence
# ----------------------------------------------------------------------
_DETECTORS = [ThresholdDetector(), MadDetector(), IqrDetector(),
              LocalRegressionDetector()]


@pytest.mark.parametrize("container", [list, deque, np.array],
                         ids=["list", "deque", "ndarray"])
@pytest.mark.parametrize("detector", _DETECTORS,
                         ids=lambda d: type(d).__name__)
def test_detectors_accept_any_sequence(detector, container):
    rng = np.random.default_rng(2)
    for n in (0, 1, 2, 9, 10, 11, 24):
        for _ in range(5):
            history = rng.uniform(0.0, 1.0, n).tolist()
            assert (detector.is_overloaded(container(history))
                    == detector.is_overloaded(list(history)))


@pytest.mark.parametrize("bound", [True, False], ids=["accounting", "unbound"])
def test_history_matrix_keeps_the_window(bound):
    """The last ``window`` utilizations per host, 0.0 while not ON."""
    dc = DataCenter([Host("h0", CAP), Host("h1", CAP)])
    for k, host in enumerate(dc.hosts):
        dc.place(VM(f"v{k}", llmu_trace(hours=48, seed=k), FLAVOR), host)
    binding = FleetBinding.try_bind(dc, DEFAULT_PARAMS) if bound else None
    if bound:
        binding.ensure_horizon(0, 48)
    ctrl = DrowsyController(dc, history_window=3)
    assert ctrl.history["h0"].tolist() == []
    expected = {"h0": [], "h1": []}
    for t in range(5):
        if bound:
            binding.load_hour(t)
        else:
            for vm in dc.vms:
                vm.current_activity = vm.activity_at(t)
        dc.hosts[1].state = (PowerState.ON if t % 2 else PowerState.SUSPENDED)
        ctrl.observe_hour(t)
        for host in dc.hosts:
            expected[host.name].append(host.cpu_utilization
                                       if host.state is PowerState.ON else 0.0)
        assert ctrl.history["h0"].tolist() == expected["h0"][-3:]
    assert ctrl.history["h1"].tolist() == expected["h1"][-3:]
    assert expected["h1"][-2] > 0.0 and expected["h1"][-1] == 0.0
    assert dc.hosts[1].cpu_utilization > 0.0


# ----------------------------------------------------------------------
# membership without scans
# ----------------------------------------------------------------------
def test_covers_is_a_flag_for_the_bound_population():
    hosts = [Host(f"h{i}") for i in range(2)]
    dc = DataCenter(hosts)
    dc.place(VM("old", always_idle_trace(48), FLAVOR), hosts[0])
    binding = FleetBinding.try_bind(dc, DEFAULT_PARAMS)
    vms = dc.vms
    assert dc.vms is vms  # cached per placement epoch
    assert binding.covers(vms)
    dc.migrate(vms[0], hosts[1], 0.0)
    assert dc.vms is not vms and binding.covers(dc.vms)
    dc.place(VM("new", always_idle_trace(48), FLAVOR), hosts[0])
    assert not binding.covers(dc.vms)
    dc.remove(dc.find_vm("new")[0], 0.0)
    assert binding.covers(dc.vms)  # re-scanned once the stranger left


def test_current_activity_reads_the_binding_column():
    dc = DataCenter([Host("h0")])
    vm = VM("v", llmu_trace(hours=48, seed=3), FLAVOR)
    vm.current_activity = 0.25
    dc.place(vm, dc.hosts[0])
    binding = FleetBinding.try_bind(dc, DEFAULT_PARAMS)
    assert vm.current_activity == 0.25  # imported into the column
    binding.ensure_horizon(0, 48)
    col = binding.load_hour(7)
    assert type(vm.current_activity) is float
    assert vm.current_activity == col[0] == vm.activity_at(7)
    vm.current_activity = 0.5
    assert binding.activity[0] == 0.5
    assert binding.activities(7)[0] == vm.activity_at(7)  # trace intact
    vm.unbind_activity()
    binding.load_hour(8)
    assert vm.current_activity == 0.5
