"""Tests for the suspension subsystem: processes, timers, grace, module."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import Host, ResourceSpec, ServiceTimer, TESTBED_VM, VM
from repro.core.params import DEFAULT_PARAMS, SIGMA
from repro.suspend import (
    DEFAULT_BLACKLIST,
    ProcState,
    Process,
    SuspendDecision,
    SuspendingModule,
    TimerEntry,
    TimerRegistry,
    compute_waking_date,
    grace_from_raw_ip,
    grace_time_s,
    host_process_table,
    is_host_idle,
    vm_process_name,
)
from repro.traces.synthetic import always_idle_trace
from tests.oracles import build_host_registry


def make_host(n_vms=1, timers=()):
    host = Host("h")
    vms = []
    for i in range(n_vms):
        vm = VM(f"vm{i}", always_idle_trace(48), TESTBED_VM, timers=timers)
        host.add_vm(vm)
        vms.append(vm)
    return host, vms


class TestProcessTable:
    def test_daemons_always_running(self):
        host, _ = make_host()
        table = host_process_table(host)
        daemons = [p for p in table if p.vm_name is None]
        assert len(daemons) == len(DEFAULT_BLACKLIST)
        assert all(p.state is ProcState.RUNNING for p in daemons)

    def test_active_vm_process_running(self):
        host, (vm,) = make_host()
        vm.current_activity = 0.4
        table = host_process_table(host)
        proc = next(p for p in table if p.vm_name == vm.name)
        assert proc.state is ProcState.RUNNING
        assert proc.name == vm_process_name(vm)

    def test_idle_vm_process_sleeping(self):
        host, (vm,) = make_host()
        table = host_process_table(host)
        proc = next(p for p in table if p.vm_name == vm.name)
        assert proc.state is ProcState.SLEEPING

    def test_blocked_io_injection(self):
        host, (vm,) = make_host()
        vm.blocked_io = True
        table = host_process_table(host)
        proc = next(p for p in table if p.vm_name == vm.name)
        assert proc.state is ProcState.BLOCKED_IO


class TestIsHostIdle:
    def test_blacklisted_running_is_ignored(self):
        table = [Process("watchdogd", ProcState.RUNNING)]
        assert is_host_idle(table)

    def test_non_blacklisted_running_keeps_awake(self):
        table = [Process("qemu-vm0", ProcState.RUNNING, "vm0")]
        assert not is_host_idle(table)

    def test_blocked_io_keeps_awake_even_blacklisted(self):
        """A blocked read is pending work regardless of the blacklist."""
        table = [Process("watchdogd", ProcState.BLOCKED_IO)]
        assert not is_host_idle(table)

    def test_all_sleeping_is_idle(self):
        table = [Process("qemu-a", ProcState.SLEEPING, "a"),
                 Process("qemu-b", ProcState.SLEEPING, "b")]
        assert is_host_idle(table)


class TestTimerRegistry:
    def test_earliest_valid_skips_blacklisted(self):
        reg = TimerRegistry()
        reg.register(TimerEntry(10.0, "watchdogd", "tick"))
        reg.register(TimerEntry(50.0, "service", "cron"))
        entry = reg.earliest_valid()
        assert entry.process_name == "service"
        assert entry.fire_time_s == 50.0

    def test_no_valid_timer_returns_none(self):
        reg = TimerRegistry()
        reg.register(TimerEntry(10.0, "watchdogd", "tick"))
        assert reg.earliest_valid() is None

    def test_rearm_replaces(self):
        reg = TimerRegistry()
        reg.register(TimerEntry(10.0, "svc", "t"))
        reg.register(TimerEntry(99.0, "svc", "t"))
        assert len(reg) == 1
        assert reg.earliest_valid().fire_time_s == 99.0

    def test_cancel(self):
        reg = TimerRegistry()
        reg.register(TimerEntry(10.0, "svc", "t"))
        assert reg.cancel("svc", "t")
        assert not reg.cancel("svc", "t")
        assert len(reg) == 0

    def test_entries_sorted(self):
        reg = TimerRegistry()
        for t in (30.0, 10.0, 20.0):
            reg.register(TimerEntry(t, f"p{t}", "x"))
        assert [e.fire_time_s for e in reg.entries()] == [10.0, 20.0, 30.0]

    def test_tied_fire_times_keep_registration_order(self):
        reg = TimerRegistry()
        reg.register(TimerEntry(1.0, "svc", "a"))
        reg.register(TimerEntry(1.0, "svc", "b"))
        reg.register(TimerEntry(1.0, "svc", "a"))  # re-arm: behind its ties
        assert [e.timer_name for e in reg.entries()] == ["b", "a"]


#: Small pools so that draws re-arm, tie and hit the blacklist often.
_PROCESSES = ("service", "cron", "watchdogd", "kworker")
_TIMER_NAMES = ("a", "b", "c")
_FIRE_TIMES = st.sampled_from((0.0, 1.0, 2.5, 60.0, 1e9))
_OPS = st.lists(st.tuples(
    st.sampled_from(("register", "register", "cancel")),
    st.sampled_from(_PROCESSES), st.sampled_from(_TIMER_NAMES), _FIRE_TIMES),
    max_size=60)


class TestTimerRegistryProperties:
    """The registry against a stable-sorted plain list."""

    @settings(max_examples=150, deadline=None)
    @given(ops=_OPS, blacklist=st.frozensets(st.sampled_from(_PROCESSES)))
    def test_matches_stable_sorted_list(self, ops, blacklist):
        reg = TimerRegistry()
        armed = []  # entries in registration order
        for op, proc, name, fire in ops:
            old = [e for e in armed
                   if (e.process_name, e.timer_name) == (proc, name)]
            if op == "cancel":
                assert reg.cancel(proc, name) == bool(old)
            else:
                entry = TimerEntry(fire, proc, name)
                reg.register(entry)
                armed.append(entry)
            for e in old:
                armed.remove(e)
        expected = sorted(armed, key=lambda e: e.fire_time_s)
        assert reg.entries() == expected
        assert len(reg) == len(expected)
        valid = [e for e in expected if e.process_name not in blacklist]
        assert reg.earliest_valid(blacklist) == (valid[0] if valid else None)


class TestWakingDate:
    def test_earliest_service_timer_wins(self):
        timer = ServiceTimer("backup", period_s=86400.0, first_fire_s=7200.0)
        host, _ = make_host(timers=(timer,))
        date = compute_waking_date(host, now=0.0)
        assert date == pytest.approx(7200.0)

    def test_daemon_timers_filtered(self):
        host, _ = make_host(timers=())
        # Only daemon timers exist: no valid waking date.
        assert compute_waking_date(host, now=0.0) is None

    def test_registry_contains_daemons_and_services(self):
        timer = ServiceTimer("job", period_s=3600.0)
        host, _ = make_host(n_vms=2, timers=(timer,))
        reg = build_host_registry(host, now=0.0)
        assert len(reg) == len(DEFAULT_BLACKLIST) + 2

    def test_unblacklisted_daemon_tick_wins(self):
        timer = ServiceTimer("backup", period_s=86400.0, first_fire_s=7200.0)
        host, _ = make_host(timers=(timer,))
        blacklist = DEFAULT_BLACKLIST - {"watchdogd"}
        assert compute_waking_date(host, 100.0, blacklist) == 160.0

    def test_aliasing_vm_names_both_count(self):
        """VM "a:b" with timer "c" and VM "a" with timer "b:c" share the
        reference registry's key "a:b:c", so it keeps only the later
        one; the host really has both timers and both count."""
        host = Host("h")
        for vm_name, timer in (
                ("a:b", ServiceTimer("c", period_s=3600.0, first_fire_s=100.0)),
                ("a", ServiceTimer("b:c", period_s=3600.0, first_fire_s=200.0))):
            host.add_vm(VM(vm_name, always_idle_trace(48), TESTBED_VM,
                           timers=(timer,)))
        assert build_host_registry(host, 0.0).earliest_valid().fire_time_s == 200.0
        assert compute_waking_date(host, 0.0) == 100.0


#: Few periods and phases, and ``now`` drawn from their fire times, so
#: that draws tie with each other and with the daemons' tick (``now +
#: 60``) and land ``now`` exactly on a fire time.
_PERIODS = st.sampled_from((60.0, 3600.0, 86400.0))
_PHASES = st.sampled_from((0.0, 60.0, 3600.0, 7200.0))
_NOWS = st.sampled_from((0.0, 60.0, 3600.0, 7200.0, 10000.0))
_TIMERS = st.lists(
    st.tuples(st.sampled_from(_PROCESSES), st.sampled_from(("t0", "t1")),
              _PERIODS, _PHASES),
    max_size=4, unique_by=lambda t: t[:2]).map(
        lambda specs: tuple(ServiceTimer(name, period, first, proc)
                            for proc, name, period, first in specs))
#: No ":" in names: the reference keys a VM timer as f"{vm}:{timer}",
#: so names with ":" can alias two VMs' timers into one registry entry
#: (pinned by test_aliasing_vm_names_both_count).
_VM_NAMES = st.lists(st.text("abz-", min_size=1, max_size=3),
                     max_size=3, unique=True)
_SMALL_VM = ResourceSpec(cpus=1, memory_mb=1024)
_BLACKLISTS = st.one_of(
    st.just(DEFAULT_BLACKLIST),
    st.frozensets(st.sampled_from(sorted(DEFAULT_BLACKLIST) + ["service", "cron"])))


class TestWakingDateProperties:
    """The direct minimum against the hrtimer-tree reference."""

    @settings(max_examples=200, deadline=None)
    @given(names=_VM_NAMES, data=st.data(), now=_NOWS, blacklist=_BLACKLISTS)
    def test_matches_registry_reference(self, names, data, now, blacklist):
        host = Host("h")
        for name in names:
            host.add_vm(VM(name, always_idle_trace(48), _SMALL_VM,
                           timers=data.draw(_TIMERS)))
        entry = build_host_registry(host, now).earliest_valid(blacklist)
        expected = entry.fire_time_s if entry is not None else None
        assert compute_waking_date(host, now, blacklist) == expected


class TestGrace:
    def test_bounds(self):
        assert grace_time_s(1.0) == pytest.approx(DEFAULT_PARAMS.grace_min_s)
        assert grace_time_s(0.0) == pytest.approx(DEFAULT_PARAMS.grace_max_s)

    def test_monotone_decreasing_in_probability(self):
        values = [grace_time_s(p) for p in np.linspace(0, 1, 11)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_exponential_midpoint(self):
        # Geometric mean of bounds at p = 0.5.
        expected = math.sqrt(DEFAULT_PARAMS.grace_min_s * DEFAULT_PARAMS.grace_max_s)
        assert grace_time_s(0.5) == pytest.approx(expected)

    def test_disabled_grace_is_zero(self):
        params = DEFAULT_PARAMS.replace(use_grace=False)
        assert grace_time_s(0.3, params) == 0.0
        assert grace_from_raw_ip(-1.0, params) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            grace_time_s(1.5)

    def test_raw_ip_scaling(self):
        """A host weeks-deep in activity saturates to the max window."""
        assert grace_from_raw_ip(-20 * SIGMA) == pytest.approx(
            DEFAULT_PARAMS.grace_max_s)
        assert grace_from_raw_ip(20 * SIGMA) == pytest.approx(
            DEFAULT_PARAMS.grace_min_s)
        assert grace_from_raw_ip(0.0) == pytest.approx(
            math.sqrt(DEFAULT_PARAMS.grace_min_s * DEFAULT_PARAMS.grace_max_s))

    @given(st.floats(min_value=-1.0, max_value=1.0))
    def test_grace_always_within_bounds(self, raw_ip):
        g = grace_from_raw_ip(raw_ip)
        assert DEFAULT_PARAMS.grace_min_s <= g <= DEFAULT_PARAMS.grace_max_s


class TestSuspendingModule:
    def test_idle_host_suspends(self):
        host, _ = make_host()
        module = SuspendingModule(host)
        verdict = module.evaluate(now=100.0)
        assert verdict.should_suspend
        assert verdict.decision is SuspendDecision.SUSPEND

    def test_active_vm_blocks(self):
        host, (vm,) = make_host()
        vm.current_activity = 0.2
        verdict = SuspendingModule(host).evaluate(now=100.0)
        assert verdict.decision is SuspendDecision.ACTIVE

    def test_blocked_io_blocks(self):
        host, (vm,) = make_host()
        vm.blocked_io = True
        verdict = SuspendingModule(host).evaluate(now=100.0)
        assert verdict.decision is SuspendDecision.BLOCKED_IO

    def test_grace_blocks(self):
        host, _ = make_host()
        host.grace_until = 500.0
        verdict = SuspendingModule(host).evaluate(now=100.0)
        assert verdict.decision is SuspendDecision.IN_GRACE

    def test_not_running_state(self):
        host, _ = make_host()
        host.begin_suspend(1.0)
        verdict = SuspendingModule(host).evaluate(now=2.0)
        assert verdict.decision is SuspendDecision.NOT_RUNNING

    def test_empty_host_is_not_this_modules_job(self):
        host = Host("h")
        verdict = SuspendingModule(host).evaluate(now=1.0)
        assert verdict.decision is SuspendDecision.EMPTY

    def test_waking_date_attached(self):
        timer = ServiceTimer("cron", period_s=3600.0, first_fire_s=1800.0)
        host, _ = make_host(timers=(timer,))
        verdict = SuspendingModule(host).evaluate(now=100.0)
        assert verdict.should_suspend
        assert verdict.waking_date_s == pytest.approx(1800.0)

    def test_no_timer_means_indefinite_sleep(self):
        host, _ = make_host()
        verdict = SuspendingModule(host).evaluate(now=100.0)
        assert verdict.waking_date_s is None

    def test_decision_counts(self):
        host, (vm,) = make_host()
        module = SuspendingModule(host)
        module.evaluate(1.0)
        vm.current_activity = 0.5
        module.evaluate(2.0)
        assert module.decision_counts[SuspendDecision.SUSPEND] == 1
        assert module.decision_counts[SuspendDecision.ACTIVE] == 1
