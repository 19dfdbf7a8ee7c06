"""Tests for resources, power model, host state machine, datacenter."""

import pytest

from repro.cluster import (
    DataCenter,
    Host,
    HostCapacity,
    HostStateError,
    MigrationModel,
    PlacementError,
    PowerModel,
    PowerState,
    ResourceSpec,
    TESTBED_HOST,
    TESTBED_VM,
    VM,
)
from repro.cluster.power import EnergyMeter
from repro.traces.synthetic import always_idle_trace, daily_backup_trace


def make_vm(name="vm", hours=48, **kw):
    return VM(name, always_idle_trace(hours), TESTBED_VM, **kw)


class TestResources:
    def test_addition(self):
        a = ResourceSpec(2, 1024) + ResourceSpec(1, 512)
        assert a == ResourceSpec(3, 1536)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ResourceSpec(-1, 10)

    def test_capacity_fits(self):
        cap = HostCapacity(cpus=8, memory_mb=16384, cpu_overcommit=1.0)
        assert cap.fits(ResourceSpec(2, 6144), ResourceSpec(2, 6144))
        assert not cap.fits(ResourceSpec(2, 6144), ResourceSpec(2, 12288))

    def test_overcommit_only_cpu(self):
        cap = HostCapacity(cpus=4, memory_mb=8192, cpu_overcommit=2.0)
        assert cap.schedulable_cpus == 8.0
        with pytest.raises(ValueError):
            HostCapacity(cpus=4, memory_mb=8192, cpu_overcommit=0.5)

    def test_testbed_hosts_two_vms(self):
        """Section VI-A.2: 16 GB hosts, 6 GB VMs, max 2 per host."""
        used = TESTBED_VM + TESTBED_VM
        assert used.memory_mb <= TESTBED_HOST.memory_mb
        assert (used + TESTBED_VM).memory_mb > TESTBED_HOST.memory_mb


class TestPowerModel:
    def test_s3_is_ten_percent_of_idle(self):
        """Section VI-A.2: ~5 W suspended, ~10 % of idle S0."""
        m = PowerModel()
        s3 = m.power(PowerState.SUSPENDED, 0.0)
        idle = m.power(PowerState.ON, 0.0)
        assert s3 == pytest.approx(0.1 * idle)

    def test_linear_in_utilization(self):
        m = PowerModel(idle_w=50, max_w=120, suspend_w=5)
        assert m.power(PowerState.ON, 0.5) == pytest.approx(85.0)
        assert m.power(PowerState.ON, 1.0) == pytest.approx(120.0)

    def test_off_draws_nothing(self):
        assert PowerModel().power(PowerState.OFF, 0.0) == 0.0

    def test_transitions_draw_s0(self):
        m = PowerModel()
        assert m.power(PowerState.SUSPENDING, 0.0) == m.power(PowerState.ON, 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            PowerModel(idle_w=50, max_w=40, suspend_w=5)
        with pytest.raises(ValueError):
            PowerModel().power(PowerState.ON, 1.2)


class TestEnergyMeter:
    def test_integrates_piecewise(self):
        meter = EnergyMeter(PowerModel(idle_w=50, max_w=120, suspend_w=5))
        meter.advance(3600.0, PowerState.ON, 0.0)       # 50 Wh
        meter.advance(7200.0, PowerState.SUSPENDED, 0.0)  # 5 Wh
        assert meter.energy_kwh == pytest.approx(0.055)

    def test_state_seconds(self):
        meter = EnergyMeter(PowerModel())
        meter.advance(10.0, PowerState.ON, 0.0)
        meter.advance(40.0, PowerState.SUSPENDED, 0.0)
        assert meter.state_seconds[PowerState.ON] == 10.0
        assert meter.suspended_fraction == pytest.approx(0.75)

    def test_time_cannot_go_backwards(self):
        meter = EnergyMeter(PowerModel())
        meter.advance(10.0, PowerState.ON, 0.0)
        with pytest.raises(ValueError):
            meter.advance(5.0, PowerState.ON, 0.0)


class TestHostStateMachine:
    def test_full_suspend_resume_cycle(self):
        host = Host("h")
        host.add_vm(make_vm())
        host.begin_suspend(10.0)
        assert host.state is PowerState.SUSPENDING
        host.finish_suspend(13.0)
        assert host.is_suspended
        host.begin_resume(100.0)
        host.finish_resume(100.8, grace_s=30.0)
        assert host.state is PowerState.ON
        assert host.in_grace(120.0)
        assert not host.in_grace(200.0)

    def test_illegal_transitions_raise(self):
        host = Host("h")
        with pytest.raises(HostStateError):
            host.finish_suspend(1.0)
        with pytest.raises(HostStateError):
            host.begin_resume(1.0)
        host.begin_suspend(1.0)
        with pytest.raises(HostStateError):
            host.begin_suspend(2.0)

    def test_power_off_requires_empty(self):
        host = Host("h")
        host.add_vm(make_vm())
        with pytest.raises(HostStateError):
            host.power_off(1.0)

    def test_energy_accounting_through_cycle(self):
        host = Host("h")
        host.add_vm(make_vm())
        host.begin_suspend(3600.0)     # 1 h ON idle = 50 Wh
        host.finish_suspend(3600.0)
        host.sync_meter(2 * 3600.0)    # 1 h S3 = 5 Wh
        assert host.meter.energy_kwh == pytest.approx(0.055)
        assert host.meter.suspended_fraction == pytest.approx(0.5)

    def test_utilization_from_vm_activity(self):
        host = Host("h", HostCapacity(cpus=8, memory_mb=16384))
        vm = make_vm()
        host.add_vm(vm)
        vm.current_activity = 0.5
        # 0.5 activity x 2 vcpus / 8 cores
        assert host.cpu_utilization == pytest.approx(0.125)

    def test_capacity_enforced(self):
        host = Host("h")
        host.add_vm(make_vm("a"))
        host.add_vm(make_vm("b"))
        with pytest.raises(ValueError):
            host.add_vm(make_vm("c"))

    def test_double_add_rejected(self):
        host = Host("h")
        vm = make_vm()
        host.add_vm(vm)
        with pytest.raises(ValueError):
            host.add_vm(vm)

    def test_transitions_recorded(self):
        host = Host("h")
        host.add_vm(make_vm())
        host.begin_suspend(1.0)
        host.finish_suspend(2.0)
        assert [t.to_state for t in host.transitions] == \
            [PowerState.SUSPENDING, PowerState.SUSPENDED]
        assert host.suspend_count == 1

    def test_ip_range_and_mean(self):
        host = Host("h")
        a, b = make_vm("a"), make_vm("b")
        host.add_vm(a)
        host.add_vm(b)
        for h in range(48):
            a.model.observe(h, 0.0)
            b.model.observe(h, 0.5)
        assert host.ip_range(48) > 0
        ips = [a.raw_ip(48), b.raw_ip(48)]
        assert host.mean_raw_ip(48) == pytest.approx(sum(ips) / 2)

    def test_empty_host_neutral_ip(self):
        assert Host("h").mean_raw_ip(0) == 0.0
        assert Host("h").ip_range(0) == 0.0


class TestDataCenter:
    def make_dc(self):
        hosts = [Host(f"h{i}") for i in range(3)]
        return DataCenter(hosts)

    def test_duplicate_host_names_rejected(self):
        with pytest.raises(PlacementError):
            DataCenter([Host("x"), Host("x")])

    def test_place_and_host_of(self):
        dc = self.make_dc()
        vm = make_vm()
        dc.place(vm, dc.host("h0"))
        assert dc.host_of(vm).name == "h0"
        with pytest.raises(PlacementError):
            dc.place(vm, dc.host("h1"))

    def test_unknown_host(self):
        with pytest.raises(PlacementError):
            self.make_dc().host("nope")

    def test_migrate_records(self):
        dc = self.make_dc()
        vm = make_vm()
        dc.place(vm, dc.host("h0"))
        rec = dc.migrate(vm, dc.host("h1"), now=100.0)
        assert rec.source == "h0" and rec.destination == "h1"
        assert vm.migrations == 1
        assert dc.host_of(vm).name == "h1"

    def test_migrate_to_same_host_rejected(self):
        dc = self.make_dc()
        vm = make_vm()
        dc.place(vm, dc.host("h0"))
        with pytest.raises(PlacementError):
            dc.migrate(vm, dc.host("h0"), now=1.0)

    def test_migrate_capacity_checked(self):
        dc = self.make_dc()
        for i, name in enumerate(("a", "b", "c")):
            dc.place(make_vm(name), dc.host(f"h{i // 2}"))
        # h0 holds a,b (full); migrating c there must fail.
        c = next(v for v in dc.vms if v.name == "c")
        with pytest.raises(PlacementError):
            dc.migrate(c, dc.host("h0"), now=1.0)

    def test_apply_assignment_swap(self):
        """Swaps between full hosts work via the bulk path."""
        dc = self.make_dc()
        a, b, c, d = (make_vm(n) for n in "abcd")
        dc.place(a, dc.host("h0"))
        dc.place(b, dc.host("h0"))
        dc.place(c, dc.host("h1"))
        dc.place(d, dc.host("h1"))
        records = dc.apply_assignment(
            {"a": dc.host("h1"), "c": dc.host("h0")}, now=5.0)
        assert len(records) == 2
        assert dc.host_of(a).name == "h1"
        assert dc.host_of(c).name == "h0"
        dc.check_invariants()

    def test_apply_assignment_noop_not_recorded(self):
        dc = self.make_dc()
        vm = make_vm()
        dc.place(vm, dc.host("h0"))
        records = dc.apply_assignment({vm.name: dc.host("h0")}, now=1.0)
        assert records == []
        assert vm.migrations == 0

    def test_apply_assignment_overfill_raises(self):
        dc = self.make_dc()
        a, b, c = (make_vm(n) for n in "abc")
        dc.place(a, dc.host("h0"))
        dc.place(b, dc.host("h1"))
        dc.place(c, dc.host("h2"))
        with pytest.raises(PlacementError):
            dc.apply_assignment(
                {"a": dc.host("h2"), "b": dc.host("h2")}, now=1.0)

    def test_check_invariants_detects_overcapacity(self):
        dc = self.make_dc()
        host = dc.host("h0")
        host.vms.append(make_vm("a"))
        host.vms.append(make_vm("b"))
        host.vms.append(make_vm("c"))  # bypass add_vm check
        with pytest.raises(PlacementError):
            dc.check_invariants()

    def test_set_hour_activities(self):
        dc = self.make_dc()
        vm = VM("t", daily_backup_trace(days=2), TESTBED_VM)
        dc.place(vm, dc.host("h0"))
        dc.set_hour_activities(2, now=2 * 3600.0)
        assert vm.current_activity > 0
        dc.set_hour_activities(3, now=3 * 3600.0)
        assert vm.current_activity == 0.0


class TestAddresses:
    """Addresses are unique per data center.  ``v1`` and ``v48`` share
    the default address ``10.0.0.129``."""

    def make_dc(self):
        return DataCenter([Host(f"h{i}") for i in range(3)])

    def test_colliding_default_is_renumbered_on_first_attach(self):
        dc = self.make_dc()
        a, b = make_vm("v1"), make_vm("v48")
        assert a.ip_address == b.ip_address == "10.0.0.129"
        dc.place(a, dc.host("h0"))
        dc.place(b, dc.host("h1"))
        assert a.ip_address == "10.0.0.129"
        assert b.ip_address == "10.0.1.0"
        dc.check_invariants()

    def test_construction_renumbers_in_fleet_order(self):
        h0, h1 = Host("h0"), Host("h1")
        a, b = make_vm("v1"), make_vm("v48")
        h0.add_vm(a)
        h1.add_vm(b)
        dc = DataCenter([h0, h1])
        assert (a.ip_address, b.ip_address) == ("10.0.0.129", "10.0.1.0")
        dc.check_invariants()

    def test_migrations_never_renumber(self):
        dc = self.make_dc()
        a, b = make_vm("v1"), make_vm("v48")
        dc.place(a, dc.host("h0"))
        dc.place(b, dc.host("h1"))
        before = (a.ip_address, b.ip_address)
        dc.migrate(b, dc.host("h2"), now=1.0)
        dc.apply_assignment({"v1": dc.host("h2"), "v48": dc.host("h0")},
                            now=2.0)
        assert (a.ip_address, b.ip_address) == before
        dc.check_invariants()

    def test_explicit_duplicate_is_refused(self):
        dc = self.make_dc()
        dc.place(make_vm("a", ip_address="10.9.0.1"), dc.host("h0"))
        dup = make_vm("b", ip_address="10.9.0.1")
        with pytest.raises(PlacementError, match="10.9.0.1"):
            dc.place(dup, dc.host("h1"))
        assert dup.ip_address == "10.9.0.1"
        assert dc.host("h1").vms == []
        dc.check_invariants()

    def test_removal_frees_the_address(self):
        dc = self.make_dc()
        a = make_vm("a", ip_address="10.9.0.1")
        dc.place(a, dc.host("h0"))
        dc.remove(a, now=1.0)
        dc.place(make_vm("b", ip_address="10.9.0.1"), dc.host("h1"))
        dc.check_invariants()

    def test_check_invariants_detects_a_shared_address(self):
        dc = self.make_dc()
        a, b = make_vm("a"), make_vm("b")
        dc.place(a, dc.host("h0"))
        dc.place(b, dc.host("h1"))
        b.ip_address = a.ip_address  # bypass the data center
        with pytest.raises(PlacementError, match="address"):
            dc.check_invariants()


class TestMigrationModel:
    def test_duration_scales_with_memory(self):
        m = MigrationModel(bandwidth_mb_s=1000.0)
        small = VM("s", always_idle_trace(24), ResourceSpec(1, 1024))
        big = VM("b", always_idle_trace(24), ResourceSpec(1, 8192))
        assert m.duration_s(big) > m.duration_s(small)

    def test_dirty_pages_slow_migration(self):
        m = MigrationModel()
        vm = make_vm()
        vm.current_activity = 0.0
        idle_duration = m.duration_s(vm)
        vm.current_activity = 1.0
        assert m.duration_s(vm) > idle_duration


class TestServiceTimer:
    def test_next_fire_before_first(self):
        from repro.cluster.vm import ServiceTimer

        t = ServiceTimer("t", period_s=100.0, first_fire_s=50.0)
        assert t.next_fire(0.0) == 50.0

    def test_next_fire_strictly_after_now(self):
        from repro.cluster.vm import ServiceTimer

        t = ServiceTimer("t", period_s=100.0, first_fire_s=50.0)
        assert t.next_fire(50.0) == 150.0
        assert t.next_fire(149.0) == 150.0
        assert t.next_fire(151.0) == 250.0

    @pytest.mark.parametrize("period_s", [0.0, float("nan"), -3600.0, float("inf")])
    def test_rejects_bad_period(self, period_s):
        """Each of these failed only later, in the event sweep: 0 by
        ZeroDivisionError, NaN by ValueError, and -3600 by a next fire
        in the past."""
        from repro.cluster.vm import ServiceTimer

        with pytest.raises(ValueError, match="period_s"):
            ServiceTimer("t", period_s=period_s, first_fire_s=0.0)

    def test_rejects_non_finite_first_fire(self):
        from repro.cluster.vm import ServiceTimer

        with pytest.raises(ValueError, match="first_fire_s"):
            ServiceTimer("t", period_s=60.0, first_fire_s=float("nan"))

    def test_vm_rejects_duplicate_timer(self):
        """Two timers with one (process_name, name) would be one hrtimer."""
        from repro.cluster.vm import ServiceTimer

        a = ServiceTimer("t", period_s=60.0)
        b = ServiceTimer("t", period_s=90.0)
        with pytest.raises(ValueError, match="process_name, name"):
            VM("v", always_idle_trace(24), TESTBED_VM, timers=(a, b))

    def test_vm_accepts_same_name_other_process(self):
        from repro.cluster.vm import ServiceTimer

        a = ServiceTimer("t", period_s=60.0)
        b = ServiceTimer("t", period_s=90.0, process_name="cron")
        vm = VM("v", always_idle_trace(24), TESTBED_VM, timers=(a, b))
        assert vm.timers == (a, b)
