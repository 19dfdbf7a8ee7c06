"""Remaining coverage: serialization errors, hourly offsets, VM details,
waking-module edge cases, trace utilities."""

import numpy as np
import pytest

from repro.cluster import (
    DataCenter,
    EventSimulator,
    Host,
    ServiceTimer,
    TESTBED_VM,
    VM,
)
from repro.core import IdlenessModel, save_model
from repro.sim.hourly import HourlyConfig, HourlySimulator
from repro.traces.synthetic import always_idle_trace, daily_backup_trace
from repro.waking import WakingModule


class TestSerializeErrors:
    def test_version_mismatch_rejected(self, tmp_path):
        import numpy as np

        from repro.core.serialize import load_model

        model = IdlenessModel()
        path = tmp_path / "m.npz"
        save_model(model, path)
        # Corrupt the version field.
        data = dict(np.load(path))
        data["version"] = np.array(99)
        np.savez(path, **data)
        with pytest.raises(ValueError):
            load_model(path)

    def test_scalar_loader_rejects_fleet_file(self, tmp_path):
        from repro.core import FleetIdlenessModel, save_fleet
        from repro.core.serialize import load_model

        fleet = FleetIdlenessModel(2)
        path = tmp_path / "f.npz"
        save_fleet(fleet, path)
        with pytest.raises(ValueError):
            load_model(path)


class TestVMDetails:
    def test_default_ip_address_stable(self):
        a = VM("same-name", always_idle_trace(24), TESTBED_VM)
        b = VM("same-name", always_idle_trace(24), TESTBED_VM)
        assert a.ip_address == b.ip_address

    def test_explicit_ip_respected(self):
        vm = VM("v", always_idle_trace(24), TESTBED_VM, ip_address="1.2.3.4")
        assert vm.ip_address == "1.2.3.4"

    def test_dirty_rate_follows_activity(self):
        vm = VM("v", always_idle_trace(24), TESTBED_VM)
        vm.current_activity = 0.7
        assert vm.dirty_page_rate == pytest.approx(0.7)

    def test_idleness_probability_helpers(self):
        vm = VM("v", daily_backup_trace(days=30), TESTBED_VM)
        for h in range(30 * 24):
            vm.model.observe(h, vm.activity_at(h))
        hour = 30 * 24 + 14  # 2 pm: idle for this VM
        assert vm.idleness_probability(hour) > 0.5
        assert vm.raw_ip(hour) > 0.0

    def test_timer_tuple_preserved(self):
        t = ServiceTimer("x", period_s=60.0)
        vm = VM("v", always_idle_trace(24), TESTBED_VM, timers=(t,))
        assert vm.timers[0].name == "x"


class TestHourlyStartOffsets:
    def test_start_hour_shifts_calendar(self):
        """Starting mid-week indexes different weekday slots."""
        def run_from(start_hour):
            host = Host("h")
            dc = DataCenter([host])
            vm = VM("v", daily_backup_trace(days=30), TESTBED_VM)
            dc.place(vm, host)

            class Passive:
                name = "p"
                uses_idleness = True

                def observe_hour(self, t):
                    pass

                def step(self, t, now, executor=None):
                    return 0

            sim = HourlySimulator(dc, Passive(),
                                  config=HourlyConfig(power_off_empty=False))
            sim.run(48, start_hour=start_hour)
            return vm.model.hours_observed

        assert run_from(0) == run_from(72) == 48

    def test_meter_duration_with_offset(self):
        host = Host("h")
        dc = DataCenter([host])
        dc.place(VM("v", always_idle_trace(48), TESTBED_VM), host)

        class Passive:
            name = "p"
            uses_idleness = False

            def observe_hour(self, t):
                pass

            def step(self, t, now, executor=None):
                return 0

        sim = HourlySimulator(dc, Passive(),
                              config=HourlyConfig(power_off_empty=False))
        sim.run(24, start_hour=100)
        # The meter starts at t=0 but the sim begins at hour 100: the
        # pre-simulation era is charged at the initial operating point.
        assert host.meter.last_time == pytest.approx(124 * 3600.0)


class TestWakingModuleEdges:
    def test_rearm_arms_scheduled_wakes(self):
        sim = EventSimulator()
        sent = []
        module = WakingModule("wm", sim, lambda p, t: sent.append((p, t)))
        host = Host("h1")
        host.add_vm(VM("v", always_idle_trace(24), TESTBED_VM))
        module.register_suspension(host, waking_date_s=500.0)

        twin = WakingModule("wm2", sim, lambda p, t: sent.append((p, t)),
                            state=module.state)
        twin.rearm()
        module.fail()  # original dies; its events are cancelled
        sim.run_until(600.0)
        assert len(sent) == 1  # only the re-armed twin fired

    def test_rearm_ignores_none_dates(self):
        sim = EventSimulator()
        module = WakingModule("wm", sim, lambda p, t: None)
        host = Host("h1")
        host.add_vm(VM("v", always_idle_trace(24), TESTBED_VM))
        module.register_suspension(host, waking_date_s=None)
        twin = WakingModule("wm2", sim, lambda p, t: None,
                            state=module.state)
        twin.rearm()
        assert sim.pending == 0

    def test_wake_in_the_past_fires_immediately(self):
        """A waking date closer than the lead time fires right away."""
        sim = EventSimulator(start_time=100.0)
        sent = []
        module = WakingModule("wm", sim, lambda p, t: sent.append(t))
        host = Host("h1")
        host.add_vm(VM("v", always_idle_trace(24), TESTBED_VM))
        module.register_suspension(host, waking_date_s=100.2)
        sim.run()
        assert sent == [100.0]


class TestTraceUtilities:
    def test_with_name_preserves_data(self):
        tr = daily_backup_trace(days=2)
        renamed = tr.with_name("other")
        assert renamed.name == "other"
        np.testing.assert_array_equal(renamed.activities, tr.activities)
        assert renamed.kind is tr.kind

    def test_len_dunder(self):
        assert len(daily_backup_trace(days=2)) == 48

    def test_mean_active_level_empty(self):
        assert always_idle_trace(24).mean_active_level == 0.0
