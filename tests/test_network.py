"""Tests for request generation, SLA accounting and the SDN switch."""

import numpy as np
import pytest

from repro.cluster import DataCenter, EventSimulator, Host, TESTBED_VM, VM
from repro.network import Request, RequestLog, RequestProfile, SDNSwitch, poisson_arrivals
from repro.traces.synthetic import always_idle_trace
from repro.waking import WakingModule
from repro.waking.packets import WoLPacket


class TestPoissonArrivals:
    def test_zero_rate_empty(self):
        rng = np.random.default_rng(0)
        assert poisson_arrivals(rng, 0.0, 100.0, 0.0).size == 0

    def test_arrivals_within_window(self):
        rng = np.random.default_rng(0)
        a = poisson_arrivals(rng, 50.0, 100.0, 0.5)
        assert np.all(a >= 50.0) and np.all(a < 150.0)
        assert np.all(np.diff(a) >= 0)

    def test_rate_controls_count(self):
        rng = np.random.default_rng(0)
        low = poisson_arrivals(rng, 0, 10000, 0.01).size
        high = poisson_arrivals(rng, 0, 10000, 0.1).size
        assert high > low


class TestRequestProfile:
    def test_idle_hour_no_requests(self):
        profile = RequestProfile()
        rng = np.random.default_rng(0)
        assert profile.hourly_arrivals(rng, 0.0, 0.0).size == 0

    def test_leading_request_present(self):
        profile = RequestProfile(peak_rate_per_s=0.0001, leading_request=True)
        rng = np.random.default_rng(0)
        arrivals = profile.hourly_arrivals(rng, 3600.0, 0.5)
        assert arrivals.size >= 1
        assert arrivals[0] <= 3602.0

    def test_service_time_positive(self):
        profile = RequestProfile()
        rng = np.random.default_rng(0)
        for _ in range(100):
            assert profile.sample_service_time(rng) > 0


class TestRequestLog:
    def make_request(self, latency, woke=False):
        r = Request(arrival_s=0.0, vm_name="v", service_time_s=latency)
        r.completion_s = latency
        r.woke_host = woke
        return r

    def test_sla_fraction(self):
        log = RequestLog()
        for lat in (0.05, 0.1, 0.15, 0.9):
            log.record(self.make_request(lat))
        assert log.summary(0.2)["sla_fraction"] == pytest.approx(0.75)

    def test_incomplete_request_rejected(self):
        log = RequestLog()
        with pytest.raises(ValueError):
            log.record(Request(arrival_s=0.0, vm_name="v", service_time_s=0.1))

    def test_wake_requests_tracked(self):
        log = RequestLog()
        log.record(self.make_request(0.9, woke=True))
        log.record(self.make_request(0.1))
        assert len(log.wake_requests) == 1
        assert log.summary()["max_wake_latency_s"] == pytest.approx(0.9)

    def test_empty_log_nan(self):
        log = RequestLog()
        s = log.summary()
        assert np.isnan(s["sla_fraction"])
        assert np.isnan(s["p99_s"])
        assert s["max_wake_latency_s"] == 0.0

    def test_summary_keys(self):
        log = RequestLog()
        log.record(self.make_request(0.1))
        s = log.summary()
        assert {"requests", "sla_fraction", "p99_s", "wake_requests"} <= set(s)


class TestSDNSwitch:
    def make_stack(self):
        sim = EventSimulator()
        host = Host("h1")
        vm = VM("v1", always_idle_trace(48), TESTBED_VM, ip_address="10.2.0.1")
        host.add_vm(vm)
        dc = DataCenter([host])
        switch = SDNSwitch(sim, dc)
        wols = []
        module = WakingModule("wm", sim, lambda p, t: wols.append((p, t)))
        switch.waking_service = module
        switch.wol_sender = lambda p, t: wols.append((p, t))
        return sim, dc, switch, module, host, vm, wols

    def submit(self, sim, switch, vm, at=0.0, service=0.05):
        sim.schedule_at(at, switch.submit_request, vm.name, at, service)

    def test_request_to_on_host_completes(self):
        sim, dc, switch, module, host, vm, wols = self.make_stack()
        self.submit(sim, switch, vm, at=1.0, service=0.05)
        sim.run()
        [req] = switch.log.requests
        assert req.completed
        assert req.latency_s == pytest.approx(0.05)
        assert not req.woke_host

    def test_request_to_suspended_host_queues_until_resume(self):
        sim, dc, switch, module, host, vm, wols = self.make_stack()
        host.begin_suspend(0.0)
        host.finish_suspend(0.5)
        module.register_suspension(host, None)
        self.submit(sim, switch, vm, at=10.0, service=0.05)
        sim.run_until(10.1)
        assert switch.queued_requests == 1
        assert len(wols) == 1  # analyzer sent the WoL
        # Simulate resume completing at 10.8.
        host.begin_resume(10.2)
        host.finish_resume(10.8, 0.0)
        sim.schedule_at(10.8, switch.redispatch_pending)
        sim.run()
        [req] = switch.log.requests
        assert req.completed
        assert req.woke_host
        assert req.latency_s == pytest.approx(0.85)

    def test_fallback_wol_when_unmapped(self):
        """A VM missing from the waking map still wakes its host via the
        switch-port fallback."""
        sim, dc, switch, module, host, vm, wols = self.make_stack()
        host.begin_suspend(0.0)
        host.finish_suspend(0.5)
        # No register_suspension: the analyzer knows nothing.
        self.submit(sim, switch, vm, at=5.0)
        sim.run_until(5.1)
        assert len(wols) == 1
        assert isinstance(wols[0][0], WoLPacket)

    def test_unknown_vm_rejected(self):
        sim, dc, switch, module, host, vm, wols = self.make_stack()
        with pytest.raises(KeyError):
            switch.submit_request("ghost", 0.0, 0.1)


class TestBatchedRedispatch:
    """Resume redispatch: one scheduling pass, one WoL per drowsy host."""

    def make_rack(self, n_vms=2):
        sim = EventSimulator()
        host = Host("h1")
        vms = []
        for i in range(n_vms):
            vm = VM(f"v{i}", always_idle_trace(48), TESTBED_VM,
                    ip_address=f"10.3.0.{i + 1}")
            host.add_vm(vm)
            vms.append(vm)
        dc = DataCenter([host])
        switch = SDNSwitch(sim, dc)
        wols = []
        # A passive WoL sink (no synchronous resume): models delayed
        # WoL delivery, where the old code sent one packet per waiting
        # request on every redispatch pass.
        switch.wol_sender = lambda p, t: wols.append(p)
        return sim, dc, switch, host, vms, wols

    def test_one_wol_per_drowsy_host_per_pass(self):
        sim, dc, switch, host, vms, wols = self.make_rack()
        host.begin_suspend(0.0)
        host.finish_suspend(0.5)
        for i, vm in enumerate(vms):
            sim.schedule_at(1.0 + i, switch.submit_request, vm.name,
                            1.0 + i, 0.05)
        sim.run_until(4.0)
        assert switch.queued_requests == len(vms)
        wols.clear()
        switch.redispatch_pending()
        assert len(wols) == 1  # was len(vms) before the batched pass
        assert wols[0].mac_address == host.mac_address
        assert switch.queued_requests == len(vms)

    def test_redispatch_completes_after_resume(self):
        sim, dc, switch, host, vms, wols = self.make_rack(n_vms=2)
        host.begin_suspend(0.0)
        host.finish_suspend(0.5)
        for vm in vms:
            sim.schedule_at(1.0, switch.submit_request, vm.name, 1.0, 0.05)
        sim.run_until(2.0)
        host.begin_resume(2.0)
        host.finish_resume(2.8, 0.0)
        switch.redispatch_pending()
        sim.run()
        assert switch.queued_requests == 0
        assert len(switch.log.requests) == 2

    def test_drop_vm_forgets_pending(self):
        sim, dc, switch, host, vms, wols = self.make_rack(n_vms=2)
        host.begin_suspend(0.0)
        host.finish_suspend(0.5)
        for vm in vms:
            sim.schedule_at(1.0, switch.submit_request, vm.name, 1.0, 0.05)
        sim.run_until(2.0)
        switch.drop_vm(vms[0].name)
        assert switch.queued_requests == 1
        dc.remove(vms[0], 2.0)
        switch.redispatch_pending()  # must not fault on the removed VM
        assert switch.queued_requests == 1
