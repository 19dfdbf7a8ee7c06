"""Tests for the waking module, packet analysis and failover."""

import pytest

from repro.cluster import EventSimulator, Host, TESTBED_VM, VM
from repro.core.params import DEFAULT_PARAMS
from repro.traces.synthetic import always_idle_trace
from repro.waking import (
    ReplicatedWakingService,
    WakingModule,
    WoLPacket,
)


class WolSpy:
    def __init__(self):
        self.sent = []

    def __call__(self, packet: WoLPacket, now: float) -> None:
        self.sent.append((packet, now))


def make_host(name="h1"):
    host = Host(name)
    vm = VM(f"vm-{name}", always_idle_trace(48), TESTBED_VM,
            ip_address=f"10.1.0.{len(name)}")
    host.add_vm(vm)
    return host, vm


@pytest.fixture
def setup():
    sim = EventSimulator()
    spy = WolSpy()
    module = WakingModule("wm", sim, spy)
    host, vm = make_host()
    return sim, spy, module, host, vm


class TestPacketAnalysis:
    def test_request_to_suspended_host_triggers_wol(self, setup):
        sim, spy, module, host, vm = setup
        module.register_suspension(host, waking_date_s=None)
        woke = module.analyze_packet(vm.ip_address)
        assert woke
        assert spy.sent[0][0].mac_address == host.mac_address
        assert module.wol_sent == 1

    def test_unknown_destination_ignored(self, setup):
        sim, spy, module, host, vm = setup
        module.register_suspension(host, None)
        assert not module.analyze_packet("10.99.99.99")
        assert spy.sent == []

    def test_mapping_removed_on_awake(self, setup):
        sim, spy, module, host, vm = setup
        module.register_suspension(host, None)
        module.on_host_awake(host)
        assert not module.analyze_packet(vm.ip_address)

    def test_packets_analyzed_counter(self, setup):
        sim, spy, module, host, vm = setup
        module.analyze_packet("10.0.0.1")
        module.analyze_packet("10.0.0.2")
        assert module.packets_analyzed == 2


class TestScheduledWake:
    def test_wol_sent_ahead_of_waking_date(self, setup):
        sim, spy, module, host, vm = setup
        module.register_suspension(host, waking_date_s=100.0)
        sim.run()
        assert len(spy.sent) == 1
        packet, at = spy.sent[0]
        lead = (DEFAULT_PARAMS.resume_latency_s
                + DEFAULT_PARAMS.wake_ahead_margin_s)
        assert at == pytest.approx(100.0 - lead)
        assert packet.reason == "scheduled-date"

    def test_no_ahead_of_time_when_disabled(self):
        sim = EventSimulator()
        spy = WolSpy()
        params = DEFAULT_PARAMS.replace(ahead_of_time_wake=False)
        module = WakingModule("wm", sim, spy, params)
        host, _ = make_host()
        module.register_suspension(host, waking_date_s=100.0)
        sim.run()
        assert spy.sent[0][1] == pytest.approx(100.0)

    def test_resume_cancels_scheduled_wake(self, setup):
        sim, spy, module, host, vm = setup
        module.register_suspension(host, waking_date_s=100.0)
        module.on_host_awake(host)
        sim.run()
        assert spy.sent == []

    def test_reregistration_replaces_date(self, setup):
        sim, spy, module, host, vm = setup
        module.register_suspension(host, waking_date_s=100.0)
        module.register_suspension(host, waking_date_s=500.0)
        sim.run()
        assert len(spy.sent) == 1
        assert spy.sent[0][1] > 400.0

    def test_none_date_means_no_scheduled_wake(self, setup):
        sim, spy, module, host, vm = setup
        module.register_suspension(host, waking_date_s=None)
        sim.run()
        assert spy.sent == []


class TestFailover:
    def make_service(self):
        sim = EventSimulator()
        spy = WolSpy()
        service = ReplicatedWakingService(sim, spy)
        host, vm = make_host()
        return sim, spy, service, host, vm

    def test_state_is_mirrored(self):
        sim, spy, service, host, vm = self.make_service()
        assert service.primary.state is service.mirror.state
        service.register_suspension(host, waking_date_s=1000.0)
        assert service.mirror.state.vm_to_mac == service.primary.state.vm_to_mac
        assert service.mirror.state.waking_dates == service.primary.state.waking_dates

    def test_failover_promotes_mirror(self):
        sim, spy, service, host, vm = self.make_service()
        service.register_suspension(host, waking_date_s=1000.0)
        service.fail_primary()
        sim.run_until(service.detection_delay_s + 2.0)
        assert service.active is service.mirror
        assert service.failovers == 1

    def test_no_waking_date_lost_across_failover(self):
        """The paper's fault-tolerance guarantee: the mirror still wakes
        the host at the registered date."""
        sim, spy, service, host, vm = self.make_service()
        service.register_suspension(host, waking_date_s=1000.0)
        service.fail_primary()
        sim.run_until(2000.0)
        assert len(spy.sent) == 1
        packet, at = spy.sent[0]
        assert packet.mac_address == host.mac_address
        assert at <= 1000.0

    def test_fired_wake_not_resent_after_promotion(self):
        """Regression: a scheduled wake that fired before the primary
        died is gone from the pair's map, so the promoted mirror does
        not send a second WoL for it."""
        sim, spy, service, host, vm = self.make_service()
        service.register_suspension(host, waking_date_s=500.0)
        sim.schedule_at(600.0, service.fail_primary)
        sim.run_until(700.0)
        assert service.failovers == 1
        assert [(p.reason, t < 500.0) for p, t in spy.sent] == [
            ("scheduled-date", True)]

    def test_packet_analysis_after_failover(self):
        sim, spy, service, host, vm = self.make_service()
        service.register_suspension(host, waking_date_s=None)
        service.fail_primary()
        sim.run_until(service.detection_delay_s + 2.0)
        assert service.analyze_packet(vm.ip_address)

    def test_healthy_primary_keeps_running(self):
        sim, spy, service, host, vm = self.make_service()
        sim.run_until(60.0)
        assert service.active is service.primary
        assert service.failovers == 0

    def test_dead_module_rejects_calls(self):
        sim, spy, service, host, vm = self.make_service()
        service.fail_primary()
        with pytest.raises(RuntimeError):
            service.primary.analyze_packet(vm.ip_address)


class TestFailoverWindow:
    """The heartbeat detection window is real: calls landing between the
    primary dying and the mirror's promotion must not be lost."""

    def make_service(self):
        sim = EventSimulator()
        spy = WolSpy()
        service = ReplicatedWakingService(sim, spy)
        host, vm = make_host()
        return sim, spy, service, host, vm

    def test_wake_registered_in_window_survives_failover(self):
        """Regression: a suspension registered DURING the detection
        window (worst case: just after the last good heartbeat) is
        journaled on the standby and re-armed by promotion — the
        in-flight-wake-loss fix."""
        sim, spy, service, host, vm = self.make_service()
        service.fail_primary()
        # Deep inside the window, before any chance of promotion.
        sim.schedule_at(
            service.detection_delay_s * 0.5,
            service.register_suspension, host, 1000.0)
        sim.run_until(2000.0)
        assert service.failovers == 1
        assert service.window_journaled == 1
        assert len(spy.sent) == 1
        packet, at = spy.sent[0]
        assert packet.mac_address == host.mac_address
        assert at <= 1000.0

    def test_awake_in_window_cancels_scheduled_wake(self):
        sim, spy, service, host, vm = self.make_service()
        service.register_suspension(host, waking_date_s=1000.0)
        service.fail_primary()
        sim.schedule_at(service.detection_delay_s * 0.5,
                        service.on_host_awake, host)
        sim.run_until(2000.0)
        assert service.window_journaled == 1
        assert spy.sent == []  # promotion must not re-arm a moot wake

    def test_promotion_within_detection_bound(self):
        sim, spy, service, host, vm = self.make_service()
        service.fail_primary()
        # One heartbeat period past the worst-case bound is enough.
        sim.run_until(service.detection_delay_s
                      + DEFAULT_PARAMS.heartbeat_period_s)
        assert service.failovers == 1
        assert service.active is service.mirror

    def test_analysis_declines_during_window(self):
        sim, spy, service, host, vm = self.make_service()
        service.register_suspension(host, waking_date_s=None)
        service.fail_primary()
        assert service.analyze_packet(vm.ip_address) is False
        assert service.unanswered_packets == 1
        assert spy.sent == []

    def test_dead_mirror_is_not_promoted(self):
        sim, spy, service, host, vm = self.make_service()
        service.fail_primary()
        service.mirror.fail()
        sim.run_until(service.detection_delay_s + 5.0)
        assert service.failovers == 0

    def test_both_dead_degrades_without_raising(self):
        sim, spy, service, host, vm = self.make_service()
        service.fail_primary()
        service.mirror.fail()
        sim.run_until(service.detection_delay_s + 5.0)
        service.register_suspension(host, waking_date_s=1000.0)
        service.on_host_awake(host)
        assert service.lost_calls == 2
        assert service.analyze_packet(vm.ip_address) is False
        sim.run_until(2000.0)
        assert spy.sent == []


class TestReverseIndex:
    """The MAC -> IPs reverse index replacing the per-resume map scan."""

    def test_awake_uses_reverse_index(self, setup):
        sim, spy, module, host, vm = setup
        other = Host("h2")
        other_vm = VM("vm-h2", always_idle_trace(48), TESTBED_VM,
                      ip_address="10.1.7.7")
        other.add_vm(other_vm)
        module.register_suspension(host, None)
        module.register_suspension(other, None)
        assert module.state.ips_of_mac[host.mac_address] == {
            vm.ip_address: None}
        module.on_host_awake(host)
        # Only this host's entries dropped; the other host's survive.
        assert vm.ip_address not in module.state.vm_to_mac
        assert module.state.vm_to_mac[other_vm.ip_address] == other.mac_address
        assert host.mac_address not in module.state.ips_of_mac

    def test_reregistration_moves_ip_between_macs(self, setup):
        """A VM migrated onto another host that then suspends: the IP
        must leave the old MAC's reverse entry, or a later resume of the
        old host would wrongly unmap it."""
        sim, spy, module, host, vm = setup
        other = Host("h2")
        module.register_suspension(host, None)
        host.vms.remove(vm)
        other.add_vm(vm)
        module.register_suspension(other, None)
        assert module.state.vm_to_mac[vm.ip_address] == other.mac_address
        assert host.mac_address not in module.state.ips_of_mac
        module.on_host_awake(host)  # old host resumes: must be a no-op
        assert module.state.vm_to_mac[vm.ip_address] == other.mac_address
        module.on_host_awake(other)
        assert vm.ip_address not in module.state.vm_to_mac

    def test_index_is_pure_function_of_map(self, setup):
        """Different update histories with equal maps compare equal —
        no empty reverse entries are retained."""
        sim, spy, module, host, vm = setup
        module.register_suspension(host, None)
        module.on_host_awake(host)
        from repro.waking import WakingModuleState

        assert module.state == WakingModuleState()

    def test_rearm_preserves_index(self, setup):
        sim, spy, module, host, vm = setup
        module.register_suspension(host, None)
        twin = WakingModule("wm2", sim, spy, state=module.state)
        twin.rearm()
        assert twin.state.ips_of_mac == {host.mac_address: {vm.ip_address: None}}
        twin.on_host_awake(host)
        assert module.state.vm_to_mac == {}
        assert module.state.ips_of_mac == {}
