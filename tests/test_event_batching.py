"""Batched event-driven hot path (DESIGN.md §10).

Parity contract: the event simulator's swept, hour-sticky suspend
checks must produce *bit-identical* results to one fixed-period check
event per host (``PerHostEventSimulation`` in ``tests/oracles.py``, the
oracle) on every field but ``events_processed`` (fewer checks) —
including under adversarial interleavings of suspends, resumes,
migrations, WoL injections and blocked-I/O toggles (the hypothesis
property test).  Plus unit coverage for the timer wheel, the O(1)
wake/request indexes, the columnar blocked-I/O mirror and the per-VM
request substreams.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Simulation
from repro.cluster import DataCenter, Host, PowerState, ResourceSpec, VM
from repro.cluster.datacenter import PlacementError
from repro.cluster.events import EventSimulator
from repro.consolidation.drowsy import DrowsyController
from repro.core.binding import FleetBinding
from repro.core.params import DEFAULT_PARAMS
from repro.experiments.common import build_fleet
from repro.faults import (
    FaultPlan,
    HostCrashFaults,
    TransitionFaults,
    WakingServiceFaults,
    WolFaults,
)
from repro.sim.event_driven import EventConfig, EventDrivenSimulation
from repro.sim.suspend_sweep import SuspendSweepScheduler
from repro.suspend.columnar import (
    CODE_ACTIVE,
    CODE_BLOCKED_IO,
    CODE_CANDIDATE,
    CODE_EMPTY,
    classify_hosts,
    module_is_columnar,
)
from repro.suspend.module import SuspendDecision, SuspendingModule
from repro.traces.base import ActivityTrace
from repro.traces.synthetic import always_idle_trace
from repro.waking.packets import WoLPacket
from tests.oracles import (
    PerHostEventBackend,
    PerHostEventSimulation,
    assert_matches_oracle,
    assert_results_equal,
)


def _build(n_hosts=3, n_vms=9, hours=24, seed=11, oracle=None,
           **config_kw):
    """A production engine, or with ``oracle=dict(...)`` the per-host
    reference built with those options."""
    dc = build_fleet(n_hosts=n_hosts, n_vms=n_vms, llmi_fraction=0.5,
                     hours=hours, seed=seed)
    config = EventConfig(**config_kw)
    if oracle is None:
        sim = EventDrivenSimulation(dc, DrowsyController(dc), config=config)
    else:
        sim = PerHostEventSimulation(dc, DrowsyController(dc),
                                     config=config, **oracle)
    return sim, dc


# ----------------------------------------------------------------------
# parity: batched sweep vs per-host event oracle
# ----------------------------------------------------------------------

class _CyclicTransport:
    """A lossy WoL wire with a fixed verdict cycle: every engine making
    the same sends in the same order gets the same verdicts."""

    VERDICTS = (("ok", 0.0), ("drop", 0.0), ("delay", 0.5), ("drop", 0.0))

    def __init__(self):
        self.sent = 0

    def __call__(self, packet):
        self.sent += 1
        return self.VERDICTS[self.sent % len(self.VERDICTS)]


def _run_awkward(seed, hours, alias, lossy, ops, oracle):
    """One run of the awkward-path parity case: the per-push oracle
    (with the production sweeps, so the event counts match too) or the
    production engine.  Returns the result, the switch and waking
    observables and the engine."""
    dc = build_fleet(n_hosts=3, n_vms=9, llmi_fraction=0.5, hours=24,
                     seed=seed)
    if alias:
        for a, b in ((0, 1), (3, 4), (3, 7)):
            dc.vms[b].ip_address = dc.vms[a].ip_address
    engine = (PerHostEventSimulation(dc, DrowsyController(dc),
                                     per_host_checks=False)
              if oracle else EventDrivenSimulation(dc, DrowsyController(dc)))
    if lossy:
        engine.wol_channel.transport = _CyclicTransport()

    def fire(kind, target):
        hosts, vms = dc.hosts, dc.vms
        if kind == "crash":
            engine.crash_host(hosts[target % len(hosts)],
                              recover_after_s=60.0 * (1 + target % 20))
        elif kind == "kill":
            engine.waking.fail_primary()
            if target % 2:
                engine.waking.mirror.fail()  # total outage
        elif kind == "depart" and vms:
            vm = vms[target % len(vms)]
            dc.remove(vm, engine.sim.now)
            engine.note_vm_departed(vm.name)
            engine.rebind_fleet()
        elif kind == "wol":
            engine._on_wol(WoLPacket(hosts[target % len(hosts)].mac_address,
                                     reason="test"), engine.sim.now)
    for at, kind, target in ops:
        engine.sim.schedule_at(at, fire, kind, target)
    result = engine.run(hours)
    switch, channel = engine.switch, engine.wol_channel
    observed = (
        {h.name: list(h.transitions) for h in dc.hosts},
        switch.log.requests,
        (switch.packets_forwarded, switch.queued_requests,
         switch.requests_dropped, engine.sim.pending),
        (engine.waking.unanswered_packets, channel.attempts,
         channel.dropped, channel.delayed, channel.retries),
    )
    return result, observed, engine


class TestSweepParity:
    def test_batched_matches_oracle(self):
        oracle, dc_o = _build(oracle={})
        batched, dc_b = _build()
        assert_matches_oracle(batched.run(6), oracle.run(6))
        assert oracle.sweeper.sweeps_fired == 0  # one event per check
        # Power transition histories too: every suspend fires at the
        # instant the fixed-period grid picks.
        for h_o, h_b in zip(dc_o.hosts, dc_b.hosts):
            assert h_o.transitions == h_b.transitions

    def test_bulk_requests_match_per_push(self):
        """One RNG pass per hour equals one heap event per arrival with
        the service time drawn at submit — event count included."""
        per_push, _ = _build(oracle=dict(per_host_checks=False))
        bulk, _ = _build()
        assert_results_equal(per_push.run(6), bulk.run(6))

    def test_scalar_fleet_fallback_parity(self):
        """Fleets ``try_bind`` refuses keep the scalar per-VM models: the
        sweep classifies their hosts through the scalar host view but
        must still match the oracle, and the scalar path must match the
        columnar fleet path."""
        oracle, _ = _build(oracle=dict(binding="scalar"))
        scalar, _ = _build(oracle=dict(binding="scalar",
                                       per_host_checks=False,
                                       per_push_requests=False))
        batched, _ = _build()
        r_s = scalar.run(6)
        assert scalar._binding is None and oracle._binding is None
        assert_matches_oracle(r_s, oracle.run(6))
        assert_results_equal(r_s, batched.run(6))

    def test_deviating_module_falls_back_scalar(self):
        """A host with a heuristic is excluded from the columnar pass
        but still swept — and stays bit-identical to the oracle."""

        class VetoEverything:
            def host_seems_idle(self, host):
                return False

        def attach(sim):
            sim.suspending[sim.dc.hosts[0].name].heuristic = VetoEverything()

        oracle, dc_o = _build(oracle={})
        attach(oracle)
        batched, dc_b = _build()
        attach(batched)
        assert_matches_oracle(batched.run(6), oracle.run(6))
        # The vetoed host never suspended in either path.
        assert dc_b.hosts[0].suspend_count == dc_o.hosts[0].suspend_count

    def test_repeated_runs_rearm_cleanly(self):
        oracle, _ = _build(oracle={})
        batched, _ = _build()
        for start, n in ((0, 3), (3, 2), (5, 4)):
            r_o = oracle.run(n, start_hour=start)
            r_b = batched.run(n, start_hour=start)
            assert_results_equal(r_o, r_b, skip=("events_processed",))

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_interleaved_operations_bit_identical(self, data):
        """Suspends, resumes, migrations, WoL packets and blocked-I/O
        toggles interleaved: the batched sweep path must match the
        per-host oracle bit for bit (event count aside).  WoL packets
        and blocked-I/O toggles land anywhere in the hour; migrations
        land on hour starts, because the engine only migrates at hour
        ticks — the invariant the hour-sticky re-arm relies on."""
        seed = data.draw(st.integers(0, 2**16), label="seed")
        hours = data.draw(st.integers(1, 4), label="hours")
        n_ops = data.draw(st.integers(0, 8), label="n_ops")
        ops = []
        for _ in range(n_ops):
            at = data.draw(st.floats(1.0, hours * 3600.0 - 1.0), label="at")
            kind = data.draw(st.sampled_from(["wol", "migrate", "block"]),
                             label="kind")
            if kind == "migrate":
                at = 3600.0 * (at // 3600.0)
            ops.append((at, kind,
                        data.draw(st.integers(0, 63), label="target"),
                        data.draw(st.integers(0, 63), label="aux")))

        def run_one(use_batched):
            dc = build_fleet(n_hosts=3, n_vms=9, llmi_fraction=0.5,
                             hours=24, seed=seed)
            engine = (EventDrivenSimulation if use_batched
                      else PerHostEventSimulation)
            sim = engine(dc, DrowsyController(dc))

            def fire(kind, target, aux):
                hosts, vms = dc.hosts, dc.vms
                if kind == "wol":
                    sim._on_wol(WoLPacket(
                        hosts[target % len(hosts)].mac_address,
                        reason="test"), sim.sim.now)
                elif kind == "migrate":
                    vm = vms[target % len(vms)]
                    dest = hosts[aux % len(hosts)]
                    if dc.host_of(vm) is not dest and dest.can_host(vm):
                        sim._execute_migration(vm, dest)
                elif kind == "block":
                    vm = vms[target % len(vms)]
                    vm.blocked_io = not vm.blocked_io
            for at, kind, target, aux in ops:
                sim.sim.schedule_at(at, fire, kind, target, aux)
            result = sim.run(hours)
            transitions = {h.name: list(h.transitions) for h in dc.hosts}
            return result, transitions

        r_o, t_o = run_one(False)
        r_b, t_b = run_one(True)
        assert_results_equal(r_o, r_b, skip=("events_processed",))
        assert t_o == t_b

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_awkward_request_paths_bit_identical(self, data):
        """The arrival stream against one heap event per arrival, event
        count included, where requests do not simply complete: hosts
        crashing and recovering (arrivals to SUSPENDING, SUSPENDED and
        CRASHED hosts), VMs sharing an IP (aliased WoLs), the waking
        primary killed (unanswered analyses), a lossy WoL transport and
        VMs departing mid-hour."""
        seed = data.draw(st.integers(0, 2**16), label="seed")
        hours = data.draw(st.integers(1, 3), label="hours")
        alias = data.draw(st.booleans(), label="alias")
        lossy = data.draw(st.booleans(), label="lossy")
        ops = data.draw(st.lists(st.tuples(
            st.floats(1.0, hours * 3600.0 - 1.0),
            st.sampled_from(["crash", "kill", "depart", "wol"]),
            st.integers(0, 63)), max_size=6), label="ops")
        oracle = _run_awkward(seed, hours, alias, lossy, ops, oracle=True)
        stream = _run_awkward(seed, hours, alias, lossy, ops, oracle=False)
        assert_results_equal(oracle[0], stream[0])
        assert oracle[1] == stream[1]

    def test_awkward_request_paths_are_reached(self):
        """One fixed case of the property above, checked to reach every
        path it names."""
        ops = [(1500.0, "crash", 0), (1600.0, "crash", 1),
               (1700.0, "kill", 1), (2000.0, "depart", 4),
               (5000.0, "wol", 2)]
        oracle = _run_awkward(5, 2, True, True, ops, oracle=True)
        result, observed, engine = _run_awkward(5, 2, True, True, ops,
                                                oracle=False)
        assert_results_equal(oracle[0], result)
        assert oracle[1] == observed
        assert engine.host_crashes == 2 and engine.recovered_requests > 0
        assert engine.waking.unanswered_packets > 0
        assert engine.wol_channel.dropped > 0
        assert engine.wol_channel.delayed > 0
        assert result.request_summary["wake_requests"] > 0


class TestArrivalStream:
    def test_hour_tick_leaves_no_arrival_in_the_heap(self):
        """The hour's arrivals wait in the kernel's stream: at the end of
        every hour tick the heap holds none of them."""
        sim, _ = _build()
        seen = []

        def check(t, now):
            heap = sim.sim._heap
            seen.append((sum(1 for _, _, ev in heap
                             if ev.callback == sim._submit_generated),
                         sim.sim.pending - sim.sim._live))
        sim.hour_hooks += (check,)
        sim.run(4)
        assert [in_heap for in_heap, _ in seen] == [0] * 4
        assert all(in_stream > 0 for _, in_stream in seen)


class TestArrivalSliceParity:
    """The slice consumer against the per-push oracle with production
    sweeps, under lossy WoL, a primary kill (its detection window sends
    every arrival down the per-request path), host crashes and a VM
    departing mid-hour: every ``RunResult`` field, ``events_processed``
    included, and the request log are equal."""

    PLAN = FaultPlan(name="slices",
                     wol=WolFaults(loss_probability=0.3,
                                   delay_probability=0.1),
                     crashes=HostCrashFaults(rate_per_host_per_h=0.05,
                                             recover_after_s=900.0),
                     waking=WakingServiceFaults(kill_primary_at_h=3.0))

    def _run(self, backend):
        sim = Simulation(build_fleet(8, 32, 0.5, 24, seed=5), "drowsy",
                         backend, seed=5, faults=self.PLAN)
        engine = sim.engine

        def depart():
            vm = engine.dc.vms[3]
            engine.dc.remove(vm, engine.sim.now)
            sim.note_vm_departed(vm.name)
            sim.rebind_fleet()
        engine.sim.schedule_at(2.5 * 3600.0, depart)
        return sim.run(8), engine

    def test_arrival_completing_past_the_bound_is_in_flight(self):
        host = Host("h0", params=DEFAULT_PARAMS)
        dc = DataCenter([host], DEFAULT_PARAMS)
        dc.place(VM("v0", ActivityTrace("busy", np.full(48, 0.5)),
                    ResourceSpec(cpus=1, memory_mb=2048)), host)
        engine = EventDrivenSimulation(
            dc, DrowsyController(dc),
            config=EventConfig(seed=3, suspend_enabled=False))
        engine.run(1)
        sim, log = engine.sim, engine.switch.log
        before = (sim.events_processed, len(log))
        sim.schedule_stream([3700.0, 3799.99], engine._submit_generated,
                            ["v0", "v0"], [0.25, 0.05])
        sim.run_until(3800.0)
        assert sim.events_processed == before[0] + 3
        assert list(log.arrivals[before[1]:]) == [3700.0]
        assert list(log.completions[before[1]:]) == [3700.25]
        [at] = [t for t, _, ev in sim._heap if not ev.cancelled
                and ev.callback == engine.switch._finish]
        assert at == 3799.99 + 0.05
        sim.run_until(3900.0)
        assert list(log.arrivals[before[1]:]) == [3700.0, 3799.99]
        assert log.completions[-1] == 3799.99 + 0.05

    def test_faults_and_churn(self, monkeypatch):
        consume = EventDrivenSimulation._submit_generated
        slices = []

        def counted(engine, times, names, services, lo, hi):
            slices.append(hi - lo)
            return consume(engine, times, names, services, lo, hi)
        monkeypatch.setattr(EventDrivenSimulation, "_submit_generated",
                            counted)
        result, engine = self._run("event")
        oracle, oracle_engine = self._run(
            PerHostEventBackend(per_host_checks=False))
        assert_results_equal(oracle, result)
        assert engine.switch.log.requests == oracle_engine.switch.log.requests
        summary = result.fault_summary
        assert summary.wol_dropped > 0 and summary.host_crashes > 0
        assert summary.primary_kills == 1 and summary.failovers == 1
        assert engine.waking.unanswered_packets > 0
        assert result.request_summary["wake_requests"] > 0
        assert engine._departed_vms
        # Most arrivals went in bulk.
        assert len(slices) < engine.switch.packets_forwarded / 10
        assert max(slices) > 100


def _depart(engine, name):
    vm = engine.dc.find_vm(name)[0]
    engine.dc.remove(vm, engine.sim.now)
    engine.note_vm_departed(name)
    engine.rebind_fleet()


def _crash_host(engine, name):
    engine.crash_host(engine.dc.find_vm(name)[1], recover_after_s=300.0)


def _map_address(engine, name):
    """The host stays ON, but the waking map holds its VMs' addresses."""
    engine.waking.register_suspension(engine.dc.find_vm(name)[1], None)


def _kill_primary(engine, name):
    engine.waking.fail_primary()


def _plain_values(value):
    """Every scalar inside ``value``, through dicts, lists and tuples."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _plain_values(k)
            yield from _plain_values(v)
    elif isinstance(value, (list, tuple)):
        for v in value:
            yield from _plain_values(v)
    else:
        yield value


class TestArrivalSliceBreaks:
    """Hand-scheduled arrival streams against the per-push oracle (one
    heap event per arrival), one case per reason an arrival leaves the
    bulk run: its VM departed, its host is not ON, its address is in the
    waking map, it completes past the drain's bound, or the waking
    primary is dead.  The arrival that breaks the run goes alone; the
    engines agree on every counter, the clock and the request log."""

    STEP = 0.25  # stream spacing; the heartbeat detection takes 3 s
    N = 20
    BREAK = 3

    def _engines(self):
        engines = []
        for oracle in (False, True):
            dc = build_fleet(n_hosts=3, n_vms=9, llmi_fraction=0.5,
                             hours=24, seed=11)
            config = EventConfig(seed=3, suspend_enabled=False)
            engine = (PerHostEventSimulation(dc, DrowsyController(dc),
                                             config=config,
                                             per_host_checks=False)
                      if oracle else
                      EventDrivenSimulation(dc, DrowsyController(dc),
                                            config=config))
            engine.run(1)
            engines.append(engine)
        return engines

    def _stream(self, engine):
        """``(times, names, services)``: entry ``BREAK`` is for the first
        VM of the first occupied host, every other entry for a VM on
        another host.  The service times are an array, as the engine's
        own streams hold them."""
        hosts = [h for h in engine.dc.hosts if h.vms]
        target = hosts[0].vms[0].name
        others = [vm.name for h in hosts[1:] for vm in h.vms]
        assert others
        names = [others[i % len(others)] for i in range(self.N)]
        names[self.BREAK] = target
        times = [3700.0 + self.STEP * i for i in range(self.N)]
        return times, names, np.full(self.N, 0.05)

    def _observe(self, engine):
        sim, switch, waking = engine.sim, engine.switch, engine.waking
        return (sim.now, sim.events_processed, sim.pending,
                switch.log.requests, switch.packets_forwarded,
                switch.queued_requests, waking.unanswered_packets,
                waking.primary.packets_analyzed,
                waking.mirror.packets_analyzed,
                waking.primary.wol_sent + waking.mirror.wol_sent,
                {h.name: list(h.transitions) for h in engine.dc.hosts})

    def _play(self, setup, setup_at=3650.0, past_bound=False):
        engine, oracle = self._engines()
        times, names, services = self._stream(engine)
        if past_bound:
            services[self.BREAK] = 500.0
        slices = []

        def consume(times, keys, values, lo, hi):
            reached = engine._submit_generated(times, keys, values, lo, hi)
            slices.append((lo, reached))
            return reached

        def push(name, service):
            if name not in oracle._departed_vms:
                oracle.switch.submit_request(name, oracle.sim.now, service)

        for e in (engine, oracle):
            if setup is not None:
                e.sim.schedule_at(setup_at, setup, e, names[self.BREAK])
        engine.sim.schedule_stream(times, consume, names, services)
        for t, name, service in zip(times, names, services.tolist()):
            oracle.sim.schedule_at(t, push, name, service)
        seen = []
        for bound in (3800.0, 4500.0):
            for e in (engine, oracle):
                e.sim.run_until(bound)
            seen.append(self._observe(engine))
            assert seen[-1] == self._observe(oracle)
            # An event the slow arrival scheduled (a completion past the
            # bound, a WoL's transition) is due at a plain float.
            assert all(type(t) is float for t, _, _ in engine.sim._heap)
        assert type(engine.sim.now) is float
        log = engine.switch.log
        assert all(type(n) is str for n in log.vm_names)
        assert {type(c).__name__ for c in (log.arrivals, log.service_times,
                                           log.completions)} == {"array"}
        assert len(log) == oracle.switch.packets_forwarded - (
            oracle.switch.queued_requests)
        return slices, engine

    def _assert_breaks_alone(self, slices):
        assert slices[0] == (0, self.BREAK)
        assert slices[1] == (self.BREAK, self.BREAK + 1)
        assert max(hi - lo for lo, hi in slices[2:]) > 1

    def test_departed_vm(self):
        slices, engine = self._play(_depart)
        self._assert_breaks_alone(slices)
        assert engine._departed_vms

    def test_host_not_on(self):
        slices, engine = self._play(_crash_host)
        self._assert_breaks_alone(slices)
        assert engine.host_crashes == 1
        assert engine.switch.log.woke.count(1) == 1  # waited for recovery

    def test_address_in_the_waking_map(self):
        slices, engine = self._play(_map_address)
        self._assert_breaks_alone(slices)
        assert engine.waking.active.wol_sent == 1  # inbound-request

    def test_completion_past_the_bound(self):
        slices, engine = self._play(None, past_bound=True)
        self._assert_breaks_alone(slices)
        assert engine.switch.log.completions[-1] == (
            3700.0 + self.STEP * self.BREAK + 500.0)

    def test_dead_waking_primary(self):
        """Killed between entries 2 and 3: until the mirror takes over,
        three missed heartbeats later, every arrival goes alone."""
        at = 3700.0 + self.STEP * (self.BREAK - 0.5)
        slices, engine = self._play(_kill_primary, setup_at=at)
        assert slices[0] == (0, self.BREAK)
        # Beats at 3701, 3702 and 3703 s miss; the third promotes.
        dead = [i for i in range(self.BREAK, self.N)
                if 3700.0 + self.STEP * i < 3703.0]
        assert [s for s in slices if s[0] in dead] == [
            (i, i + 1) for i in dead]
        assert slices[-1][1] - slices[-1][0] > 1  # bulk again after failover
        assert engine.waking.failovers == 1
        assert engine.waking.unanswered_packets >= len(dead)

    def test_run_result_holds_plain_floats(self):
        """No numpy scalar leaks from the stream's arrays into a result
        (``repr`` would show it, and the digests with it)."""
        engine, _ = _build()
        result = engine.run(3)
        assert result.request_summary["requests"] > 0
        for f in dataclasses.fields(result):
            for value in _plain_values(getattr(result, f.name)):
                assert not isinstance(value, np.generic), f.name
        assert type(engine.sim.now) is float


# ----------------------------------------------------------------------
# timer wheel
# ----------------------------------------------------------------------

class TestSuspendSweepScheduler:
    def _wheel(self):
        sim = EventSimulator()
        swept = []
        wheel = SuspendSweepScheduler(
            sim, lambda now, due: swept.append((now, [h.name for h in due])))
        return sim, wheel, swept

    def _host(self, name):
        return Host(name, params=DEFAULT_PARAMS)

    def test_one_event_per_deadline(self):
        sim, wheel, swept = self._wheel()
        hosts = [self._host(f"h{i}") for i in range(4)]
        for h in hosts:
            wheel.schedule(h, 5.0)
        assert sim.pending == 1  # one sweep event, not four
        sim.run()
        assert swept == [(5.0, ["h0", "h1", "h2", "h3"])]
        # events_processed accounts one logical event per due host.
        assert sim.events_processed == 4

    def test_rearm_moves_host_to_new_deadline(self):
        sim, wheel, swept = self._wheel()
        h = self._host("h0")
        wheel.schedule(h, 5.0)
        wheel.schedule(h, 9.0)  # re-arm: old registration is stale
        assert wheel.next_deadline(h) == 9.0
        sim.run()
        assert swept == [(9.0, ["h0"])]
        assert sim.events_processed == 1  # 5.0 bucket was cancelled

    def test_cancel_last_member_cancels_sweep_event(self):
        sim, wheel, swept = self._wheel()
        h = self._host("h0")
        wheel.schedule(h, 5.0)
        wheel.cancel(h)
        assert len(wheel) == 0
        sim.run()
        assert swept == []
        assert sim.events_processed == 0

    def test_partial_cancellation_skips_stale_entries(self):
        sim, wheel, swept = self._wheel()
        a, b, c = (self._host(n) for n in "abc")
        for h in (a, b, c):
            wheel.schedule(h, 5.0)
        wheel.cancel(b)
        sim.run()
        assert swept == [(5.0, ["a", "c"])]
        assert sim.events_processed == 2

    def test_rearm_same_deadline_keeps_single_evaluation(self):
        sim, wheel, swept = self._wheel()
        h = self._host("h0")
        wheel.schedule(h, 5.0)
        wheel.schedule(h, 5.0)  # cancel + re-add at the same instant
        sim.run()
        assert swept == [(5.0, ["h0"])]
        assert sim.events_processed == 1

    def test_sweep_can_reschedule_during_fire(self):
        sim = EventSimulator()
        seen = []
        wheel = None

        def sweep(now, due):
            seen.append(now)
            if now < 14.0:
                for h in due:
                    wheel.schedule(h, now + 5.0)
        wheel = SuspendSweepScheduler(sim, sweep)
        wheel.schedule(self._host("h0"), 5.0)
        sim.run()
        assert seen == [5.0, 10.0, 15.0]


# ----------------------------------------------------------------------
# columnar verdicts
# ----------------------------------------------------------------------

class TestColumnarVerdicts:
    def test_classification_codes(self):
        dc = build_fleet(n_hosts=3, n_vms=6, llmi_fraction=0.5,
                         hours=24, seed=5)
        binding = FleetBinding.try_bind(dc, DEFAULT_PARAMS)
        binding.ensure_horizon(0, 24)
        binding.load_hour(0)
        acc = dc._accounting
        codes = classify_hosts(acc, 0)
        for k, host in enumerate(dc.hosts):
            if not host.vms:
                assert codes[k] == CODE_EMPTY
            elif any(vm.blocked_io for vm in host.vms):
                assert codes[k] == CODE_BLOCKED_IO
            elif any(vm.current_activity > 0.0 for vm in host.vms):
                assert codes[k] == CODE_ACTIVE
            else:
                assert codes[k] == CODE_CANDIDATE

    def test_blocked_io_mirrors_into_fleet_column(self):
        dc = build_fleet(n_hosts=2, n_vms=4, llmi_fraction=0.5,
                         hours=24, seed=5)
        vm = dc.vms[0]
        vm.blocked_io = True  # before binding
        binding = FleetBinding.try_bind(dc, DEFAULT_PARAMS)
        i = binding.index[vm.name]
        assert binding.fleet.blocked_io[i]
        vm.blocked_io = False  # after binding: property mirrors
        assert not binding.fleet.blocked_io[i]
        version = binding.fleet.blocked_version
        vm.blocked_io = False  # no-op write: version stable
        assert binding.fleet.blocked_version == version
        vm.blocked_io = True
        assert binding.fleet.blocked_version == version + 1
        acc = dc._accounting
        assert bool(acc.any_blocked_io()[acc.pos(dc.host_of(vm))])

    def test_module_is_columnar(self):
        host = Host("h0", params=DEFAULT_PARAMS)
        module = SuspendingModule(host, DEFAULT_PARAMS)
        assert module_is_columnar(module)
        module.heuristic = object()
        assert not module_is_columnar(module)
        other = SuspendingModule(host, DEFAULT_PARAMS,
                                 blacklist=frozenset({"watchdogd"}))
        assert not module_is_columnar(other)


# ----------------------------------------------------------------------
# O(1) wake / request indexes
# ----------------------------------------------------------------------

class TestIndexes:
    def test_host_by_mac(self):
        dc = build_fleet(n_hosts=4, n_vms=8, llmi_fraction=0.5,
                         hours=24, seed=5)
        for host in dc.hosts:
            assert dc.host_by_mac[host.mac_address] is host
        dc.check_invariants()
        assert len(dc.host_by_mac) == len(dc.hosts)

    def test_find_vm_o1_and_detects_wiring(self):
        dc = build_fleet(n_hosts=2, n_vms=4, llmi_fraction=0.5,
                         hours=24, seed=5)
        vm = dc.vms[0]
        found, host = dc.find_vm(vm.name)
        assert found is vm and host is dc.host_of(vm)
        # Wire a VM onto a host directly (bypassing place): the registry
        # is authoritative, so the lookup misses and the invariant check
        # reports the divergence instead of healing it.
        rogue = VM("rogue", vm.trace, vm.resources, params=DEFAULT_PARAMS)
        dc.hosts[1].vms.append(rogue)
        with pytest.raises(KeyError):
            dc.find_vm("rogue")
        with pytest.raises(PlacementError):
            dc.check_invariants()
        dc.hosts[1].vms.remove(rogue)
        dc.check_invariants()
        with pytest.raises(KeyError):
            dc.find_vm("never-existed")

    def test_wol_uses_index(self):
        sim, dc = _build()
        sim.run(1)
        # Unknown MAC: silently ignored (same as the scan returning None).
        sim._on_wol(WoLPacket("00:00:00:00:00:00", reason="test"),
                    sim.sim.now)


# ----------------------------------------------------------------------
# per-VM request substreams
# ----------------------------------------------------------------------

class TestPerVMStreams:
    @staticmethod
    def _arrivals_by_vm(sim):
        by_vm = {}
        for req in sim.switch.log.requests:
            by_vm.setdefault(req.vm_name, []).append(
                (req.arrival_s, req.service_time_s))
        return {k: sorted(v) for k, v in by_vm.items()}

    def test_reorder_invariance(self):
        """Reversing placement order changes shared-stream draws but not
        per-VM substream draws."""
        def run(reverse, streams):
            # llmi_fraction=0: every VM active every hour, so iteration
            # order visibly couples the shared stream's draws.
            dc = build_fleet(n_hosts=2, n_vms=6, llmi_fraction=0.0,
                             hours=24, seed=13)
            if reverse:
                for host in dc.hosts:
                    host.vms.reverse()
                dc.check_invariants()
            sim = EventDrivenSimulation(
                dc, DrowsyController(dc),
                config=EventConfig(request_streams=streams))
            sim.run(4)
            return self._arrivals_by_vm(sim)

        a, b = run(False, "per-vm"), run(True, "per-vm")
        assert a == b
        c, d = run(False, "shared"), run(True, "shared")
        assert c != d  # the shared stream is order-coupled

    def test_per_vm_streams_deterministic(self):
        def run():
            sim, _ = _build(request_streams="per-vm")
            sim.run(3)
            return self._arrivals_by_vm(sim)
        assert run() == run()

    def test_per_vm_requires_bulk(self):
        """Per-push arrivals draw from the one shared stream, so only
        the bulk path can key requests per VM."""
        with pytest.raises(ValueError):
            _build(request_streams="per-vm", oracle={})
        with pytest.raises(ValueError):
            _build(request_streams="typo")


def test_events_per_second_metric_is_comparable():
    """The sweep credits coalesced checks, so events_processed — the
    events/s numerator — counts every check performed while physical
    heap traffic shrinks."""
    batched, _ = _build()
    result = batched.run(4)
    assert batched.sweeper.checks_performed > 0
    assert batched.sweeper.sweeps_fired < batched.sweeper.checks_performed
    assert result.events_processed >= batched.sweeper.checks_performed


class TestAdaptiveCheckPeriods:
    """Adaptive suspend checks (DESIGN.md §12): a check is re-armed where
    its verdict can next change, bit-identical to the fixed-period
    oracle except for the check-event count."""

    def test_parity_with_fixed_period_oracle(self):
        fixed, dc_f = _build(n_hosts=4, n_vms=16, oracle={})
        adaptive, dc_a = _build(n_hosts=4, n_vms=16)
        r_f, r_a = fixed.run(8), adaptive.run(8)
        assert_matches_oracle(r_a, r_f)
        # Power trajectories are identical to the second: every suspend
        # fires at exactly the deadline the fixed grid would have used.
        for h_f, h_a in zip(dc_f.hosts, dc_a.hosts):
            assert h_f.transitions == h_a.transitions

    def test_widening_keeps_grid_alignment_across_hours(self):
        """Longer horizon with migrations and resumes mixed in."""
        fixed, dc_f = _build(n_hosts=3, n_vms=12, oracle={})
        adaptive, dc_a = _build(n_hosts=3, n_vms=12)
        r_f, r_a = fixed.run(12), adaptive.run(12)
        for h_f, h_a in zip(dc_f.hosts, dc_a.hosts):
            assert h_f.transitions == h_a.transitions
        assert r_f.energy_kwh_by_host == r_a.energy_kwh_by_host
        assert r_f.request_summary == r_a.request_summary


def _one_host(trace, period=7.0, engine=EventDrivenSimulation):
    """One host with one VM; a check period that does not divide the
    hour, so hour-end grid points are off the boundary."""
    params = dataclasses.replace(DEFAULT_PARAMS, suspend_check_period_s=period)
    host = Host("h0", params=params)
    dc = DataCenter([host], params)
    dc.place(VM("v0", trace, ResourceSpec(cpus=1, memory_mb=2048),
                params=params, ip_address="10.7.0.1"), host)
    sim = engine(dc, DrowsyController(dc, params=params), params,
                 EventConfig(seed=3))
    checks: list[float] = []
    sweep = sim.sweeper._sweep

    def spy(now, due):
        checks.extend(now for _ in due)
        sweep(now, due)
    sim.sweeper._sweep = spy
    return sim, host, checks


def _suspends(host):
    return [t.time for t in host.transitions
            if t.to_state is PowerState.SUSPENDING]


class TestHourStickyChecks:
    """Where the default path re-arms a check: ACTIVE hosts at the first
    grid point at/after the hour end, IN_GRACE hosts at the first grid
    point at/after ``min(grace_until, hour end)``."""

    def test_active_host_checked_once_per_hour(self):
        sim, host, checks = _one_host(ActivityTrace("busy", np.full(72, 0.5)))
        sim.run(3)
        # Grid 7, 14, ...: the first points at/after 3600 and 7200 are
        # 3605 and 7203; the next, 10801, lies past the horizon.
        assert checks == [7.0, 3605.0, 7203.0]
        assert sim.sweeper.next_deadline(host) == 10801.0
        counts = sim.suspending["h0"].decision_counts
        assert counts[SuspendDecision.ACTIVE] == 3
        assert host.suspend_count == 0

    def test_in_grace_host_rechecked_at_grace_end(self):
        sim, host, checks = _one_host(always_idle_trace(72))
        host.grace_until = 1234.5
        sim.run(1)
        assert checks[:2] == [7.0, 1239.0]  # 7 * 177 = 1239 >= 1234.5
        assert _suspends(host) == [1239.0]

    def test_grace_past_hour_end_rechecks_at_the_boundary(self):
        sim, host, checks = _one_host(always_idle_trace(72))
        host.grace_until = 5003.5
        sim.run(2)
        # min(grace, hour end) = 3600 -> 3605; then 5005 >= 5003.5.
        assert checks[:3] == [7.0, 3605.0, 5005.0]
        assert _suspends(host) == [5005.0]

    @pytest.mark.parametrize("grace", [0.0, 1234.5, 5003.5])
    def test_suspend_instant_matches_fixed_period_oracle(self, grace):
        runs = []
        for engine in (EventDrivenSimulation, PerHostEventSimulation):
            sim, host, _ = _one_host(always_idle_trace(72), engine=engine)
            host.grace_until = grace
            sim.run(2)
            runs.append(_suspends(host))
        assert runs[0] == runs[1] and runs[0]

    def test_parity_with_oracle_under_crashes_and_failed_resumes(self):
        """Crashes cancel checks mid-hour and failed resumes evacuate
        VMs onto live hosts mid-hour: every field but the event count
        still matches the fixed-period per-host oracle."""
        plan = FaultPlan(
            name="evacuations",
            crashes=HostCrashFaults(rate_per_host_per_h=0.05,
                                    recover_after_s=900.0),
            transitions=TransitionFaults(resume_failure_probability=0.3,
                                         recover_after_s=1200.0))
        runs = []
        for backend in ("event", PerHostEventBackend()):
            # A fleet whose resumed hosts sit out grace windows that end
            # mid-hour, so an IN_GRACE re-arm decides a suspend instant.
            dc = build_fleet(n_hosts=16, n_vms=48, llmi_fraction=0.75,
                             hours=8, seed=5)
            runs.append(Simulation(dc, "drowsy", backend,
                                   config=EventConfig(seed=5),
                                   faults=plan).run(8))
        fast, oracle = runs
        assert oracle.fault_summary.failover_migrations > 0
        assert oracle.fault_summary.host_crashes > 0
        assert_matches_oracle(fast, oracle)
