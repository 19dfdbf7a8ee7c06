"""Event elision (DESIGN.md §10, §14): the event engine schedules no
event whose outcome is already known.

* Heartbeats are armed only when the waking primary is killed, yet the
  mirror is promoted at the instant the always-on chain would pick.
* Request completions inside the running drain are recorded inline; a
  completion past the horizon is a heap event, so no request is lost or
  double-counted.  (Checkpoint/resume parity on the event backend is
  ``tests/test_resilience.py::TestCheckpointResume``.)
"""

import numpy as np
import pytest

from repro.api import Simulation
from repro.cluster import DataCenter, Host, ResourceSpec, VM
from repro.cluster.events import EventSimulator
from repro.consolidation.drowsy import DrowsyController
from repro.core.params import DEFAULT_PARAMS
from repro.experiments.common import build_fleet
from repro.faults import FaultPlan, WakingServiceFaults
from repro.network.requests import Request
from repro.sim.event_driven import EventConfig, EventDrivenSimulation
from repro.traces.base import ActivityTrace
from repro.waking.failover import ReplicatedWakingService

PERIOD = DEFAULT_PARAMS.heartbeat_period_s
MISS_LIMIT = DEFAULT_PARAMS.heartbeat_miss_limit


def _fleet(hours=8):
    return build_fleet(n_hosts=4, n_vms=12, llmi_fraction=0.5,
                       hours=hours, seed=3)


# ----------------------------------------------------------------------
# heartbeats only after a kill
# ----------------------------------------------------------------------

class TestLazyHeartbeat:
    def _service(self):
        sim = EventSimulator()
        service = ReplicatedWakingService(sim, lambda packet, now: None)
        promoted = []
        promote = service._promote_mirror

        def spy():
            promoted.append(sim.now)
            promote()
        service._promote_mirror = spy
        return sim, service, promoted

    def test_fault_free_run_schedules_no_beat(self):
        sim = Simulation(_fleet(), "drowsy", "event", seed=3)
        sim.run(4)
        assert sim.engine.waking.beats == 0
        assert sim.engine.waking.failovers == 0

    @pytest.mark.parametrize("kill_at, first_beat", [
        (100.0, 100.0),   # grid instant: its own beat is the first miss
        (100.25, 101.0),  # between beats: the next grid instant
    ])
    def test_promotion_instant_matches_always_on_chain(self, kill_at,
                                                       first_beat):
        sim, service, promoted = self._service()
        # Scheduled in advance, like every fault plan's kill.
        sim.schedule_at(kill_at, service.fail_primary)
        sim.run_until(kill_at + 10 * PERIOD)
        assert promoted == [first_beat + (MISS_LIMIT - 1) * PERIOD]
        assert service.beats == MISS_LIMIT
        assert service.failovers == 1
        assert sim.pending == 0  # the chain stops after promotion

    def test_second_kill_does_not_arm_a_second_chain(self):
        sim, service, promoted = self._service()
        sim.schedule_at(50.0, service.fail_primary)
        sim.schedule_at(50.5, service.fail_primary)
        sim.run_until(100.0)
        assert promoted == [50.0 + (MISS_LIMIT - 1) * PERIOD]
        assert service.beats == MISS_LIMIT

    def test_engine_kill_promotes_mirror(self):
        plan = FaultPlan(name="kill",
                         waking=WakingServiceFaults(kill_primary_at_h=2.0))
        sim = Simulation(_fleet(), "drowsy", "event", seed=3, faults=plan)
        result = sim.run(4)
        assert result.fault_summary.failovers == 1
        assert sim.engine.waking.beats == MISS_LIMIT


# ----------------------------------------------------------------------
# inline completions
# ----------------------------------------------------------------------

def _busy_host_sim():
    """One always-busy host, so it stays ON and requests complete."""
    host = Host("h0", params=DEFAULT_PARAMS)
    dc = DataCenter([host], DEFAULT_PARAMS)
    dc.place(VM("v0", ActivityTrace("busy", np.full(48, 0.5)),
                ResourceSpec(cpus=1, memory_mb=2048), params=DEFAULT_PARAMS,
                ip_address="10.7.0.1"), host)
    return EventDrivenSimulation(dc, DrowsyController(dc),
                                 config=EventConfig(seed=3))


def _in_flight(engine) -> list[Request]:
    """Requests whose completion still waits in the heap."""
    finish = engine.switch._finish
    return [ev.args[0] for _, _, ev in engine.sim._heap
            if not ev.cancelled and ev.callback == finish]


def _conserved(engine) -> bool:
    switch = engine.switch
    return (len(switch.log) + switch.queued_requests
            + switch.requests_dropped + len(_in_flight(engine))
            == switch.packets_forwarded)


class TestInlineCompletions:
    def test_completion_inside_the_drain_is_recorded_at_its_instant(self):
        engine = _busy_host_sim()
        engine.sim.schedule_at(1000.0, engine.switch.submit_request, "v0",
                               1000.0, 0.25)
        engine.run(1)
        assert Request(arrival_s=1000.0, vm_name="v0", service_time_s=0.25,
                       completion_s=1000.0 + 0.25) in engine.switch.log.requests
        assert _conserved(engine)

    def test_request_straddling_the_horizon_is_in_flight_not_lost(self):
        engine = _busy_host_sim()
        arrival = 3600.0 - 0.01
        engine.sim.schedule_at(arrival, engine.switch.submit_request, "v0",
                               arrival, 0.05)
        engine.run(1)
        [request] = [r for r in _in_flight(engine) if r.arrival_s == arrival]
        assert (request.vm_name, request.service_time_s) == ("v0", 0.05)
        assert not request.completed
        assert arrival not in engine.switch.log.arrivals
        assert engine.sim.pending >= len(_in_flight(engine))
        assert _conserved(engine)
        # The next drain fires it at the very instant it was due.
        engine.run(1, start_hour=1)
        assert request.completion_s == arrival + 0.05
        assert request in engine.switch.log.requests
        assert _conserved(engine)

    def test_submit_outside_a_drain_schedules_the_completion(self):
        engine = _busy_host_sim()
        engine.run(1)
        before = engine.sim.events_processed
        now = engine.sim.now
        engine.switch.submit_request("v0", now, 0.0)
        [request] = [r for r in _in_flight(engine) if r.arrival_s == now]
        assert not request.completed  # nothing is draining
        assert engine.sim.events_processed == before
        engine.sim.run_until(engine.sim.now)
        assert request.completion_s == 3600.0
        assert engine.sim.events_processed == before + 1

    def test_each_inline_completion_counts_one_event(self):
        """events_processed keeps its completion share: the oracle-free
        event mix (hour ticks + arrivals + completions + sweep events +
        transitions) still adds up to the heap pops."""
        sim = Simulation(_fleet(), "drowsy", "event", seed=3)
        result = sim.run(6)
        engine = sim.engine
        sweeper, switch = engine.sweeper, engine.switch
        pops = result.events_processed - (sweeper.checks_performed
                                          - sweeper.sweeps_fired)
        mix = (result.hours + switch.packets_forwarded
               + int(result.request_summary["requests"])
               + sweeper.sweeps_fired + engine.waking.beats
               + sum(result.suspend_cycles_by_host.values())
               + sum(result.resume_cycles_by_host.values()))
        assert abs(pops - mix) <= engine.sim.pending
        assert _conserved(engine)
