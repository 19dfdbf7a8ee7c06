"""Layer spans for the traced pass, recorded from outside the program.

:class:`Tracer` replaces selected methods *on their classes* with timing
wrappers before the :class:`~repro.api.Simulation` is built, so
callbacks bound at construction (the suspend-sweep callback, the first
heartbeat, the WoL sender) are timed too.  Class-level wrappers keep
checkpointing working: a pickled instance refers to its class by name
and a bound method by its attribute name, never to the wrapper itself;
wrappers set on instances would make the pickle fail on a local object.

Every span records calls, inclusive time (outermost call only, so a
recursive or re-entrant span is not counted twice) and self time
(inclusive minus traced children).  Spans with no traced parent that
end inside ``Simulation.run`` add up to the traced run's covered time.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict


def _layer_spans():
    """``(owner, attribute, span)`` for every wrapped entry point."""
    from repro.api.sharded.coordinator import ShardedCoordinator
    from repro.api.sharded.transport import ShardTransport
    from repro.cluster.datacenter import DataCenter
    from repro.cluster.events import EventSimulator
    from repro.consolidation.drowsy import DrowsyController
    from repro.consolidation.placement import (
        IPAwarePlacement,
        PowerAwareBestFitDecreasing,
    )
    from repro.core.binding import FleetBinding
    from repro.network.requests import RequestProfile
    from repro.network.sdn import ReliableWolChannel, SDNSwitch
    from repro.resilience import CheckpointManager
    from repro.scenarios import ScenarioCompiler
    from repro.sim.event_driven import EventDrivenSimulation
    from repro.sim.hourly import HourlySimulator
    from repro.sim.suspend_sweep import SuspendSweepScheduler
    from repro.waking.failover import ReplicatedWakingService
    from repro.waking.module import WakingModule

    return (
        # sim: the engines' hour methods (the hour hooks fire at their end)
        (HourlySimulator, "_hour", "sim.hour"),
        (EventDrivenSimulation, "_hour_tick", "sim.hour"),
        (EventDrivenSimulation, "_finish_suspend", "sim.transition"),
        (EventDrivenSimulation, "_finish_resume", "sim.transition"),
        # core
        (FleetBinding, "try_bind", "core.bind"),
        (FleetBinding, "load_hour", "core.load_hour"),
        (FleetBinding, "observe", "core.observe"),
        # cluster
        (DataCenter, "check_invariants", "cluster.check_invariants"),
        (DataCenter, "sync_meters", "cluster.sync_meters"),
        (DataCenter, "migrate", "cluster.migrate"),
        (DataCenter, "apply_assignment", "cluster.migrate"),
        (DataCenter, "evacuate", "cluster.migrate"),
        # cluster.events: the loop, and the credits of coalesced sweeps
        (EventSimulator, "run_until", "events.loop"),
        (EventSimulator, "count_coalesced", "events.count_coalesced"),
        # suspend
        (SuspendSweepScheduler, "_fire", "suspend.sweep"),
        # network
        (EventDrivenSimulation, "_submit_generated", "network.arrival"),
        (SDNSwitch, "submit_request", "network.submit"),
        (SDNSwitch, "_finish", "network.completion"),
        (RequestProfile, "hourly_arrivals", "network.generate"),
        (RequestProfile, "sample_service_times", "network.generate"),
        # waking
        (WakingModule, "analyze_packet", "waking.analyze"),
        (WakingModule, "_fire_scheduled_wake", "waking.scheduled_wake"),
        (ReplicatedWakingService, "_heartbeat", "waking.heartbeat"),
        (ReliableWolChannel, "send", "waking.wol_send"),
        # consolidation
        (DrowsyController, "step", "consolidation.step"),
        (DrowsyController, "relocate_all", "consolidation.relocate_all"),
        (IPAwarePlacement, "place", "consolidation.place"),
        (PowerAwareBestFitDecreasing, "place", "consolidation.place"),
        # resilience, scenarios
        (CheckpointManager, "write_checkpoint", "resilience.checkpoint_write"),
        (ScenarioCompiler, "compile", "scenarios.compile"),
        # api.sharded (coordinator side; workers run untraced)
        (ShardedCoordinator, "_hour", "sim.hour"),
        (ShardedCoordinator, "_recv", "sharded.wait"),
        (ShardedCoordinator, "_reduce", "sharded.reduce"),
        (ShardTransport, "__init__", "sharded.launch"),
        (ShardTransport, "shutdown", "sharded.shutdown"),
    )


class Tracer:
    """Span and count recorder over class-level method wrappers."""

    def __init__(self) -> None:
        self.incl: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: Time in spans with no traced parent, ended inside the run.
        self.top_s = 0.0
        self.in_run = False
        self.wol_reasons: Counter = Counter()
        self.coalesced = 0
        self._stack: list[float] = []
        self._depth: Counter = Counter()

    def install(self) -> None:
        """Wrap every layer entry point, for the rest of the process."""
        for owner, attr, span in _layer_spans():
            self._wrap(owner, attr, span)

    def _note(self, span: str):
        """Per-call argument hook for the spans that also count."""
        if span == "waking.wol_send":
            reasons = self.wol_reasons

            def note(args):
                reasons[args[1].reason] += 1
            return note
        if span == "events.count_coalesced":
            def note(args):
                self.coalesced += args[1]
            return note
        return None

    def _wrap(self, owner, attr: str, span: str) -> None:
        raw = owner.__dict__[attr]
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) \
            else None
        fn = raw.__func__ if kind is not None else raw
        note = self._note(span)
        stack, depth = self._stack, self._depth
        incl, self_s, calls = self.incl, self.self_s, self.calls
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if note is not None:
                note(args)
            stack.append(0.0)
            depth[span] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                depth[span] -= 1
                calls[span] += 1
                self_s[span] += elapsed - child
                if not depth[span]:
                    incl[span] += elapsed
                if stack:
                    stack[-1] += elapsed
                elif tracer.in_run:
                    tracer.top_s += elapsed

        setattr(owner, attr, kind(timed) if kind is not None else timed)
