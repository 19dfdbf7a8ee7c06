"""Seed-deterministic fault injection over the `repro.api` façade.

:class:`FaultInjector` turns a frozen :class:`~repro.faults.spec.
FaultPlan` into concrete fault events against a running simulation.  It
is an :class:`~repro.api.observers.Observer`: ``on_run_start`` installs
the hooks appropriate to the backend, ``on_hour`` applies hour-grained
faults on the hourly engine, and :meth:`finalize` (called by
``Simulation.run``) collects the :class:`~repro.faults.spec.FaultSummary`
attached to the unified result.

Determinism rules (DESIGN.md §14):

* every random draw comes from a ``Philox`` substream keyed by
  ``stable_seed(seed, "faults", plan.name, concern[, entity])`` — never
  from the engine's request RNG, so attaching a plan does not shift the
  workload's draws, and the same ``(plan, seed)`` replays the same
  fault sequence across runs, across ``SweepRunner`` spawn workers and
  across fleet iteration orders (crash processes, WoL transport draws
  and suspend-hang draws are keyed per entity — host name / MAC — so
  each host's fault sequence is independent of every other host's, and
  the sharded backend can slice a plan by host without shifting draws);
* a concern whose probability/rate is zero installs nothing and draws
  nothing, so an all-zero plan is bit-identical to running with no plan
  at all (the parity oracle, asserted on both backends).

Backend coverage: host crash/recover faults apply to both engines; the
WoL, transition, primary-kill and partition faults exercise the packet
and wake paths, which only the event backend models — on the hourly
backend those concerns are inert by construction.
"""

from __future__ import annotations

import numpy as np

from ..api.observers import Observer
from ..cluster.power import PowerState
from ..core.calendar import time_of_hour
from .spec import FaultPlan, FaultSummary


class FaultInjector(Observer):
    """Applies a :class:`FaultPlan` to one simulation run."""

    #: Class marker the façade uses to find the injector among its
    #: observers without importing this module (import-cycle firewall).
    is_fault_injector = True

    #: The hourly path schedules crash/recovery times off ``now``, so
    #: the injector needs the simulated clock (repro.api.observers).
    wants_sim_time = True

    def __init__(self, plan: FaultPlan, seed: int) -> None:
        self.plan = plan
        self.seed = seed
        self._streams: dict[str, np.random.Generator] = {}
        #: Injector-owned counters (the rest live on the components).
        self.suspend_hangs = 0
        self.primary_kills = 0
        self.partitions_applied = 0
        # Hourly-backend crash bookkeeping.
        self._hourly_engine = None
        self._hourly_crashes: list[tuple[float, str]] = []
        self._hourly_recoveries: list[tuple[float, object]] = []
        self._hourly_crash_count = 0
        self._hourly_recover_count = 0

    # ------------------------------------------------------------------
    # deterministic randomness
    # ------------------------------------------------------------------
    def _key(self, *parts) -> int:
        from ..scenarios.spec import stable_seed  # import-cycle firewall

        return stable_seed(self.seed, "faults", self.plan.name, *parts)

    def _stream(self, concern: str) -> np.random.Generator:
        rng = self._streams.get(concern)
        if rng is None:
            rng = np.random.Generator(np.random.Philox(key=self._key(concern)))
            self._streams[concern] = rng
        return rng

    def _crash_schedule(self, hosts, start_hour: int,
                        n_hours: int) -> list[tuple[float, str]]:
        """Per-host Poisson crash times over the run, earliest first.

        Each host draws from its own name-keyed substream, so the
        schedule is invariant under fleet iteration order; the global
        ``max_crashes`` cap keeps the earliest events.
        """
        spec = self.plan.crashes
        if spec.is_zero:
            return []
        start_s = time_of_hour(start_hour)
        horizon_s = n_hours * 3600.0
        mean_gap_s = 3600.0 / spec.rate_per_host_per_h
        events: list[tuple[float, str]] = []
        for host in hosts:
            rng = np.random.Generator(
                np.random.Philox(key=self._key("crash", host.name)))
            t = float(rng.exponential(mean_gap_s))
            while t < horizon_s:
                events.append((start_s + t, host.name))
                t += float(rng.exponential(mean_gap_s))
        events.sort()
        return events[:spec.max_crashes]

    # ------------------------------------------------------------------
    # observer lifecycle
    # ------------------------------------------------------------------
    def on_run_start(self, sim, start_hour: int, n_hours: int) -> None:
        if self.plan.is_zero:
            return  # parity oracle: install nothing, draw nothing
        if sim.backend_name == "sharded":
            # The sharded engine validates the plan, slices the crash
            # schedule by host name and installs per-shard injectors.
            sim.engine.install_fault_plan(self, start_hour, n_hours)
        elif sim.backend_name == "event":
            self._install_event(sim.engine, start_hour, n_hours)
        else:
            self._install_hourly(sim.engine, start_hour, n_hours)

    def _install_event(self, engine, start_hour: int, n_hours: int) -> None:
        plan = self.plan
        if not plan.transitions.is_zero:
            engine.faults = self
        if not plan.wol.is_zero:
            engine.wol_channel.transport = self._wol_transport
        for at, name in self._crash_schedule(engine.dc.hosts, start_hour,
                                             n_hours):
            engine.sim.schedule_at(at, self._event_crash, engine, name)
        start_s = time_of_hour(start_hour)
        if plan.waking.kill_primary_at_h is not None:
            engine.sim.schedule_at(
                start_s + plan.waking.kill_primary_at_h * 3600.0,
                self._kill_primary, engine)
        for window in plan.waking.partitions:
            engine.sim.schedule_at(start_s + window.start_h * 3600.0,
                                   self._partition_start, engine)
            engine.sim.schedule_at(
                start_s + (window.start_h + window.duration_h) * 3600.0,
                self._partition_end, engine)

    def _install_hourly(self, engine, start_hour: int, n_hours: int,
                        crash_schedule=None) -> None:
        self._hourly_engine = engine
        self._hourly_crashes = (list(crash_schedule)
                                if crash_schedule is not None
                                else self._crash_schedule(
                                    engine.dc.hosts, start_hour, n_hours))
        self._hourly_recoveries = []

    def on_hour(self, t: int, now: float) -> None:
        engine = self._hourly_engine
        if engine is None:
            return  # event backend: faults ride the event queue
        # Recoveries due first, so a host can crash again later.
        due = [(at, h) for at, h in self._hourly_recoveries if at <= now]
        if due:
            self._hourly_recoveries = [
                e for e in self._hourly_recoveries if e[0] > now]
            for at, host in due:
                if host.state is PowerState.CRASHED:
                    # The hourly meter sync has already charged the host
                    # as crashed up to the hour start; recover there.
                    host.recover(host.meter_time(at))
                    self._hourly_recover_count += 1
        hour_end = now + 3600.0
        while self._hourly_crashes and self._hourly_crashes[0][0] < hour_end:
            at, name = self._hourly_crashes.pop(0)
            host = engine.dc._host_by_name.get(name)
            if host is None or host.state in (PowerState.CRASHED,
                                              PowerState.OFF):
                continue
            # The power step may have advanced this host's meter past the
            # hour start (transition latencies land at fractional times);
            # never let the crash rewind its clock.
            crash_t = host.meter_time(at)
            host.crash(crash_t)
            self._hourly_crash_count += 1
            self._hourly_recoveries.append(
                (crash_t + self.plan.crashes.recover_after_s, host))

    # ------------------------------------------------------------------
    # event-backend fault callbacks
    # ------------------------------------------------------------------
    def _event_crash(self, engine, host_name: str) -> None:
        host = engine.dc._host_by_name.get(host_name)
        if host is not None:
            engine.crash_host(host, self.plan.crashes.recover_after_s)

    def _kill_primary(self, engine) -> None:
        engine.waking.fail_primary()
        self.primary_kills += 1

    def _partition_start(self, engine) -> None:
        # The switch loses its waking service: packet analysis is
        # unreachable; the port-level WoL fallback keeps request wakes
        # working.  Suspending-module registrations are on a different
        # link and keep flowing.
        engine.switch.waking_service = None
        self.partitions_applied += 1

    def _partition_end(self, engine) -> None:
        engine.switch.waking_service = engine.waking

    def _wol_transport(self, packet) -> tuple[str, float]:
        spec = self.plan.wol
        # Keyed per destination MAC: each host's loss/delay sequence is
        # independent of how many other hosts' packets interleave.
        rng = self._stream(f"wol:{packet.mac_address}")
        if spec.loss_probability > 0.0 and rng.random() < spec.loss_probability:
            return ("drop", 0.0)
        if (spec.delay_probability > 0.0
                and rng.random() < spec.delay_probability):
            return ("delay", float(rng.exponential(spec.mean_delay_s)))
        return ("ok", 0.0)

    # -- transition-fault hooks (engine.faults) ------------------------
    def suspend_latency(self, base_s: float, host_name: str) -> float:
        spec = self.plan.transitions
        if spec.suspend_hang_probability <= 0.0:
            return base_s
        # Keyed per host: a host's hang sequence depends only on its own
        # suspend history, not on the fleet-wide suspend interleaving.
        if (self._stream(f"suspend-hang:{host_name}").random()
                < spec.suspend_hang_probability):
            self.suspend_hangs += 1
            return base_s + spec.suspend_hang_extra_s
        return base_s

    def resume_fails(self) -> bool:
        spec = self.plan.transitions
        if spec.resume_failure_probability <= 0.0:
            return False
        return (self._stream("resume-fail").random()
                < spec.resume_failure_probability)

    def resume_recover_after_s(self) -> float:
        return self.plan.transitions.recover_after_s

    # ------------------------------------------------------------------
    def finalize(self, sim) -> FaultSummary:
        """Collect the run's degradation accounting (``fault_summary``)."""
        engine = sim.engine
        if sim.backend_name == "sharded":
            return engine.collect_fault_summary(self)
        crashed = PowerState.CRASHED
        unavailability_s = sum(
            h.meter.state_seconds.get(crashed, 0.0) for h in sim.dc.hosts)
        if sim.backend_name != "event":
            return FaultSummary(
                plan=self.plan.name,
                host_crashes=self._hourly_crash_count,
                host_recoveries=self._hourly_recover_count,
                unavailability_s=unavailability_s)
        channel = engine.wol_channel
        waking = engine.waking
        return FaultSummary(
            plan=self.plan.name,
            host_crashes=engine.host_crashes,
            host_recoveries=engine.host_recoveries,
            wol_dropped=channel.dropped,
            wol_delayed=channel.delayed,
            wol_retries=channel.retries,
            wol_abandoned=channel.abandoned,
            backoff_wait_s=channel.backoff_wait_s,
            suspend_hangs=self.suspend_hangs,
            resume_failures=engine.resume_failures,
            failover_migrations=engine.failover_migrations,
            stranded_vms=engine.stranded_vms,
            failovers=waking.failovers,
            primary_kills=self.primary_kills,
            partitions=self.partitions_applied,
            window_journaled_calls=waking.window_journaled,
            lost_service_calls=waking.lost_calls,
            stranded_requests=engine.switch.queued_requests,
            recovered_requests=engine.recovered_requests,
            migrations_blocked=engine.migrations_blocked,
            unavailability_s=unavailability_s)
