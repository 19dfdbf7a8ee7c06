"""Reference engines for the parity tests.

Each production engine has one path: suspend checks swept on a timer
wheel and re-armed where their verdict can next change, one bulk RNG
pass per hour for request traffic, and the columnar fleet model with
host accounting whenever :meth:`~repro.core.binding.FleetBinding.try_bind`
accepts the fleet.  The literal versions those paths batch live here,
as test-only subclasses the parity suites compare against:

* :class:`PerHostEventSimulation` — one fixed-period suspend-check event
  per host (the iterated ``now + period`` chain), one heap event per
  request arrival with its service time drawn at submit, and optionally
  the scalar per-VM model (``binding="scalar"``) or the fleet model
  without host accounting (``binding="no-accounting"``).  Every
  ``RunResult`` field but ``events_processed`` matches the production
  engine; with ``per_host_checks=False`` the event count matches too.
* :class:`ScalarHourlySimulator` — the hourly engine on the scalar
  per-VM path (no fleet binding), with the per-host power step.
* :class:`ScalarEnergyMeter`, :class:`LoopPowerAwareBestFitDecreasing`,
  :class:`LoopIPAwarePlacement` and :class:`PerHostDrowsyController` —
  the per-host loops the columnar hour tick replaces (DESIGN.md §7):
  a standalone scalar meter, the (VM, host) pair placement loops and
  Drowsy/Neat's per-host consolidation scans.
* :class:`DenseFleetIdlenessModel` — the fleet idleness model on the
  dense layout the touched-day slabs replace (:mod:`repro.core.slab`):
  zero-initialized ``(n, 31, 24)``/``(n, 365, 24)`` tables, every
  scale written every hour.
* :class:`ReferenceIdlenessModel` — the scalar idleness model with the
  hourly update of paper §III-C written out for one VM, the reference
  for the one batched update every model runs
  (:func:`repro.core.model.hourly_update`).
* :class:`PerHostEventBackend` — a façade backend adapter building the
  event oracle, for runs that need the façade's wiring (faults,
  observers): ``Simulation(dc, "drowsy", PerHostEventBackend())``.
* :func:`reference_hourly_arrivals` — one VM's hour of request
  arrivals drawn with the per-VM generator's call sequence (Poisson
  count, sized ``uniform``, sort, scalar lead ``uniform``, sort), the
  reference for :meth:`~repro.network.RequestProfile.hour_block`; the
  per-push path of :class:`PerHostEventSimulation` draws with it.
* :func:`build_host_registry` — a host's hrtimer tree as the kernel
  holds it at a suspend (paper §V-B), one :class:`TimerEntry` per daemon
  tick and VM service timer; its ``earliest_valid`` is the reference for
  :func:`~repro.suspend.timers.compute_waking_date`'s direct minimum.
* :func:`reference_production_trace`, :func:`reference_google_llmu_trace`,
  :func:`reference_google_llmu_fleet` and :func:`reference_build_fleet`
  — the per-VM trace generators and the per-trace fleet build that
  :mod:`repro.traces` and :func:`~repro.experiments.common.build_fleet`
  batch into one activity matrix: one calendar/mask pass and one AR(1)
  recursion per VM, each trace its own array, the shuffled trace list
  placed round-robin.
* :class:`EventParityCell` / :func:`run_event_parity_cell` — one
  acceptance run (oracle or production), picklable for
  :class:`~repro.sim.sweep.SweepRunner` workers.
* :func:`assert_results_equal` / :func:`assert_matches_oracle` — the
  parity contract, one definition for every suite; and
  :func:`assert_bits_equal`, the bit-for-bit array comparison.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field, fields

import numpy as np

from repro.api.backends import EventBackend
from repro.cluster.accounting import host_list_view, host_view
from repro.cluster.datacenter import DataCenter
from repro.cluster.host import Host
from repro.cluster.power import PowerModel, PowerState
from repro.consolidation.drowsy import DrowsyController
from repro.consolidation.neat import MANAGED_STATES
from repro.consolidation.placement import decreasing_demand
from repro.consolidation.selection import select_until_not_overloaded
from repro.cluster.vm import VM
from repro.core.binding import FleetBinding
from repro.core.calendar import slot_of_hour, slots_of_hours
from repro.core.fleet import FleetIdlenessModel
from repro.core.model import (SCALE_DAY, SCALE_MONTH, SCALE_WEEK, SCALE_YEAR,
                              IdlenessModel, IdlenessObservation)
from repro.core.params import DEFAULT_PARAMS, DrowsyParams
from repro.core.result import RunResult
from repro.core.weights import descend_weights
from repro.experiments.common import FLEET_HOST, FLEET_VM
from repro.network import RequestProfile, poisson_arrivals
from repro.sim.event_driven import EventConfig, EventDrivenSimulation
from repro.sim.hourly import DECISION_DELAY_S, HourlySimulator
from repro.suspend.process import DEFAULT_BLACKLIST
from repro.suspend.timers import DAEMON_PERIOD_S, TimerEntry, TimerRegistry
from repro.traces.base import ActivityTrace, VMKind
from repro.traces.production import PRODUCTION_SPECS

BINDINGS = ("fleet", "scalar", "no-accounting")

#: Every RunResult field is a parity observable — derived, not
#: hardcoded, so fields added later are covered automatically.
RESULT_FIELDS = tuple(f.name for f in fields(RunResult))


def assert_bits_equal(a, b, what=""):
    """Equal shapes and identical bit patterns (-0.0 != +0.0)."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    assert a.shape == b.shape, what
    assert a.tobytes() == b.tobytes(), what


def assert_results_equal(a, b, skip=()):
    for field in RESULT_FIELDS:
        if field not in skip:
            assert getattr(a, field) == getattr(b, field), field


def assert_matches_oracle(fast, oracle):
    """The production event engine against the fixed-period per-host
    oracle: every field equal except the event count, which only
    shrinks."""
    assert_results_equal(fast, oracle, skip=("events_processed",))
    assert fast.events_processed < oracle.events_processed


def build_host_registry(host, now, daemon_period_s=DAEMON_PERIOD_S):
    """Snapshot the hrtimer tree of a host at time ``now``.

    Each VM contributes the next expiry of each of its service timers,
    keyed ``f"{vm}:{timer}"``; host daemons contribute their own
    periodic timers (which the blacklist must filter out — they are the
    "false positives" of section V-B).
    """
    registry = TimerRegistry()
    for daemon in sorted(DEFAULT_BLACKLIST):
        registry.register(TimerEntry(
            fire_time_s=now + daemon_period_s,
            process_name=daemon, timer_name=f"{daemon}-tick"))
    for vm in host.vms:
        for timer in vm.timers:
            registry.register(TimerEntry(
                fire_time_s=timer.next_fire(now),
                process_name=timer.process_name,
                timer_name=f"{vm.name}:{timer.name}",
                vm_name=vm.name))
    return registry


def reference_hourly_arrivals(profile: RequestProfile, rng, hour_start_s,
                              activity, hour_index=None) -> np.ndarray:
    """One VM's arrivals for one hour, drawn the way the engine drew
    them one VM at a time: :func:`~repro.network.poisson_arrivals` (a
    Poisson count, a sized ``uniform``, a sort), then the leading
    request's scalar ``uniform(0, 2)``, concatenated and sorted again —
    the reference for :meth:`RequestProfile.hour_block`'s two-call
    layout."""
    if activity <= 0.0:
        return np.empty(0)
    rate = profile.peak_rate_per_s * activity
    if profile.shape is not None and hour_index is not None:
        rate *= profile.shape.rate_factor(hour_index)
        if rate <= 0.0:
            return np.empty(0)
    arrivals = poisson_arrivals(rng, hour_start_s, 3600.0, rate)
    if profile.leading_request:
        lead = hour_start_s + float(rng.uniform(0.0, 2.0))
        arrivals = np.sort(np.concatenate(([lead], arrivals)))
    return arrivals


class PerHostEventSimulation(EventDrivenSimulation):
    """The event engine's literal per-host / per-push reference."""

    def __init__(self, dc, controller, params=DEFAULT_PARAMS,
                 config: EventConfig = EventConfig(), hour_hooks=(), *,
                 per_host_checks: bool = True,
                 per_push_requests: bool = True,
                 binding: str = "fleet") -> None:
        if binding not in BINDINGS:
            raise ValueError(f"binding must be one of {BINDINGS}")
        if per_push_requests and config.request_streams != "shared":
            raise ValueError("per-push requests draw from the shared stream")
        # Set before the base constructor: it calls _bind().
        self.per_host_checks = per_host_checks
        self.per_push_requests = per_push_requests
        self.binding_mode = binding
        self._check_events: dict[str, object] = {}
        super().__init__(dc, controller, params, config, hour_hooks)

    def _bind(self):
        if self.binding_mode == "scalar":
            return None
        return FleetBinding.try_bind(self.dc, self.params,
                                     accounting=self.binding_mode == "fleet")

    # -- one check event per host, fixed period ------------------------
    def _schedule_check(self, host, delay: float) -> None:
        if not self.per_host_checks:
            return super()._schedule_check(host, delay)
        self._cancel_check(host)
        self._check_events[host.name] = self.sim.schedule_in(
            delay, self._suspend_check, host)

    def _cancel_check(self, host) -> None:
        if not self.per_host_checks:
            return super()._cancel_check(host)
        ev = self._check_events.pop(host.name, None)
        if ev is not None:
            ev.cancel()

    def _suspend_check(self, host) -> None:
        self._check_events.pop(host.name, None)
        if not self.config.suspend_enabled:
            return
        if host.state is not PowerState.ON:
            return  # resume path reinstates the check
        verdict = self.suspending[host.name].evaluate(self.sim.now)
        if verdict.should_suspend:
            self._begin_suspend(host, verdict.waking_date_s)
        else:
            self._schedule_check(host, self.params.suspend_check_period_s)

    # -- one heap event per arrival, service time drawn at submit ------
    def _generate_hour_requests(self, now: float, profile) -> None:
        if not self.per_push_requests:
            return super()._generate_hour_requests(now, profile)
        for host in self.dc.hosts:
            for vm in host.vms:
                if vm.interactive and vm.current_activity > 0.0:
                    for at in reference_hourly_arrivals(
                            profile, self.rng, now, vm.current_activity,
                            hour_index=self._current_hour):
                        self.sim.schedule_at(float(at), self._submit_request,
                                             vm.name)

    def _submit_request(self, vm_name: str) -> None:
        # Drawn before the departure check: the production engine draws
        # a service time for every generated arrival, a departed VM's
        # included, so the shared stream stays aligned.
        service_time_s = self.config.request_profile.sample_service_time(
            self.rng)
        if vm_name in self._departed_vms:
            return  # VM churned away after this hour's traffic was drawn
        self.switch.submit_request(vm_name, self.sim.now, service_time_s)


class ScalarHourlySimulator(HourlySimulator):
    """The hourly engine on the scalar per-VM path (no fleet binding),
    with the per-host power step the columnar masks batch."""

    def _bind(self):
        return None

    def _power_step(self, t, now, view, counts) -> None:
        for host in self.dc.hosts:
            self._host_power_step(host, t, now, view)

    def _host_sleepable(self, host) -> bool:
        if self._can_sleep is not None:  # Oasis-style policies
            return self._can_sleep(host)
        return bool(host.vms) and host.all_vms_idle

    def _host_power_step(self, host, t, now, view) -> None:
        cfg, p = self.config, self.params
        if host.state is PowerState.CRASHED:
            return
        if not host.vms:
            if cfg.power_off_empty and host.state is PowerState.ON:
                host.power_off(now)
            return
        if host.state is PowerState.OFF:
            host.power_on(now)
        sleepable = cfg.suspend_enabled and self._host_sleepable(host)
        if host.state is PowerState.SUSPENDED:
            if not sleepable:
                host.begin_resume(now)
                grace = self._grace(host, t, view)
                host.finish_resume(now + p.resume_latency_s, grace)
            return
        if host.state is PowerState.ON and sleepable:
            begin = now + DECISION_DELAY_S
            if p.use_grace and host.in_grace(begin):
                begin = host.grace_until
            if begin + p.suspend_latency_s < now + 3600.0:
                host.begin_suspend(begin)
                host.finish_suspend(begin + p.suspend_latency_s)


class DenseFleetIdlenessModel(FleetIdlenessModel):
    """:class:`FleetIdlenessModel` storing the monthly and yearly scales
    as full zero-initialized tables, written in place every hour
    (masked scales with 0.0) — the layout before the touched-day slabs.
    """

    def __init__(self, n: int, params: DrowsyParams = DEFAULT_PARAMS) -> None:
        super().__init__(n, params)
        self.dense_sim = np.zeros((n, 31, 24))
        self.dense_siy = np.zeros((n, 365, 24))

    sim = property(lambda self: self.dense_sim.copy())
    siy = property(lambda self: self.dense_siy.copy())

    def _gather(self, slot, out, rows=...):
        h = slot.hour
        out[..., 0] = self.sid[rows, h]
        out[..., 1] = self.siw[rows, slot.day_of_week, h]
        out[..., 2] = self.dense_sim[rows, slot.day_of_month, h]
        out[..., 3] = self.dense_siy[rows, slot.day_of_year, h]
        out[..., ~self.scale_mask] = 0.0
        return out

    def _scatter(self, slot, si, rows=...):
        h = slot.hour
        self.sid[rows, h] = si[..., 0]
        self.siw[rows, slot.day_of_week, h] = si[..., 1]
        self.dense_sim[rows, slot.day_of_month, h] = si[..., 2]
        self.dense_siy[rows, slot.day_of_year, h] = si[..., 3]


class ReferenceIdlenessModel(IdlenessModel):
    """:class:`IdlenessModel` with the hourly update written out for one
    VM in scalar arithmetic — the independent reference the shared
    batched update (:func:`repro.core.model.hourly_update`) is checked
    against."""

    def observe(self, hour_index: int, activity: float) -> IdlenessObservation:
        if not 0.0 <= activity <= 1.0:
            raise ValueError(f"activity must be in [0, 1], got {activity}")
        p = self.params
        slot = slot_of_hour(hour_index)
        idle = activity == 0.0

        si_old = self.si_vector(slot)
        raw_before = float(self.weights @ si_old)

        # Paper eq. (2): use the hour's activity when active, the mean
        # past active level when idle.
        a = activity if not idle else self.mean_active_activity
        a_star = p.sigma * a  # eq. (3)
        # Eq. (4)-(5): one update value per scale, damped near the bounds.
        u = 1.0 / (1.0 + np.exp(p.alpha * (np.abs(si_old) - p.beta)))
        v = a_star * u
        si_new = np.clip(si_old + v if idle else si_old - v, -1.0, 1.0)
        si_new = np.where(self.scale_mask, si_new, 0.0)

        h = slot.hour
        self.sid[h] = si_new[SCALE_DAY]
        self.siw[slot.day_of_week, h] = si_new[SCALE_WEEK]
        if self.scale_mask[SCALE_MONTH]:
            self._sim.write(slot.day_of_month, h, si_new[SCALE_MONTH])
        if self.scale_mask[SCALE_YEAR]:
            self._siy.write(slot.day_of_year, h, si_new[SCALE_YEAR])

        predicted_idle = raw_before > 0.0
        mispredicted = predicted_idle != idle
        if p.learn_weights and (mispredicted or not p.weight_update_on_error_only):
            self.weights = descend_weights(
                self.weights, si_old, si_new,
                steps=p.weight_descent_steps,
                learning_rate=p.weight_learning_rate,
                mask=self.scale_mask)

        if not idle:
            self._activity_sum += activity
            self._active_hours += 1
        self.hours_observed += 1

        return IdlenessObservation(
            hour_index=hour_index, activity=activity, idle=idle,
            raw_ip_before=raw_before,
            raw_ip_after=float(self.weights @ si_new))


class PerHostEventBackend(EventBackend):
    """Façade adapter building :class:`PerHostEventSimulation` with the
    given oracle options."""

    def __init__(self, **oracle) -> None:
        self.oracle = oracle

    def build(self, dc, controller, params, config, hour_hooks: tuple):
        return PerHostEventSimulation(dc, controller, params, config,
                                      hour_hooks, **self.oracle)


@dataclass(frozen=True)
class EventParityCell:
    """One event-driven acceptance run (per-host oracle or production).

    The simulator-throughput bench compares the two on the same
    workload; they are independent simulations over their own fleets,
    so they shard across cores like E8 cells — the oracle run overlaps
    the production one instead of serializing behind it.
    """

    n_vms: int
    hours: int
    batched: bool
    seed: int = 7
    llmi_fraction: float = 0.5


def run_event_parity_cell(cell: EventParityCell):
    """Run one acceptance cell; returns ``(RunResult, wall_s)`` with the
    wall-clock measured inside the worker (top-level so spawn workers
    can pickle it)."""
    from repro.api import Simulation
    from repro.experiments.common import build_fleet

    dc = build_fleet(max(1, cell.n_vms // 4), cell.n_vms,
                     cell.llmi_fraction, max(cell.hours, 24),
                     seed=cell.seed)
    sim = Simulation(dc, "drowsy",
                     "event" if cell.batched else PerHostEventBackend())
    t0 = time.perf_counter()
    result = sim.run(cell.hours)
    return result, time.perf_counter() - t0


# ----------------------------------------------------------------------
# the columnar hour tick's per-host references (DESIGN.md §7)
# ----------------------------------------------------------------------
@dataclass
class ScalarEnergyMeter:
    """One host's energy meter as a standalone scalar integrator — the
    reference for the :class:`~repro.cluster.power.MeterBank` rows."""

    model: PowerModel
    last_time: float = 0.0
    energy_j: float = 0.0
    state_seconds: dict = field(
        default_factory=lambda: {s: 0.0 for s in PowerState})

    def advance(self, now: float, state: PowerState, utilization: float) -> None:
        dt = now - self.last_time
        if dt < -1e-9:
            raise ValueError(f"time went backwards: {self.last_time} -> {now}")
        if dt > 0:
            self.energy_j += self.model.power(state, utilization) * dt
            self.state_seconds[state] += dt
            self.last_time = now


@dataclass
class LoopPowerAwareBestFitDecreasing:
    """PABFD as a (VM, host) pair loop over per-host dicts."""

    power_model: PowerModel = PowerModel()

    def place(self, vms, hosts, hour_index, current_host):
        placement = {}
        view, pos = host_list_view(hosts)
        mem_col, cpu_col = view.used_memory_mb(), view.used_cpus()
        demand_col = view.cpu_demand(hour_index)
        used_mem = {h.name: int(mem_col[k]) for h, k in zip(hosts, pos)}
        used_cpu = {h.name: int(cpu_col[k]) for h, k in zip(hosts, pos)}
        base_demand = {h.name: float(demand_col[k])
                       for h, k in zip(hosts, pos)}
        planned_demand = {h.name: 0.0 for h in hosts}
        for vm in decreasing_demand(vms):
            best = None
            src = current_host.get(vm.name)
            for host in hosts:
                if src is not None and host is src:
                    continue
                name = host.name
                if not (used_mem[name] + vm.resources.memory_mb
                        <= host.capacity.memory_mb
                        and used_cpu[name] + vm.resources.cpus
                        <= host.capacity.schedulable_cpus):
                    continue
                demand = base_demand[name] + planned_demand[name]
                cap = host.capacity.cpus
                before = self.power_model.power(
                    PowerState.ON, min((demand + 0.0) / cap, 1.0))
                extra = vm.current_activity * vm.resources.cpus
                after = self.power_model.power(
                    PowerState.ON, min((demand + extra) / cap, 1.0))
                cand = (after - before, name)
                if best is None or cand < best[0]:
                    best = (cand, host)
            if best is not None:
                dest = best[1]
                placement[vm.name] = dest
                used_mem[dest.name] += vm.resources.memory_mb
                used_cpu[dest.name] += vm.resources.cpus
                planned_demand[dest.name] += (vm.current_activity
                                              * vm.resources.cpus)
        return placement


@dataclass
class LoopIPAwarePlacement:
    """IP-aware placement as a (VM, host) pair loop over per-host dicts."""

    params: DrowsyParams = DEFAULT_PARAMS

    def place(self, vms, hosts, hour_index, current_host):
        placement = {}
        tol = self.params.ip_distance_tolerance
        view, pos = host_list_view(hosts)
        ip_col = view.mean_raw_ip(hour_index)
        mem_col, cpu_col = view.used_memory_mb(), view.used_cpus()
        mean_ip, free_mem, used_mem, used_cpu = {}, {}, {}, {}
        for h, k in zip(hosts, pos):
            mean_ip[h.name] = float(ip_col[k])
            used_mem[h.name] = int(mem_col[k])
            used_cpu[h.name] = int(cpu_col[k])
            free_mem[h.name] = h.capacity.memory_mb - used_mem[h.name]
        ordered = sorted(vms, key=lambda vm: (-vm.resources.memory_mb,
                                              -vm.resources.cpus, vm.name))
        for vm in ordered:
            vm_ip = vm.raw_ip(hour_index)
            src = current_host.get(vm.name)
            best = None
            for host in hosts:
                if src is not None and host is src:
                    continue
                name = host.name
                if not (used_mem[name] + vm.resources.memory_mb
                        <= host.capacity.memory_mb
                        and used_cpu[name] + vm.resources.cpus
                        <= host.capacity.schedulable_cpus):
                    continue
                distance = abs(mean_ip[name] - vm_ip)
                bucket = int(distance / tol) if tol > 0 else 0
                cand = (bucket, float(free_mem[name]), name)
                if best is None or cand < best[0]:
                    best = (cand, host)
            if best is not None:
                dest = best[1]
                placement[vm.name] = dest
                used_mem[dest.name] += vm.resources.memory_mb
                used_cpu[dest.name] += vm.resources.cpus
        return placement


class PerHostDrowsyController(DrowsyController):
    """Drowsy-DC with the per-host consolidation scans: a deque of
    utilizations per host, one detector call per ON host, the
    ``(utilization, name)`` tuple sort for underload candidates, the
    loop placement policies and a host-by-host opportunistic step."""

    def __init__(self, dc, detector=None, params=DEFAULT_PARAMS,
                 overload_target=0.8, history_window=24) -> None:
        super().__init__(dc, detector=detector, params=params,
                         overload_target=overload_target,
                         history_window=history_window)
        self.placer = LoopIPAwarePlacement(params=params)
        self._deques = {h.name: deque(maxlen=history_window)
                        for h in dc.hosts}

    def observe_hour(self, hour_index: int) -> None:
        utils = host_view(self.dc).cpu_utilization(hour_index)
        for k, host in enumerate(self.dc.hosts):
            util = (float(utils[k]) if host.state is PowerState.ON
                    else 0.0)
            self._deques[host.name].append(util)

    def managed_hosts(self):
        return [h for h in self.dc.hosts if h.state in MANAGED_STATES]

    def _handle_overloaded(self, hour_index, executor):
        overloaded = [h for h in self.dc.hosts
                      if h.state is PowerState.ON
                      and self.detector.is_overloaded(
                          list(self._deques[h.name]))]
        if not overloaded:
            return 0
        to_place, sources = [], {}
        for host in overloaded:
            order = self.selector.order(host, hour_index)
            for vm in select_until_not_overloaded(host, order,
                                                  self.overload_target):
                to_place.append(vm)
                sources[vm.name] = host
        targets = [h for h in self.managed_hosts() if h not in overloaded]
        placement = self.placer.place(to_place, targets, hour_index, sources)
        unplaced = [vm for vm in to_place if vm.name not in placement]
        if unplaced:
            off_hosts = sorted(
                (h for h in self.dc.hosts if h.state is PowerState.OFF),
                key=lambda h: h.name)
            if off_hosts:
                placement.update(self.placer.place(unplaced, off_hosts,
                                                   hour_index, sources))
        moved = 0
        for vm in to_place:
            dest = placement.get(vm.name)
            if dest is not None:
                executor(vm, dest)
                moved += 1
        return moved

    def _handle_underloaded(self, hour_index, executor):
        util_col = host_view(self.dc).cpu_utilization(hour_index)
        utils = {}
        for k, h in enumerate(self.dc.hosts):
            if h.state is PowerState.ON and h.vms:
                utils[h.name] = float(util_col[k])
        candidates = [name for _, name in sorted(
            (u, name) for name, u in utils.items())]
        moved = 0
        receivers = set()
        for name in candidates:
            host = self.dc.host(name)
            if not host.vms or host.name in receivers:
                continue
            vms = list(host.vms)
            targets = [h for h in self.managed_hosts() if h is not host]
            placement = self.placer.place(vms, targets, hour_index,
                                          {vm.name: host for vm in vms})
            if len(placement) != len(vms):
                break
            for vm in vms:
                executor(vm, placement[vm.name])
                receivers.add(placement[vm.name].name)
                moved += 1
        return moved

    def opportunistic_step(self, hour_index, executor):
        threshold = self.params.ip_range_threshold
        view = host_view(self.dc)

        def ip_range(host):
            return float(view.ip_range(hour_index)[view.pos(host)])

        moved = 0
        for host in list(self.managed_hosts()):
            guard = len(host.vms) + 1
            while ip_range(host) > threshold and guard > 0:
                guard -= 1
                vm = self._most_extreme_vm(host, hour_index, view)
                if vm is None:
                    break
                targets = [h for h in self.managed_hosts() if h is not host]
                placement = self.placer.place([vm], targets, hour_index,
                                              {vm.name: host})
                dest = placement.get(vm.name)
                if dest is None:
                    break
                executor(vm, dest)
                moved += 1
        return moved


# ----------------------------------------------------------------------
# Per-VM trace generators and the per-trace fleet build
# ----------------------------------------------------------------------

def reference_production_trace(index: int, days: int = 7,
                               seed: int | None = None) -> ActivityTrace:
    """Production-like LLMI trace ``index``: its own calendar slots and
    masks, its own draws."""
    if not 1 <= index <= len(PRODUCTION_SPECS):
        raise ValueError(f"trace index must be in [1, {len(PRODUCTION_SPECS)}]")
    spec = PRODUCTION_SPECS[index - 1]
    rng = np.random.default_rng(seed if seed is not None else 1000 + index)
    hours = days * 24
    h, dw, dm, m, doy = slots_of_hours(np.arange(hours))

    mask = np.isin(dw, spec.weekdays) & np.isin(h, spec.hours)
    if spec.end_of_month:
        mask = mask | ((dm >= 27) & (h >= 9) & (h <= 17))
    mask = mask | (rng.random(hours) < spec.p_extra)
    mask = mask & ~(rng.random(hours) < spec.p_miss)

    levels = spec.level * rng.lognormal(0.0, spec.level_jitter, size=hours)
    activities = np.where(mask, np.clip(levels, 0.02, 1.0), 0.0)
    return ActivityTrace(spec.name, activities, VMKind.LLMI)


def reference_google_llmu_trace(hours: int, seed: int = 0,
                                base_level: float = 0.5,
                                diurnal_amplitude: float = 0.2,
                                ar_coeff: float = 0.85,
                                noise_std: float = 0.08,
                                spike_prob: float = 0.01,
                                floor: float = 0.03) -> ActivityTrace:
    """Google-like LLMU trace with the AR(1) recursion as a scalar loop."""
    if not 0.0 <= ar_coeff < 1.0:
        raise ValueError("ar_coeff must be in [0, 1)")
    rng = np.random.default_rng(seed)
    t = np.arange(hours)
    diurnal = base_level + diurnal_amplitude * np.sin(
        2 * np.pi * ((t % 24) - 6) / 24.0)

    ar = np.empty(hours)
    x = 0.0
    innov = rng.normal(0.0, noise_std, size=hours)
    for i in range(hours):
        x = ar_coeff * x + innov[i]
        ar[i] = x

    spikes = (rng.random(hours) < spike_prob) * rng.uniform(0.2, 0.5, size=hours)
    levels = np.clip(diurnal + ar + spikes, floor, 1.0)
    return ActivityTrace(f"google-llmu-{seed}", levels, VMKind.LLMU)


def reference_google_llmu_fleet(n: int, hours: int,
                                seed: int = 0) -> list[ActivityTrace]:
    """``n`` LLMU traces, one generator call each."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        out.append(reference_google_llmu_trace(
            hours,
            seed=int(rng.integers(0, 2**31)),
            base_level=float(rng.uniform(0.35, 0.65)),
            diurnal_amplitude=float(rng.uniform(0.1, 0.3)),
        ))
    return out


def reference_build_fleet(n_hosts: int, n_vms: int, llmi_fraction: float,
                          hours: int, params: DrowsyParams = DEFAULT_PARAMS,
                          seed: int = 7) -> DataCenter:
    """The fleet of :func:`~repro.experiments.common.build_fleet`, one
    trace array per VM: the shuffled trace list placed round-robin."""
    hosts = [Host(f"H{i:03d}", FLEET_HOST, params) for i in range(n_hosts)]
    dc = DataCenter(hosts, params)
    n_llmi = round(n_vms * llmi_fraction)
    days = (hours + 23) // 24

    traces: list[ActivityTrace] = []
    for i in range(n_llmi):
        spec_idx = (i % len(PRODUCTION_SPECS)) + 1
        traces.append(reference_production_trace(spec_idx, days=days,
                                                 seed=seed + i)
                      .with_name(f"llmi-{i:03d}"))
    for i, tr in enumerate(reference_google_llmu_fleet(
            n_vms - n_llmi, hours, seed=seed + 10_000)):
        traces.append(tr.with_name(f"llmu-{i:03d}"))

    rng = np.random.default_rng(seed + 1)
    rng.shuffle(traces)

    for i, trace in enumerate(traces):
        vm = VM(f"vm-{i:03d}", trace, FLEET_VM, params=params)
        dc.place(vm, hosts[i % n_hosts])
    dc.check_invariants()
    return dc
