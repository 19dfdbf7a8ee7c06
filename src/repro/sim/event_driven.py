"""Request-level event-driven simulation (the "real environment" of §VI-A).

Wires every runtime component the paper deploys on the testbed:

* per-host :class:`~repro.suspend.module.SuspendingModule` instances
  polling idleness every few seconds, honouring grace times and
  computing waking dates from the hrtimer tree;
* a rack :class:`~repro.waking.failover.ReplicatedWakingService` on the
  SDN switch, waking hosts on inbound requests (WoL) and ahead of
  scheduled dates;
* the :class:`~repro.network.sdn.SDNSwitch` carrying open-loop client
  requests whose rate follows each VM's trace;
* the hourly trace/model/consolidation steps of the hourly simulator,
  run by the same code (:class:`~repro.sim.engine.HourEngine`), with
  controller migrations executed through :meth:`EventDrivenSimulation.
  _execute_migration` (which wakes drowsy endpoints first).

This is the driver for Fig. 2, Table I, the energy totals, the SLA
results and the suspending/waking module evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cluster.accounting import host_view
from ..cluster.datacenter import DataCenter
from ..cluster.events import EventSimulator, first_grid_point
from ..cluster.host import Host
from ..cluster.power import ON_CODE, PowerState
from ..cluster.vm import VM
from ..core.calendar import time_of_hour
from ..core.params import DEFAULT_PARAMS, DrowsyParams
from ..core.result import RunResult
from ..network.requests import PerVMRequestStreams, RequestProfile
from ..network.sdn import ReliableWolChannel, SDNSwitch
from ..suspend.columnar import (
    CODE_CANDIDATE,
    DECISION_OF_CODE,
    classify_hosts,
    module_is_columnar,
)
from ..suspend.grace import grace_from_raw_ip
from ..suspend.module import SuspendDecision, SuspendingModule
from ..suspend.timers import compute_waking_date
from ..waking.failover import ReplicatedWakingService
from ..waking.packets import WoLPacket
from .engine import HourEngine, validate_shared_config
from .suspend_sweep import SuspendSweepScheduler


@dataclass(frozen=True)
class EventConfig:
    """Options for the event-driven run."""

    suspend_enabled: bool = True
    consolidation_period_h: int = 1
    relocate_all_mode: bool = False
    update_models: bool = True
    request_profile: RequestProfile = RequestProfile()
    seed: int = 12345
    #: Request RNG layout: ``"shared"`` (seed-compatible single stream,
    #: draws depend on fleet iteration order) or ``"per-vm"``
    #: (name-keyed Philox substreams — every VM's request traffic is
    #: invariant under placement/iteration reordering).
    request_streams: str = "shared"

    def __post_init__(self) -> None:
        # All config contradictions raise here, at construction time.
        validate_shared_config(self)
        if self.request_streams not in ("shared", "per-vm"):
            raise ValueError(
                f"unknown request_streams {self.request_streams!r}; "
                "expected 'shared' or 'per-vm'")


class ArrivalRows:
    """The keys of an hour's arrival stream (DESIGN.md §10): entry ``i``
    is for the VM ``names[rows[i]]`` of the hour's VM table, and
    ``completions[i]`` is its arrival time plus service time, the float
    ``submit_request`` would add.  Indexing an entry gives its VM name,
    as in a plain name list."""

    __slots__ = ("names", "rows", "completions")

    def __init__(self, names: list[str], rows: np.ndarray,
                 completions: np.ndarray) -> None:
        self.names = np.array(names, dtype=object)
        self.rows = rows
        self.completions = completions

    @classmethod
    def of(cls, names, times, services) -> ArrivalRows:
        """The rows of a plain sequence of VM names."""
        table = list(dict.fromkeys(names))
        index = {name: r for r, name in enumerate(table)}
        rows = np.fromiter(map(index.__getitem__, names), dtype=np.intp,
                           count=len(names))
        return cls(table, rows, np.asarray(times, dtype=np.float64)
                   + np.asarray(services, dtype=np.float64))

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i: int) -> str:
        return self.names[self.rows[i]]

    def names_at(self, lo: int, hi: int) -> list[str]:
        """The VM names of entries ``lo .. hi - 1``."""
        return self.names[self.rows[lo:hi]].tolist()


class EventDrivenSimulation(HourEngine):
    """Full-stack Drowsy-DC simulation."""

    backend_name = "event"

    def __init__(self, dc: DataCenter, controller,
                 params: DrowsyParams = DEFAULT_PARAMS,
                 config: EventConfig = EventConfig(),
                 hour_hooks: tuple = ()) -> None:
        super().__init__(dc, controller, params, config, hour_hooks)
        self.sim = EventSimulator()
        self.rng = np.random.default_rng(config.seed)
        self.switch = SDNSwitch(self.sim, dc, params)
        #: Every WoL emission goes through the resilient channel; with no
        #: fault transport attached it is a direct synchronous call to
        #: :meth:`_on_wol` (bit-identical to the pre-channel path).
        self.wol_channel = ReliableWolChannel(
            self.sim, self._on_wol, params, self._wake_satisfied)
        self.waking = ReplicatedWakingService(
            self.sim, self.wol_channel.send, params)
        self.switch.waking_service = self.waking
        self.switch.wol_sender = self.wol_channel.send
        self.suspending = {h.name: SuspendingModule(h, params) for h in dc.hosts}
        self._resume_pending: set[str] = set()
        #: In-flight finish_suspend/finish_resume timers per host, so an
        #: injected crash can tombstone them instead of letting them fire
        #: an illegal transition on a CRASHED host (DESIGN.md §14).
        self._transition_events: dict[str, object] = {}
        #: Fault injector hook (set by repro.faults.FaultInjector); None
        #: on fault-free runs, where every fault branch below is a single
        #: attribute test.
        self.faults = None
        # Fault accounting (all stay zero without an injector).
        self.host_crashes = 0
        self.host_recoveries = 0
        self.resume_failures = 0
        self.failover_migrations = 0
        self.stranded_vms = 0
        self.recovered_requests = 0
        self.migrations_blocked = 0
        self._current_hour = 0
        #: Timer wheel batching the per-host suspend checks into sweeps
        #: (DESIGN.md §10).
        self.sweeper = SuspendSweepScheduler(self.sim, self._sweep_due)
        self._request_streams = (PerVMRequestStreams(config.seed)
                                 if config.request_streams == "per-vm"
                                 else None)
        #: Per-hour host classification cache of the columnar sweep pass
        #: ((hour, placement epoch, blocked version), codes, view).
        self._codes_cache: tuple | None = None
        #: VMs removed mid-run (scenario churn): their already-scheduled
        #: request events for the current hour must fall through instead
        #: of faulting on the unknown name.
        self._departed_vms: set[str] = set()
        #: The arrival consumer's row lookup ((keys, dc.vms, departures,
        #: placed, host positions, addresses), see :meth:`_fast_rows`).
        self._rows_cache: tuple | None = None

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def _start(self, start_hour: int, n_hours: int) -> None:
        for t in range(start_hour, start_hour + n_hours):
            self.sim.schedule_at(time_of_hour(t), self._hour_tick, t)
        if self.config.suspend_enabled:
            for host in self.dc.hosts:
                self._schedule_check(host, delay=self.params.suspend_check_period_s)

    def _advance(self, end_hour: int) -> None:
        """Drain the clock to the end of the horizon.  The event kernel
        holds every piece of in-flight state — hour ticks, suspend
        checks, transitions in the heap, the hour's request arrivals in
        its stream — so a restored run resumes by simply draining it."""
        self.sim.run_until(time_of_hour(end_hour))

    # ------------------------------------------------------------------
    def _hour_tick(self, t: int) -> None:
        now = self.sim.now
        self._current_hour = t
        self._hour_head(t, now)

        # Client traffic for interactive VMs active this hour.
        obs = self._obs
        if obs is not None:
            obs.phase_begin("requests")
        self._generate_hour_requests(now, self.config.request_profile)
        if obs is not None:
            obs.phase_end()
        self._hour_tail(t, now)

    def _relocate_all(self, t: int, now: float) -> None:
        before = len(self.dc.migrations)
        self.controller.relocate_all(t, now)
        self._refresh_waking_after_bulk(self.dc.migrations[before:])
        # Migrations may have moved a VM whose request is waiting.
        self.switch.redispatch_pending()

    def _step(self, t: int, now: float) -> None:
        self.controller.step(t, now, executor=self._execute_migration)
        self.switch.redispatch_pending()

    # ------------------------------------------------------------------
    def telemetry_sample(self) -> dict:
        """Cumulative engine counters for the telemetry runtime
        (DESIGN.md §17) — sampled at hour boundaries, never pushed, so
        the metrics-off path costs nothing."""
        sim, ch = self.sim, self.wol_channel
        return {
            # Coalesced logical events are folded into events_processed
            # by EventSimulator.count_coalesced (a parity observable).
            "events_processed": sim.events_processed,
            # Pending counts the hour's unconsumed arrivals; the heap
            # (tombstones included) never holds them.
            "events_pending": sim.pending,
            "heap_depth": len(sim._heap),
            "migrations": len(self.dc.migrations),
            "wol_attempts": ch.attempts,
            "wol_retries": ch.retries,
            "wol_dropped": ch.dropped,
            "wol_delayed": ch.delayed,
            "wol_abandoned": ch.abandoned,
            "wol_sent": self.waking.active.wol_sent,
            "waking_beats": self.waking.beats,
            "queued_requests": self.switch.queued_requests,
            "sweeps_fired": self.sweeper.sweeps_fired,
            "sweep_checks": self.sweeper.checks_performed,
        }

    def _generate_hour_requests(self, now: float,
                                profile: RequestProfile) -> None:
        """One RNG pass for the hour's request traffic (DESIGN.md §10).

        Every interactive VM active this hour, in fleet order, makes two
        draws, a Poisson count and one ``random`` block holding its
        arrivals and leading request (:meth:`RequestProfile.hour_block`),
        from the shared stream or its own.  The hour's blocks are merged
        once with a stable sort (equal-time ties keep fleet order — the
        FIFO order per-request events would get from their sequence
        numbers), and the shared stream then draws service times in
        dispatch order.  The block goes to the kernel as one arrival
        stream of arrays, off the heap: bit-identical to drawing each
        VM's sorted arrivals on its own, scheduling each as its own
        event and drawing its service time at submit (``tests/oracles.py``
        keeps that per-push reference).
        """
        vms = self.dc.vms
        activities = host_view(self.dc).vm_activities()
        rows = [i for i in np.flatnonzero(activities > 0.0).tolist()
                if vms[i].interactive]
        if not rows:
            return
        streams = self._request_streams
        rngs = (self.rng if streams is None
                else [streams.for_vm(vms[i].name) for i in rows])
        times, owners, services = profile.hour_block(
            rngs, now, activities[rows], hour_index=self._current_hour)
        keys = ArrivalRows([vms[i].name for i in rows], owners,
                           times + services)
        self.sim.schedule_stream(times, self._submit_generated, keys,
                                 services)

    def _submit_generated(self, times: np.ndarray, keys, services,
                          lo: int, hi: int) -> int:
        """Consume arrivals ``lo .. hi - 1`` of the hour's stream, which
        come before every other event (DESIGN.md §10); returns the
        position reached.  ``keys`` is the stream's :class:`ArrivalRows`,
        or any sequence of VM names (a stream scheduled by hand).

        An arrival is *fast* when its VM has not departed, the active
        waking module is alive and has no drowsy host for the VM's IP,
        the VM's host is ON and the request completes inside the running
        drain.  Such a request wakes nothing and schedules nothing, so
        the leading run of fast arrivals is logged in bulk, exactly as
        one ``submit_request`` each would log it: one verdict mask over
        the VM table, gathered per arrival, and one ``argmax`` for the
        first arrival that is not fast.  That arrival goes through
        ``submit_request`` alone, as the first of its own slice: it may
        read the clock and schedule.
        """
        if type(keys) is not ArrivalRows:
            keys = ArrivalRows.of(keys, times, services)
        switch, waking = self.switch, self.waking
        active = waking.active
        if switch.waking_service is waking and active.alive:
            slow = ~self._fast_rows(keys, active.state.vm_to_mac)[
                keys.rows[lo:hi]]
            slow |= keys.completions[lo:hi] > self.sim.draining_until
            n = int(slow.argmax())
            if not slow[n]:
                n = hi - lo
            if n:
                end = lo + n
                switch.log.extend(times[lo:end], keys.names_at(lo, end),
                                  services[lo:end], keys.completions[lo:end])
                active.packets_analyzed += n
                switch.packets_forwarded += n
                self.sim.events_processed += n  # the inline completions
                return end
        name = keys[lo]
        if name not in self._departed_vms:
            switch.submit_request(name, float(times[lo]),
                                  float(services[lo]))
        return lo + 1

    def _fast_rows(self, keys: ArrivalRows, mapped: dict) -> np.ndarray:
        """Per row of ``keys``' VM table: would an arrival for the VM
        be fast now, its completion aside?  The rows' hosts and
        addresses are looked up once per placement (the ``dc.vms``
        list) and departure count; host states and the waking map are
        read live."""
        dc, departed = self.dc, self._departed_vms
        vms = dc.vms
        cached = self._rows_cache
        if (cached is None or cached[0] is not keys or cached[1] is not vms
                or cached[2] != len(departed)):
            placed = np.ones(len(keys.names), dtype=bool)
            hosts = np.zeros(len(keys.names), dtype=np.intp)
            ips = [""] * len(keys.names)
            positions = dc.host_columns.positions
            for r, name in enumerate(keys.names.tolist()):
                if name in departed:
                    placed[r] = False
                    continue
                vm, host = dc.find_vm(name)
                hosts[r] = positions[host.name]
                ips[r] = vm.ip_address
            cached = self._rows_cache = (keys, vms, len(departed), placed,
                                         hosts, ips)
        _, _, _, placed, hosts, ips = cached
        fast = placed & (dc.meters.state[hosts] == ON_CODE)
        if mapped:
            fast &= ~np.fromiter(map(mapped.__contains__, ips), dtype=bool,
                                 count=len(ips))
        return fast

    def note_vm_departed(self, vm_name: str) -> None:
        """A VM left the fleet mid-run (scenario churn): swallow its
        still-scheduled arrivals and drop its queued requests."""
        self._departed_vms.add(vm_name)
        self.switch.drop_vm(vm_name)

    # ------------------------------------------------------------------
    # suspension path
    # ------------------------------------------------------------------
    def _schedule_check(self, host: Host, delay: float) -> None:
        self.sweeper.schedule(host, self.sim.now + delay)

    def _cancel_check(self, host: Host) -> None:
        self.sweeper.cancel(host)

    def _host_codes(self):
        """``(codes, view)``: the current hour's host classifications
        and the host view they index.  The cache hits only on the same
        view object, so a scalar view (built per call) never hits."""
        view = host_view(self.dc)
        key = (self._current_hour, view.epoch, view.blocked_version)
        cached = self._codes_cache
        if cached is not None and cached[0] == key and cached[2] is view:
            return cached[1], view
        codes = classify_hosts(view, self._current_hour).tolist()
        self._codes_cache = (key, codes, view)
        return codes, view

    def _sweep_due(self, now: float, due: list[Host]) -> None:
        """Evaluate every due host's suspend check in one pass.

        Per-host semantics are exactly those of one check event per
        host, in bucket insertion order (= the per-host events' FIFO
        order): non-ON hosts are skipped silently, columnar-eligible
        hosts get their verdict from the fleet-wide classification plus
        the grace clock, deviating modules (heuristics, custom
        blacklists) run the scalar evaluator, and each host's
        decision counter and follow-up actions are identical to the
        per-event reference in ``tests/oracles.py``.

        A check is re-armed where its verdict can next change
        (DESIGN.md §12).  An ACTIVE host cannot suspend before the next
        hour tick (activities and placement only change there), so its
        next check is the first point of its fixed-period grid at/after
        the hour end; an IN_GRACE host's is the first grid point
        at/after ``min(grace_until, hour end)``.  Grid points come from
        iterated float addition, identical to a fixed-period ``now +
        period`` chain, so every suspend fires exactly when the
        fixed-period reference would fire it: only ``events_processed``
        differs (fewer checks).
        """
        if not self.config.suspend_enabled:
            return
        period = self.params.suspend_check_period_s
        deadline = now + period
        codes, view = self._host_codes()
        positions = view.positions
        # Hot loop (every ON host, every check period): locals for the
        # per-host lookups, eager rescheduling so the wheel's insertion
        # (and event sequence) order matches the per-host event path.
        suspending = self.suspending
        schedule = self.sweeper.schedule
        on_state = PowerState.ON
        candidate = CODE_CANDIDATE
        active, in_grace, suspend = (SuspendDecision.ACTIVE,
                                     SuspendDecision.IN_GRACE,
                                     SuspendDecision.SUSPEND)
        decision_of_code = DECISION_OF_CODE
        hour_end = time_of_hour(self._current_hour + 1)
        # Every due host shares ``now``, so grid points are shared too:
        # one walk per distinct target per sweep.
        rearm: dict[float, float] = {}
        for host in due:
            if host.state is not on_state:
                continue  # resume path reinstates the check
            module = suspending[host.name]
            if module_is_columnar(module):
                code = codes[positions[host.name]]
                if code == candidate:
                    decision = (in_grace if now < host.grace_until
                                else suspend)
                else:
                    decision = decision_of_code[code]
                module.decision_counts[decision] += 1
                if decision is suspend:
                    self._begin_suspend(
                        host, compute_waking_date(host, now, module.blacklist))
                    continue
            else:
                verdict = module.evaluate(now)
                decision = verdict.decision
                if verdict.should_suspend:
                    self._begin_suspend(host, verdict.waking_date_s)
                    continue
            if decision is active or decision is in_grace:
                target = (hour_end if decision is active
                          else min(host.grace_until, hour_end))
                nxt = rearm.get(target)
                if nxt is None:
                    nxt = rearm[target] = first_grid_point(
                        deadline, period, target)
                schedule(host, nxt)
            else:
                schedule(host, deadline)

    def _begin_suspend(self, host: Host, waking_date_s: float | None) -> None:
        # Hand the waking date to the rack's waking module first so the
        # packet analyzer covers the whole drowsy window.
        self.waking.register_suspension(host, waking_date_s)
        host.begin_suspend(self.sim.now)
        latency = self.params.suspend_latency_s
        if self.faults is not None:
            latency = self.faults.suspend_latency(latency, host.name)
        self._transition_events[host.name] = self.sim.schedule_in(
            latency, self._finish_suspend, host)

    def _finish_suspend(self, host: Host) -> None:
        self._transition_events.pop(host.name, None)
        host.finish_suspend(self.sim.now)
        if host.name in self._resume_pending:
            # A wake arrived mid-transition: resume immediately.
            self._resume_pending.discard(host.name)
            self._begin_resume(host)

    # ------------------------------------------------------------------
    # wake path
    # ------------------------------------------------------------------
    def _on_wol(self, packet: WoLPacket, now: float) -> None:
        # O(1) MAC index (host MACs are construction-time constants).
        host = self.dc.host_by_mac.get(packet.mac_address)
        if host is None:
            return
        if host.state is PowerState.SUSPENDED:
            self._begin_resume(host)
        elif host.state is PowerState.SUSPENDING:
            self._resume_pending.add(host.name)

    def _wake_satisfied(self, mac: str) -> bool:
        """Retry-channel predicate: is a wake for ``mac`` moot?  True
        for hosts already up/coming up or gone from the fleet."""
        host = self.dc.host_by_mac.get(mac)
        return host is None or host.state in (PowerState.ON,
                                              PowerState.RESUMING)

    def _begin_resume(self, host: Host) -> None:
        host.begin_resume(self.sim.now)
        self._transition_events[host.name] = self.sim.schedule_in(
            self.params.resume_latency_s, self._finish_resume, host)

    def _finish_resume(self, host: Host) -> None:
        self._transition_events.pop(host.name, None)
        if self.faults is not None and self.faults.resume_fails():
            self._resume_failed(host)
            return
        # The grace window follows the host's IP (section IV), as
        # SuspendingModule.grace_for_resume computes it.
        mean_ip = host_view(self.dc).host_mean_raw_ip(host,
                                                      self._current_hour)
        host.finish_resume(self.sim.now,
                           grace_from_raw_ip(mean_ip, self.params))
        self._host_up(host)

    def _host_up(self, host: Host) -> None:
        """``host`` is back in S0 (resumed or rebooted): its in-flight
        WoL retries and delayed packets are moot (one sent while it was
        down must not resume it after it re-suspends), its drowsy-era
        registrations go, the requests queued on the switch are
        re-examined, and its suspend checks restart."""
        self.wol_channel.settle(host.mac_address)
        self.waking.on_host_awake(host)
        self.switch.redispatch_pending()
        if self.config.suspend_enabled:
            self._schedule_check(host, self.params.suspend_check_period_s)

    # ------------------------------------------------------------------
    # fault primitives (driven by repro.faults.FaultInjector)
    # ------------------------------------------------------------------
    def crash_host(self, host: Host,
                   recover_after_s: float | None = None) -> bool:
        """Inject an abrupt host failure (DESIGN.md §14).

        Cancels the host's in-flight transition/check timers and
        tombstones its WoL retries — a ``finish_*`` firing on a CRASHED
        host would be an illegal transition — then drops the host to
        CRASHED.  Its VMs stay resident (requests queue on the switch
        until recovery).  Returns False for hosts that cannot crash
        (already CRASHED, or powered off)."""
        if host.state in (PowerState.CRASHED, PowerState.OFF):
            return False
        ev = self._transition_events.pop(host.name, None)
        if ev is not None:
            ev.cancel()
        self._cancel_check(host)
        self._resume_pending.discard(host.name)
        self.wol_channel.settle(host.mac_address)
        host.crash(self.sim.now)
        self.host_crashes += 1
        if recover_after_s is not None:
            self.sim.schedule_in(recover_after_s, self._recover_host, host)
        return True

    def _recover_host(self, host: Host) -> None:
        """Reboot a crashed host into S0 and drain its queued requests."""
        if host.state is not PowerState.CRASHED:
            return
        host.recover(self.sim.now)
        self.host_recoveries += 1
        queued_before = self.switch.queued_requests
        self._host_up(host)
        self.recovered_requests += queued_before - self.switch.queued_requests

    def _resume_failed(self, host: Host) -> None:
        """A resume that never came back: declare the host crashed and
        fail its VMs over to live hosts by migration (the consolidation
        manager's evacuation path); stranded VMs wait for recovery."""
        self.resume_failures += 1
        recover_after = (self.faults.resume_recover_after_s()
                         if self.faults is not None else None)
        self.crash_host(host, recover_after)
        live = [h for h in self.dc.hosts
                if h is not host and h.state is PowerState.ON]
        migrated, stranded = self.dc.evacuate(host, self.sim.now,
                                              targets=live)
        self.failover_migrations += len(migrated)
        self.stranded_vms += len(stranded)
        # Requests for the migrated VMs can complete on their new hosts.
        self.switch.redispatch_pending()

    # ------------------------------------------------------------------
    # migrations
    # ------------------------------------------------------------------
    def _refresh_waking_after_bulk(self, records) -> None:
        """Repair the waking module's VM->MAC map after a bulk move.

        ``relocate_all`` relocates without wakes, so a VM leaving a
        drowsy host kept a stale mapping: an inbound request would WoL
        the *old* host while the request queued against the new one.
        For each moved VM, in record order, repoint the mapping at the
        destination's MAC when the destination is drowsy, else drop it
        — exactly the state ``register_suspension`` would have built
        had the VM been on the destination when it went drowsy.
        """
        drowsy = (PowerState.SUSPENDING, PowerState.SUSPENDED)
        for rec in records:
            vm, dest = self.dc.find_vm(rec.vm_name)
            self.waking.note_vm_moved(
                vm.ip_address,
                dest.mac_address if dest.state in drowsy else None)

    def _execute_migration(self, vm: VM, dest: Host) -> None:
        """Controller-requested migration; wakes endpoints as needed."""
        src = self.dc.host_of(vm)
        if (src.state is PowerState.CRASHED
                or dest.state is PowerState.CRASHED):
            self.migrations_blocked += 1
            return
        for host in (src, dest):
            self.force_awake(host, self.sim.now)
        self.dc.migrate(vm, dest, self.sim.now)

    # ------------------------------------------------------------------
    # administrative surface (scenario churn via the façade)
    # ------------------------------------------------------------------
    def force_awake(self, host: Host, now: float) -> None:
        """Zero-latency, zero-grace resume of a suspended host on the
        event clock (``now`` is ignored: every caller runs at
        ``sim.now``).  A host still suspending resumes as soon as its
        suspend completes."""
        if host.state is PowerState.SUSPENDED:
            host.begin_resume(self.sim.now)
            host.finish_resume(self.sim.now, 0.0)
            self._host_up(host)
        elif host.state is PowerState.SUSPENDING:
            self._resume_pending.add(host.name)

    def reinstate_check(self, host: Host) -> None:
        self._schedule_check(host, self.params.suspend_check_period_s)

    # ------------------------------------------------------------------
    def _result(self) -> RunResult:
        return super()._result(
            resume_cycles_by_host={h.name: h.resume_count
                                   for h in self.dc.hosts},
            request_summary=self.switch.log.summary(),
            wol_sent=self.waking.active.wol_sent,
            events_processed=self.sim.events_processed)
