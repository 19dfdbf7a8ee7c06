"""The sharded backend's coordinator: one global brain, N shard engines.

``ShardedCoordinator`` is the "engine" object the façade drives when
``backend="sharded"``.  It partitions the fleet by host name
(:mod:`.partition`), ships each partition to a shard running an
unmodified hourly engine around a :class:`~.port.ShardPort`, and keeps
the *original* data center as a *replica*: a global mirror whose power
states come from shard digests and whose placement the coordinator
itself maintains.  The real consolidation controller and the real
observers (scenario churn, user hooks) run against the replica only —
their side effects are captured as ops and replayed into the owning
shards through the per-hour three-phase exchange:

1. **extract** — each shard detaches the VMs leaving it this tick and
   ships them as self-contained bundles (pickled VMs with detached
   idleness models);
2. **bundles** — the coordinator routes each bundle to the shard that
   now owns the VM;
3. **ops** — each shard applies its op list in global call order.

Every op in one exchange shares the tick's timestamp, so meter
intervals between replayed ops are zero-length and the per-shard
filtered order is result-identical to the global order; the digests
before the controller (``hour``) and before the observers (``hook``)
keep the replica's power states exact even though the hourly engine
flips states *between* those two points.  The reduction then rebuilds
the single-engine result bit-for-bit: per-host quantities reassemble
in fleet order from their owning shard, host-hour counters sum, and
placement-level counts come straight from the replica.

Not shardable (rejected with ``ValueError``): controllers that veto
sleep per-host (they read global state at power-step time),
waking-service fault plans and resume failures (both draw from
streams whose order depends on the global interleaving).
"""

from __future__ import annotations

import time
from dataclasses import replace

from ...cluster.power import PowerState
from ...core.binding import FleetBinding
from ...core.calendar import time_of_hour
from ...core.result import RunResult
from ...resilience import ShardCrashError, ShardTimeoutError
from ...sim.hourly import HourlyConfig
from .config import ShardedConfig
from .partition import clone_shard_dc, detach_fleet_models, partition_hosts
from .transport import ShardTransport
from .wire import pickle_vm, record_as_dict


class ShardError(RuntimeError):
    """A shard died or broke protocol; the run cannot continue."""


class ShardedCoordinator:
    """Drives one sharded run; the façade's ``engine`` object."""

    def __init__(self, dc, controller, params,
                 config: ShardedConfig | None = None,
                 hour_hooks: tuple = ()) -> None:
        self.dc = dc
        self.controller = controller
        self.params = params
        self.config = config if config is not None else ShardedConfig()
        self.hour_hooks = tuple(hour_hooks)
        self._inner_config = self.config.inner_config or HourlyConfig()
        if getattr(controller, "host_can_sleep", None) is not None:
            raise ValueError(
                f"controller {controller.name!r} vetoes sleep per-host "
                "from global state; the hourly shard engines would "
                "consult it on every shard — not shardable")
        self._fault = None
        self._binding = None
        self._horizon: tuple[int, int] | None = None
        self._outcomes: list[dict] | None = None
        self._transport: ShardTransport | None = None
        self._shard_hosts: list[list] = []
        self._shard_of_host: dict[str, int] = {}
        self._vm_shard: dict[str, int] = {}
        self._extracts: list[list] = []
        self._ops: list[list] = []
        self._needs: list[set] = []
        self._now = 0.0
        # --- crash safety (DESIGN.md §16) -------------------------------
        #: Worker count for the *next* pool launch; drops to 0 (threads)
        #: when supervision degrades.
        self._workers_mode = self.config.workers
        self._supervise = self.config.supervise
        timeout = self.config.timeout_s
        if timeout is None and self._supervise is not None:
            timeout = self._supervise.deadline_s
        self._timeout_s = timeout
        #: Per-shard message journal since the last boundary snapshot:
        #: ``("send", msg)`` / ``("recv",)`` entries in protocol order.
        #: ``None`` when recovery is off (no supervision or no processes
        #: to lose) — nothing would ever replay it.
        self._journal: list[list] | None = None
        self._restarts = 0
        #: Last hour-boundary shard snapshots (pickled ports) and the
        #: hour they describe; what respawn and checkpoint resume from.
        self._shard_states: list | None = None
        self._state_hour: int | None = None
        self._setups: list | None = None
        self._next_hour = 0
        self._migrations_before = 0
        self._current_hour: int | None = None
        self._ckpt_request: tuple | None = None
        # --- observability (DESIGN.md §17) ------------------------------
        #: Telemetry endpoint installed by a metrics/trace-enabled run;
        #: stays ``None`` — zero hooks, zero clock reads — otherwise.
        self._obs = None
        #: Exchange-cost accumulators, populated only when the runtime
        #: asks for metrics (pickling the bundle dict a second time has
        #: a real cost — the off path never pays it).
        self._obs_bundle_bytes = 0
        self._obs_recv_wall: dict[int, float] = {}

    def __getstate__(self) -> dict:
        # A coordinator inside a checkpoint: live transport machinery
        # stays behind; the boundary snapshots in ``_shard_states`` are
        # what the resumed run relaunches from, which also makes the
        # original setup clones (only needed for a before-first-boundary
        # respawn) dead weight.
        state = self.__dict__.copy()
        state["_transport"] = None
        state["_journal"] = None
        state["_ckpt_request"] = None
        if state.get("_shard_states") is not None:
            state["_setups"] = None
        return state

    # ------------------------------------------------------------------
    # fault-plan installation (called by FaultInjector.on_run_start)
    # ------------------------------------------------------------------
    def install_fault_plan(self, injector, start_hour: int,
                           n_hours: int) -> None:
        plan = injector.plan
        if not plan.waking.is_zero:
            raise ValueError(
                "waking-service faults (kill_primary_at_h / partitions) "
                "target per-shard service replicas and are not shardable")
        if plan.transitions.resume_failure_probability > 0.0:
            raise ValueError(
                "resume failures draw from one shared stream in global "
                "resume order and are not shardable")
        # The global schedule (name-keyed per-host streams, global
        # max_crashes cap) is computed once here and sliced by owning
        # shard, so every shard sees exactly the crashes an unsharded
        # run would inject on its hosts.
        schedule = injector._crash_schedule(self.dc.hosts, start_hour,
                                            n_hours)
        self._fault = (injector, schedule)

    # ------------------------------------------------------------------
    # run
    # ------------------------------------------------------------------
    def run(self, n_hours: int, start_hour: int = 0) -> RunResult:
        if n_hours <= 0:
            raise ValueError("n_hours must be positive")
        detach_fleet_models(self.dc)
        shard_lists = partition_hosts(self.dc, self.config.shards)
        if not shard_lists:
            raise ValueError("cannot shard an empty fleet")
        self._shard_hosts = shard_lists
        self._shard_of_host = {h.name: k
                               for k, hosts in enumerate(shard_lists)
                               for h in hosts}
        self._vm_shard = {vm.name: self._shard_of_host[h.name]
                          for hosts in shard_lists
                          for h in hosts for vm in h.vms}
        setups = self._build_setups(shard_lists, n_hours, start_hour)
        self._setups = setups
        self._horizon = (start_hour, n_hours)
        self._next_hour = start_hour
        self._bind_replica()
        self._migrations_before = len(self.dc.migrations)
        self._workers_mode = self.config.workers
        self._restarts = 0
        self._shard_states = None
        self._state_hour = None
        self._journal = (
            [[] for _ in setups]
            if self._supervise is not None and self._workers_mode > 0
            else None)
        self._transport = ShardTransport(setups, self._workers_mode,
                                         timeout_s=self._timeout_s)
        return self._drive()

    def continue_run(self) -> RunResult:
        """Resume a checkpointed run: relaunch every shard from its
        boundary snapshot and drive the remaining hours.  Called by the
        façade after :meth:`Simulation.resume` unpickles the graph."""
        if self._horizon is None or self._shard_states is None:
            raise RuntimeError("no run in progress to continue")
        if self._binding is not None:
            # A pickled binding leaves its horizon matrix behind.
            self._binding.ensure_horizon(*self._horizon)
        self._workers_mode = self.config.workers
        self._restarts = 0
        self._journal = (
            [[] for _ in self._shard_states]
            if self._supervise is not None and self._workers_mode > 0
            else None)
        self._transport = ShardTransport(self._respawn_setups(),
                                         self._workers_mode,
                                         timeout_s=self._timeout_s)
        return self._drive()

    def _drive(self) -> RunResult:
        start_hour, n_hours = self._horizon
        try:
            for t in range(self._next_hour, start_hour + n_hours):
                self._hour(t)
            outcomes = [self._recv(k, "done")[1]
                        for k in range(len(self._shard_hosts))]
        except BaseException:
            if self._transport is not None:
                self._transport.abort()
                self._transport.shutdown(force=True)
                self._transport = None
            raise
        self._transport.shutdown()
        self._transport = None
        self._outcomes = outcomes
        self.dc.sync_meters(time_of_hour(start_hour + n_hours))
        return self._reduce(outcomes, n_hours, self._migrations_before)

    def request_checkpoint(self, manager, t: int) -> None:
        """Deferred checkpoint (called by the manager's hour hook, which
        fires mid-exchange): the snapshot is taken at the end of
        :meth:`_hour`, once the shards have shipped their boundary
        states."""
        self._ckpt_request = (manager, t)

    def _build_setups(self, shard_lists: list[list], n_hours: int,
                      start_hour: int) -> list[dict]:
        # Cross-shard inserts land mid-tick and leave a shard's
        # accounting stale until it rebinds, so shards run without
        # host accounting: every host view is the scalar one, which
        # reads live state and is bit-identical (the parity suite).
        shard_cfg = replace(self._inner_config, use_host_accounting=False)
        setups = []
        for k, hosts in enumerate(shard_lists):
            fault = None
            if self._fault is not None:
                injector, schedule = self._fault
                names = {h.name for h in hosts}
                fault = {"plan": injector.plan, "seed": injector.seed,
                         "crashes": [(at, nm) for at, nm in schedule
                                     if nm in names]}
            setups.append({
                "index": k,
                "dc": clone_shard_dc(self.dc, hosts),
                "controller_name": self.controller.name,
                "uses_idleness": getattr(self.controller, "uses_idleness",
                                         False),
                "params": self.params,
                "config": shard_cfg,
                "n_hours": n_hours,
                "start_hour": start_hour,
                "fault": fault,
                "chaos": (self.config.chaos
                          if self.config.chaos is not None
                          and not self.config.chaos.is_zero else None),
                # Telemetry flags (DESIGN.md §17): workers build their
                # own ShardTelemetry endpoint and ship spans/counters
                # home on the ("done", outcome) message.
                "obs_trace": self._obs is not None and self._obs.tracing,
                "obs_metrics": (self._obs is not None
                                and self._obs.metrics is not None),
            })
        return setups

    def _bind_replica(self) -> None:
        self._binding = FleetBinding.try_bind(self.dc, self.params,
                                              accounting=False)
        if self._binding is not None and self._horizon is not None:
            self._binding.ensure_horizon(*self._horizon)

    # ------------------------------------------------------------------
    # the per-hour lockstep
    # ------------------------------------------------------------------
    def _hour(self, t: int) -> None:
        cfg = self._inner_config
        now = time_of_hour(t)
        self._now = now
        self._current_hour = t
        if self._transport is not None:
            self._transport.current_hour = t
        n_shards = len(self._shard_hosts)
        obs = self._obs
        metrics_on = obs is not None and obs.metrics is not None
        if obs is not None:
            obs.phase_begin("shard-digests")
        for k in range(n_shards):
            if metrics_on:
                t0 = time.perf_counter()
            msg = self._recv(k, "hour")
            if metrics_on:
                # Per-shard hour wall: how long the coordinator waited
                # on each shard's hour boundary (the straggler signal).
                self._obs_recv_wall[k] = (self._obs_recv_wall.get(k, 0.0)
                                          + time.perf_counter() - t0)
            self._apply_digest(k, msg[2])
        if obs is not None:
            obs.phase_end()
        # Replica prologue — mirror of the engines' hour prologue, so
        # the real controller reads the same activities and models an
        # unsharded run would show it.  (Replica meters are clock
        # hygiene only; no result reads them.)
        vms = self.dc.vms
        binding = self._binding
        activities = None
        if binding is not None and binding.covers(vms):
            self.dc.sync_meters(now)
            activities = binding.load_hour(t)
        else:
            self.dc.set_hour_activities(t, now)
        self.controller.observe_hour(t)
        if t % cfg.consolidation_period_h == 0:
            if obs is not None:
                obs.phase_begin("consolidate")
            self._begin_capture()
            before = len(self.dc.migrations)
            if cfg.relocate_all_mode and hasattr(self.controller,
                                                 "relocate_all"):
                self.controller.relocate_all(t, now)
                self._route_bulk(self.dc.migrations[before:])
            else:
                self.controller.step(t, now)
                self._route_records(self.dc.migrations[before:])
            self._flush_exchange()
            if obs is not None:
                obs.phase_end()
        if cfg.update_models or getattr(self.controller, "uses_idleness",
                                        False):
            if activities is not None:
                binding.observe(t, activities)
            else:
                for vm in vms:
                    vm.model.observe(t, vm.current_activity)
        # Hook barrier: a second digest (the hourly engine changes power
        # states between consolidation and its hooks), then the
        # observers against the replica with op capture.
        for k in range(n_shards):
            self._apply_digest(k, self._recv(k, "hook")[2])
        self._begin_capture()
        for hook in self.hour_hooks:
            hook(t, now)
        # Hour t is complete once this exchange lands: record the resume
        # point *before* any snapshot below pickles the coordinator.
        self._next_hour = t + 1
        want_state = (self._journal is not None
                      or self._ckpt_request is not None)
        if obs is not None:
            obs.phase_begin("observer-exchange")
        self._flush_exchange(want_state=want_state)
        if obs is not None:
            obs.phase_end()
            obs.hour_mark(t)
        if want_state:
            # Boundary snapshot: each shard pickles its whole graph as
            # the last action of its hook — "hour t complete" exactly.
            # From here on, recovery replays from these states, so the
            # journal of the finished hour can be dropped.
            self._shard_states = [self._recv(k, "state")[1]
                                  for k in range(n_shards)]
            self._state_hour = t
            if self._journal is not None:
                self._journal = [[] for _ in range(n_shards)]
        if self._ckpt_request is not None:
            manager, hour = self._ckpt_request
            self._ckpt_request = None
            manager.write_checkpoint(hour)

    # ------------------------------------------------------------------
    # telemetry (DESIGN.md §17)
    # ------------------------------------------------------------------
    def telemetry_sample(self) -> dict:
        """Coordinator-side counters for the telemetry runtime: worker
        respawns, exchange bundle bytes, per-shard hour wall."""
        sample = {
            "worker_restarts": self._restarts,
            "exchange_bundle_bytes": self._obs_bundle_bytes,
            "migrations": len(self.dc.migrations),
        }
        for k, wall in sorted(self._obs_recv_wall.items()):
            sample[f"shard{k}_hour_wall_s"] = wall
        return sample

    def collect_shard_spans(self) -> list[dict]:
        """Spans shipped home by the shard workers (pid ``k + 1``),
        merged by the runtime into the coordinator's timeline."""
        events: list[dict] = []
        for outcome in self._outcomes or []:
            events.extend(outcome.get("spans") or ())
        return events

    def collect_shard_telemetry(self) -> dict:
        """Sum the shards' final counter samples (run totals only —
        per-hour shard series stay shard-side)."""
        totals: dict[str, float] = {}
        for outcome in self._outcomes or []:
            for name, value in (outcome.get("telemetry") or {}).items():
                totals[name] = totals.get(name, 0) + value
        return totals

    def _apply_digest(self, k: int, states: list) -> None:
        for host, state in zip(self._shard_hosts[k], states):
            host.state = state

    def _recv(self, k: int, expect: str):
        msg = self._recv_raw(k)
        if msg[0] == "error":
            raise ShardError(f"shard {k} failed:\n{msg[1]}")
        if msg[0] != expect:
            raise ShardError(f"protocol error from shard {k}: "
                             f"expected {expect!r}, got {msg[0]!r}")
        return msg

    # ------------------------------------------------------------------
    # supervised I/O: journal, recover, replay (DESIGN.md §16)
    # ------------------------------------------------------------------
    def _send(self, k: int, msg) -> None:
        # Journal *before* the physical send: if it fails mid-flight the
        # recovery replay covers this message, so the caller never
        # re-sends.
        if self._journal is not None:
            self._journal[k].append(("send", msg))
        try:
            self._transport.endpoints[k].send(msg)
        except (ShardCrashError, ShardTimeoutError) as exc:
            self._recover(exc)

    def _recv_raw(self, k: int):
        while True:
            try:
                msg = self._transport.endpoints[k].recv()
            except (ShardCrashError, ShardTimeoutError) as exc:
                self._recover(exc)
                continue
            if self._journal is not None:
                self._journal[k].append(("recv",))
            return msg

    def _recover(self, exc: BaseException) -> None:
        """A worker died or hung: respawn the pool from the last
        boundary snapshots, replay the journal, and let the caller
        retry the failed operation — or give up per policy."""
        policy = self._supervise
        if policy is None or self._journal is None:
            raise exc
        from ...obs.log import get_logger

        log = get_logger("sharded")
        while True:
            self._restarts += 1
            log.warning(
                "shard worker lost (%s); respawning pool (restart %d)",
                exc, self._restarts)
            if self._obs is not None:
                self._obs.instant("worker-respawn")
            if self._restarts > policy.max_restarts:
                if policy.degrade and self._workers_mode > 0:
                    # Last resort: bring the shards home as threads of
                    # this process.  Same snapshots, same protocol, no
                    # processes left to lose.
                    self._workers_mode = 0
                else:
                    raise ShardError(
                        f"shard workers failed beyond max_restarts="
                        f"{policy.max_restarts}; last failure: {exc}"
                    ) from exc
            else:
                time.sleep(policy.backoff_s(self._restarts))
            try:
                self._relaunch()
                return
            except (ShardCrashError, ShardTimeoutError) as next_exc:
                exc = next_exc

    def _relaunch(self) -> None:
        old = self._transport
        self._transport = None
        if old is not None:
            old.kill()
        transport = ShardTransport(self._respawn_setups(),
                                   self._workers_mode,
                                   timeout_s=self._timeout_s)
        transport.current_hour = self._current_hour
        self._transport = transport
        # Replay the coordinator's half of the protocol since the last
        # boundary: re-send every journaled send, drain every journaled
        # recv.  Per-shard order is what correctness needs (shards only
        # talk to the coordinator, never to each other), and sends are
        # buffered, so shard-by-shard replay cannot deadlock.
        for k, entries in enumerate(self._journal):
            endpoint = transport.endpoints[k]
            for entry in entries:
                if entry[0] == "send":
                    endpoint.send(entry[1])
                else:
                    msg = endpoint.recv()
                    if msg[0] == "error":
                        raise ShardError(
                            f"shard {k} failed during recovery replay:\n"
                            f"{msg[1]}")

    def _respawn_setups(self) -> list[dict]:
        """Fresh worker setups: boundary snapshots when we have them
        (every shard resumes its in-progress run), the original setup
        clones otherwise (failure before the first boundary — the
        shards start over and the journal replays hour 0's messages).
        Chaos entries at or before the current hour are stripped — a
        shard fires its entries inside that hour's observer exchange,
        which the coordinator cannot leave before detecting the loss —
        so each kill/hang fires at most once; thread shards never get
        chaos (a kill would take down this process)."""
        chaos = self.config.chaos
        if chaos is not None and self._current_hour is not None:
            chaos = chaos.surviving(self._current_hour)
        if chaos is not None and (chaos.is_zero or self._workers_mode == 0):
            chaos = None
        if self._shard_states is not None:
            return [{"index": k, "state": blob, "chaos": chaos}
                    for k, blob in enumerate(self._shard_states)]
        setups = []
        for setup in self._setups:
            setup = dict(setup)
            setup["chaos"] = chaos
            setups.append(setup)
        return setups

    # ------------------------------------------------------------------
    # op capture
    # ------------------------------------------------------------------
    def _begin_capture(self) -> None:
        n_shards = len(self._shard_hosts)
        self._extracts = [[] for _ in range(n_shards)]
        self._ops = [[] for _ in range(n_shards)]
        self._needs = [set() for _ in range(n_shards)]

    def _flush_exchange(self, want_state: bool = False) -> None:
        n_shards = len(self._shard_hosts)
        for k in range(n_shards):
            self._send(k, ("extract", self._extracts[k]))
        bundles: dict[str, dict] = {}
        for k in range(n_shards):
            bundles.update(self._recv(k, "bundles")[1])
        if (bundles and self._obs is not None
                and self._obs.metrics is not None):
            import pickle

            self._obs_bundle_bytes += len(
                pickle.dumps(bundles, protocol=pickle.HIGHEST_PROTOCOL))
        for k in range(n_shards):
            ops = [("place", pickle_vm(op[1]), op[2]) if op[0] == "place"
                   else op for op in self._ops[k]]
            self._send(k, ("ops", ops,
                           {name: bundles[name] for name in self._needs[k]},
                           want_state))

    def _route_records(self, records) -> None:
        """Route already-applied replica migrations (hourly controller
        steps, churn evacuations) as no-wake migration ops."""
        for record in records:
            k_src = self._shard_of_host[record.source]
            k_dst = self._shard_of_host[record.destination]
            if k_src == k_dst:
                self._ops[k_src].append(("mig", record.vm_name,
                                         record.destination))
            else:
                self._extracts[k_src].append(record.vm_name)
                self._needs[k_dst].add(record.vm_name)
                self._ops[k_dst].append(
                    ("insert", record.vm_name, record.destination,
                     record.source, record.duration_s))
                self._vm_shard[record.vm_name] = k_dst

    def _route_bulk(self, records) -> None:
        moves: list[list[dict]] = [[] for _ in self._shard_hosts]
        for record in records:
            k_src = self._shard_of_host[record.source]
            k_dst = self._shard_of_host[record.destination]
            if k_src != k_dst:
                self._extracts[k_src].append(record.vm_name)
                self._needs[k_dst].add(record.vm_name)
                self._vm_shard[record.vm_name] = k_dst
            moves[k_dst].append(record_as_dict(record))
        for k, shard_moves in enumerate(moves):
            if shard_moves:
                self._ops[k].append(("bulk", shard_moves))

    # ------------------------------------------------------------------
    # admin surface (the façade calls these; scenario churn drives them
    # during the hook barrier).  Each effect runs on the replica and is
    # captured as an op, so it also reaches the shard owning the host.
    # ------------------------------------------------------------------
    def rebind_fleet(self) -> None:
        self._bind_replica()

    def force_awake(self, host, now: float) -> None:
        # The replica half of HourlySimulator.force_awake (state + meter,
        # on the simulated clock); the owning shard replays it from a
        # "wake" op.
        if host.state is PowerState.SUSPENDED:
            at = host.meter_time(self._now)
            host.begin_resume(at)
            host.finish_resume(at, 0.0)
        self._ops[self._shard_of_host[host.name]].append(
            ("wake", host.name))

    def reinstate_check(self, host) -> None:
        pass  # the shards' hourly power step re-evaluates every host

    def note_vm_departed(self, vm_name: str) -> None:
        k = self._vm_shard.pop(vm_name, None)
        if k is not None:
            self._ops[k].append(("remove", vm_name))

    def evacuate_host(self, host, now: float, targets=None):
        before = len(self.dc.migrations)
        migrated, stranded = self.dc.evacuate(host, now, targets)
        self._route_records(self.dc.migrations[before:])
        return migrated, stranded

    def place_vm(self, vm, dest) -> None:
        self.dc.place(vm, dest)
        k = self._shard_of_host[dest.name]
        self._vm_shard[vm.name] = k
        # The VM object is pickled at flush time, after the tick's
        # remaining hooks finished mutating it (activity, rebinding).
        self._ops[k].append(("place", vm, dest.name))

    def power_off_host(self, host, now: float) -> None:
        host.power_off(host.meter_time(now))
        self._ops[self._shard_of_host[host.name]].append(
            ("power_off", host.name))

    def power_on_host(self, host, now: float) -> None:
        host.power_on(host.meter_time(now))
        self._ops[self._shard_of_host[host.name]].append(
            ("power_on", host.name))

    # ------------------------------------------------------------------
    # reduction
    # ------------------------------------------------------------------
    def _reduce(self, outcomes: list[dict], n_hours: int,
                migrations_before: int) -> RunResult:
        natives = [o["native"] for o in outcomes]
        owner = self._shard_of_host

        def per_host(field: str) -> dict:
            return {h.name: getattr(natives[owner[h.name]], field)[h.name]
                    for h in self.dc.hosts}

        return RunResult(
            hours=n_hours,
            controller_name=self.controller.name,
            backend="sharded",
            energy_kwh_by_host=per_host("energy_kwh_by_host"),
            suspended_fraction_by_host=per_host(
                "suspended_fraction_by_host"),
            suspend_cycles_by_host=per_host("suspend_cycles_by_host"),
            migrations=len(self.dc.migrations) - migrations_before,
            vm_migrations={vm.name: vm.migrations for vm in self.dc.vms},
            overload_host_hours=sum(r.overload_host_hours for r in natives),
            active_host_hours=sum(r.active_host_hours for r in natives))

    # ------------------------------------------------------------------
    def collect_fault_summary(self, injector):
        """Merge per-shard degradation accounting into one
        :class:`~repro.faults.spec.FaultSummary` (what ``finalize``
        returns on the sharded backend)."""
        from ...faults.spec import FaultSummary

        faults = [o["fault"] for o in (self._outcomes or [])]
        # Plain sum in replica fleet order — the same order (and the
        # same float rounding) the unsharded summary uses.
        unavailability_s = sum(
            faults[self._shard_of_host[h.name]]["crashed_s"][h.name]
            for h in self.dc.hosts)

        def total(key: str) -> int:
            return sum(f[key] for f in faults)

        return FaultSummary(
            plan=injector.plan.name,
            host_crashes=total("host_crashes"),
            host_recoveries=total("host_recoveries"),
            unavailability_s=unavailability_s)
