"""The shard-side half of the sharded backend: the controller port.

Each shard runs a completely *unmodified* inner engine
(:class:`~repro.sim.event_driven.EventDrivenSimulation` or
:class:`~repro.sim.hourly.HourlySimulator`) over its sub-fleet.  The
engine believes it has a consolidation controller; what it actually
has is a :class:`ShardPort` — a stand-in that makes no decisions of
its own but speaks the coordinator's lockstep protocol at the
engine's own controller touchpoints:

* ``observe_hour(t)`` ships the shard's power-state digest (the
  coordinator's replica mirrors it before running the real
  controller);
* ``step(t, now)`` runs the consolidation exchange: the coordinator
  has already run the real controller against the global replica, and
  the port extracts departing VMs, ships them, and applies the op
  list (wakes, migrations, inserts) in global call order;
* the port's hour hook (the engine's only hook) ships a second digest
  — the hourly engine changes power states *between* consolidation
  and the hook — and runs the observer exchange (scenario churn,
  maintenance) the same way.

The port deliberately defines neither ``relocate_all`` nor
``host_can_sleep``: the engines feature-test those attributes, and
their absence routes every consolidation hour through ``step`` (the
exchange) while the replica-side real controller takes the
relocate-all path when configured.  All ops within one exchange share
one timestamp, so meter intervals between them are zero-length and
the per-shard replay order (global call order filtered to the shard)
is result-identical to the global order.
"""

from __future__ import annotations

import pickle

from ...cluster.migration import MigrationRecord
from ...core.calendar import time_of_hour
from .guard import WakingProbe
from .wire import pickle_vm, unpickle_vm


class ShardAborted(RuntimeError):
    """The coordinator told this shard to stop (error on another shard)."""


class ShardPort:
    """Controller stand-in wired to one coordinator endpoint."""

    def __init__(self, endpoint, controller_name: str,
                 uses_idleness: bool, shard_index: int = 0,
                 chaos=None) -> None:
        self._ep = endpoint
        #: Mirrors the real controller so shard-native results carry
        #: the same provenance as an unsharded run.
        self.name = controller_name
        #: The engines consult this to decide whether idleness models
        #: must be updated even when ``config.update_models`` is off.
        self.uses_idleness = uses_idleness
        self.engine = None
        self._shard_index = shard_index
        #: Deterministic process-chaos harness (DESIGN.md §16): fires
        #: kill/hang at the hour barrier, a replayable protocol point.
        self._chaos = chaos
        self._event = True
        self._update_models = True
        self._injector = None
        self._bundles: dict[str, dict] = {}
        self._population_changed = False
        self._want_state = False
        self._probe: WakingProbe | None = None

    def __getstate__(self) -> dict:
        # The endpoint is a live pipe/queue — the one part of the shard
        # graph that cannot travel in a snapshot.  The respawned worker
        # re-wires a fresh endpoint before continuing.
        state = self.__dict__.copy()
        state["_ep"] = None
        return state

    def attach(self, engine, inner: str, update_models: bool,
               injector=None) -> None:
        """Wire the port to its engine after engine construction (the
        engine needs the port first — chicken and egg)."""
        self.engine = engine
        self._event = inner == "event"
        self._update_models = update_models
        self._injector = injector
        if self._event:
            # The waking-plane guard: records the shard's organic
            # waking activity for the coordinator's locality checks
            # (the hourly inner has no waking plane).
            self._probe = WakingProbe(engine)

    # ------------------------------------------------------------------
    # controller protocol (called by the inner engine)
    # ------------------------------------------------------------------
    def observe_hour(self, hour_index: int) -> None:
        if self._chaos is not None:
            # Fire *before* the hour digest leaves: the coordinator has
            # received nothing for this hour yet, so recovery replays
            # from the previous boundary and the respawned shard
            # re-sends an identical digest.
            self._chaos.fire(self._shard_index, hour_index)
        self._ep.send(("hour", hour_index, self._digest(),
                       self.drain_probe()))

    def drain_probe(self) -> dict | None:
        """The waking records accumulated since the last boundary
        (``None`` from the hourly inner, which has no probe)."""
        return self._probe.drain() if self._probe is not None else None

    def step(self, hour_index: int, now: float | None = None,
             executor=None) -> int:
        if now is None:  # pragma: no cover - engines always pass now
            now = time_of_hour(hour_index)
        self._exchange(hour_index, now, consolidation=True)
        return 0

    def hook(self, hour_index: int, now: float) -> None:
        """The engine's hour hook: digest barrier + observer exchange."""
        self._ep.send(("hook", hour_index, self._digest()))
        self._exchange(hour_index, now, consolidation=False)
        if self._injector is not None and not self._event:
            # The hourly engine has no event queue for crash timers; the
            # shard-local injector fires them at the hook, exactly where
            # the plain hourly run fires them (observer order: churn ops
            # just applied, faults next).
            self._injector.on_hour(hour_index, now)
        if self._want_state:
            # Snapshot as the *last* action of the hour: churn ops and
            # fault timers above are inside the pickled state, so the
            # blob is exactly "hour complete" — the resume point.  The
            # probe's method wrappers are closures over live objects;
            # strip them around the pickle (recorded data stays).
            self._want_state = False
            if self._probe is not None:
                self._probe.unwrap()
            blob = pickle.dumps(self, pickle.HIGHEST_PROTOCOL)
            if self._probe is not None:
                self._probe.rewrap()
            self._ep.send(("state", blob))

    def _digest(self) -> list:
        return [h.state for h in self.engine.dc.hosts]

    # ------------------------------------------------------------------
    # the three-phase exchange
    # ------------------------------------------------------------------
    def _exchange(self, hour_index: int, now: float,
                  consolidation: bool) -> None:
        # The exchange's map surgery (extract drops, sidecar installs,
        # bulk refresh, force-awake drops) is mirrored exactly by the
        # coordinator — mute the probe so only organic activity is
        # recorded.  Host transitions stay recorded throughout: the
        # verifier needs them to reconstruct power states.
        if self._probe is not None:
            self._probe.muted = True
        try:
            self._exchange_body(hour_index, now, consolidation)
        finally:
            if self._probe is not None:
                self._probe.muted = False

    def _exchange_body(self, hour_index: int, now: float,
                       consolidation: bool) -> None:
        msg = self._recv()
        directives = msg[1]  # ("extract", [(vm_name, wake), ...])
        bundles = {name: self._extract(name, wake, now)
                   for name, wake in directives}
        self._ep.send(("bundles", bundles))
        msg = self._recv()  # ("ops", [op, ...], {bundles}, want_state?)
        ops = msg[1]
        self._bundles = msg[2]
        if len(msg) > 3 and msg[3]:
            self._want_state = True
        self._population_changed = bool(directives)
        inserted: list = []
        for op in ops:
            self._apply(op, now, inserted)
        if consolidation and self._update_models:
            # Consolidation-inserted VMs miss this tick's model update on
            # both shards (extracted before the source observed, absent
            # from the destination's binding): observe them here.  Safe —
            # nothing reads models between the engines' update step and
            # the hook.  Hook-time transfers (churn) were already
            # observed on their source shard this tick.
            for vm in inserted:
                vm.model.observe(hour_index, vm.current_activity)
        if self._population_changed:
            self.engine.rebind_fleet()
        self._bundles = {}

    def _recv(self):
        msg = self._ep.recv()
        if msg[0] == "abort":
            raise ShardAborted("coordinator aborted the run")
        return msg

    # ------------------------------------------------------------------
    # extraction (phase A): detach a departing VM, pack its sidecars
    # ------------------------------------------------------------------
    def _extract(self, vm_name: str, wake: bool, now: float) -> dict:
        engine = self.engine
        dc = engine.dc
        vm, host = dc.find_vm(vm_name)
        if wake and self._event:
            # Migration-triggered extraction wakes the source first,
            # exactly like the engine's own migration executor.
            engine._force_awake(host)
        dc.remove(vm, now)
        bundle: dict = {"vm": pickle_vm(vm)}
        if self._event:
            bundle["stream"] = engine._request_streams._streams.pop(
                vm_name, None)
            pending = engine.switch._pending
            bundle["pending"] = [r for r in pending if r.vm_name == vm_name]
            engine.switch._pending = [
                r for r in pending if r.vm_name != vm_name]
            # This hour's still-scheduled arrivals travel with the VM:
            # they would complete on the VM's new host in an unsharded
            # run.  Cancelled events are not counted by the kernel, so
            # events_processed is conserved across the transfer.
            arrivals = [ev for _, _, ev in engine.sim._heap
                        if not ev.cancelled
                        and ev.callback == engine._submit_generated
                        and ev.args and ev.args[0] == vm_name]
            arrivals.sort(key=lambda ev: (ev.time, ev.seq))
            bundle["arrivals"] = [(ev.time, ev.args[1]) for ev in arrivals]
            for ev in arrivals:
                ev.cancel()
            mac = engine.waking.active.state.vm_to_mac.get(vm.ip_address)
            bundle["waking_mac"] = mac
            bundle["ip"] = vm.ip_address
            kept = False
            if mac is not None:
                # Keep the entry while another local VM shares the IP —
                # plain's single global entry serves them all.  The
                # coordinator mirrors this decision from the bundle.
                kept = any(v.ip_address == vm.ip_address for v in dc.vms)
                if not kept:
                    engine.waking.note_vm_moved(vm.ip_address, None)
            bundle["kept"] = kept
            # Swallow any boundary straggler still referencing the name
            # (defensive; arrivals and pending were moved above).
            engine._departed_vms.add(vm_name)
        return bundle

    # ------------------------------------------------------------------
    # op application (phase B)
    # ------------------------------------------------------------------
    def _apply(self, op: tuple, now: float, inserted: list) -> None:
        kind = op[0]
        engine = self.engine
        dc = engine.dc
        if kind == "wake":
            self._wake(dc.host(op[1]), now)
        elif kind == "mig":
            vm, _ = dc.find_vm(op[1])
            dc.migrate(vm, dc.host(op[2]), now)
        elif kind == "exec-mig":
            vm, _ = dc.find_vm(op[1])
            engine._execute_migration(vm, dc.host(op[2]))
        elif kind == "insert":
            self._insert(op, now, inserted)
        elif kind == "bulk":
            self._apply_bulk(op[1], now, inserted)
        elif kind == "place":
            vm = unpickle_vm(op[1])
            dc.place(vm, dc.host(op[2]))
            if self._event:
                engine._departed_vms.discard(vm.name)
            self._population_changed = True
        elif kind == "remove":
            vm, _ = dc.find_vm(op[1])
            dc.remove(vm, now)
            if self._event:
                engine.note_vm_departed(op[1])
            self._population_changed = True
        elif kind == "power_off":
            host = dc.host(op[1])
            host.power_off(host.meter_time(now))
        elif kind == "power_on":
            host = dc.host(op[1])
            host.power_on(host.meter_time(now))
        elif kind == "reinstate":
            if self._event:
                engine._schedule_check(dc.host(op[1]),
                                       engine.params.suspend_check_period_s)
        else:  # pragma: no cover - protocol invariant
            raise ValueError(f"unknown shard op {kind!r}")

    def _wake(self, host, now: float) -> None:
        from ...cluster.power import PowerState

        if self._event:
            self.engine._force_awake(host)
        elif host.state is PowerState.SUSPENDED:
            # The hourly backend's force-awake: an immediate zero-grace
            # resume (matches HourlyBackend.force_awake).
            now = host.meter_time(now)
            host.begin_resume(now)
            host.finish_resume(now, 0.0)

    def _insert(self, op: tuple, now: float, inserted: list) -> None:
        _, vm_name, dest_name, src_name, duration, wake = op
        engine = self.engine
        dc = engine.dc
        bundle = self._bundles.pop(vm_name)
        vm = unpickle_vm(bundle["vm"])
        dest = dc.host(dest_name)
        if wake and self._event:
            engine._force_awake(dest)
        dest.sync_meter(dest.meter_time(now))
        dc.place(vm, dest)
        vm.migrations += 1
        dc.migrations.append(MigrationRecord(
            time=now, vm_name=vm_name, source=src_name,
            destination=dest_name, duration_s=duration))
        self._install_sidecars(vm, bundle)
        inserted.append(vm)
        self._population_changed = True

    def _install_sidecars(self, vm, bundle: dict) -> None:
        if not self._event:
            return
        engine = self.engine
        if bundle.get("stream") is not None:
            engine._request_streams._streams[vm.name] = bundle["stream"]
        engine.switch._pending.extend(bundle.get("pending", ()))
        for at, service in bundle.get("arrivals", ()):
            engine.sim.schedule_at(at, engine._submit_generated,
                                   vm.name, service)
        if bundle.get("waking_mac") is not None:
            engine.waking.note_vm_moved(vm.ip_address, bundle["waking_mac"])
        engine._departed_vms.discard(vm.name)

    def _apply_bulk(self, moves: list[dict], now: float,
                    inserted: list) -> None:
        """Relocate-all block: the shard's slice of a global
        re-assignment, mirroring ``DataCenter.apply_assignment`` —
        detach every locally moving VM first (swap-safe), then attach
        in global move order."""
        engine = self.engine
        dc = engine.dc
        dc.sync_meters(now)
        local: dict[str, object] = {}
        for mv in moves:
            name = mv["vm_name"]
            if name not in self._bundles:
                vm, _ = dc.find_vm(name)
                dc.remove(vm, now)
                local[name] = vm
        records = []
        for mv in moves:
            name = mv["vm_name"]
            vm = local.get(name)
            bundle = None
            if vm is None:
                bundle = self._bundles.pop(name)
                vm = unpickle_vm(bundle["vm"])
            dc.place(vm, dc.host(mv["destination"]))
            vm.migrations += 1
            record = MigrationRecord(
                time=mv["time"], vm_name=name, source=mv["source"],
                destination=mv["destination"], duration_s=mv["duration_s"])
            dc.migrations.append(record)
            records.append(record)
            if bundle is not None:
                self._install_sidecars(vm, bundle)
                inserted.append(vm)
                self._population_changed = True
        if self._event:
            engine._refresh_waking_after_bulk(records)
