"""The shard-side half of the sharded backend: the controller port.

Each shard runs a completely *unmodified*
:class:`~repro.sim.hourly.HourlySimulator` over its sub-fleet.  The
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
``host_can_sleep``: the engine feature-tests those attributes, and
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
        #: The engine consults this to decide whether idleness models
        #: must be updated even when ``config.update_models`` is off.
        self.uses_idleness = uses_idleness
        self.engine = None
        self._shard_index = shard_index
        #: Deterministic process-chaos harness (DESIGN.md §16): fires
        #: kill/hang inside the observer exchange, a replayable
        #: protocol point.
        self._chaos = chaos
        self._update_models = True
        self._injector = None
        self._bundles: dict[str, bytes] = {}
        self._population_changed = False
        self._want_state = False

    def __getstate__(self) -> dict:
        # The endpoint is a live pipe/queue — the one part of the shard
        # graph that cannot travel in a snapshot.  The respawned worker
        # re-wires a fresh endpoint before continuing.
        state = self.__dict__.copy()
        state["_ep"] = None
        return state

    def attach(self, engine, update_models: bool, injector=None) -> None:
        """Wire the port to its engine after engine construction (the
        engine needs the port first — chicken and egg)."""
        self.engine = engine
        self._update_models = update_models
        self._injector = injector

    # ------------------------------------------------------------------
    # controller protocol (called by the hourly engine)
    # ------------------------------------------------------------------
    def observe_hour(self, hour_index: int) -> None:
        self._ep.send(("hour", hour_index, self._digest()))

    def step(self, hour_index: int, now: float | None = None) -> int:
        if now is None:  # pragma: no cover - engines always pass now
            now = time_of_hour(hour_index)
        self._exchange(hour_index, now, consolidation=True)
        return 0

    def hook(self, hour_index: int, now: float) -> None:
        """The engine's hour hook: digest barrier + observer exchange."""
        self._ep.send(("hook", hour_index, self._digest()))
        self._exchange(hour_index, now, consolidation=False)
        if self._injector is not None:
            # The hourly engine has no event queue for crash timers; the
            # shard-local injector fires them at the hook, exactly where
            # the plain hourly run fires them (observer order: churn ops
            # just applied, faults next).
            self._injector.on_hour(hour_index, now)
        if self._want_state:
            # Snapshot as the *last* action of the hour: churn ops and
            # fault timers above are inside the pickled state, so the
            # blob is exactly "hour complete" — the resume point.
            self._want_state = False
            self._ep.send(("state",
                           pickle.dumps(self, pickle.HIGHEST_PROTOCOL)))

    def _digest(self) -> list:
        return [h.state for h in self.engine.dc.hosts]

    # ------------------------------------------------------------------
    # the three-phase exchange
    # ------------------------------------------------------------------
    def _exchange(self, hour_index: int, now: float,
                  consolidation: bool) -> None:
        departing = self._recv()[1]  # ("extract", [vm_name, ...])
        if not consolidation and self._chaos is not None:
            # The coordinator sent this message from inside its own hour
            # ``hour_index`` and cannot leave that hour without this
            # shard's bundles, so it detects a kill/hang here in exactly
            # this hour — and retires exactly this hour's entries.
            self._chaos.fire(self._shard_index, hour_index)
        self._ep.send(("bundles", {name: self._extract(name, now)
                                   for name in departing}))
        msg = self._recv()  # ("ops", [op, ...], {bundles}, want_state)
        ops = msg[1]
        self._bundles = msg[2]
        if msg[3]:
            self._want_state = True
        self._population_changed = bool(departing)
        inserted: list = []
        for op in ops:
            self._apply(op, now, inserted)
        if consolidation and self._update_models:
            # Consolidation-inserted VMs miss this tick's model update on
            # both shards (extracted before the source observed, absent
            # from the destination's binding): observe them here.  Safe —
            # nothing reads models between the engine's update step and
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

    def _extract(self, vm_name: str, now: float) -> bytes:
        """Phase A: detach a departing VM and pack it for the wire."""
        dc = self.engine.dc
        vm, _ = dc.find_vm(vm_name)
        dc.remove(vm, now)
        return pickle_vm(vm)

    # ------------------------------------------------------------------
    # op application (phase B)
    # ------------------------------------------------------------------
    def _apply(self, op: tuple, now: float, inserted: list) -> None:
        kind = op[0]
        dc = self.engine.dc
        if kind == "wake":
            self.engine.force_awake(dc.host(op[1]), now)
        elif kind == "mig":
            vm, _ = dc.find_vm(op[1])
            dc.migrate(vm, dc.host(op[2]), now)
        elif kind == "insert":
            self._insert(op, now, inserted)
        elif kind == "bulk":
            self._apply_bulk(op[1], now, inserted)
        elif kind == "place":
            dc.place(unpickle_vm(op[1]), dc.host(op[2]))
            self._population_changed = True
        elif kind == "remove":
            vm, _ = dc.find_vm(op[1])
            dc.remove(vm, now)
            self._population_changed = True
        elif kind == "power_off":
            host = dc.host(op[1])
            host.power_off(host.meter_time(now))
        elif kind == "power_on":
            host = dc.host(op[1])
            host.power_on(host.meter_time(now))
        else:  # pragma: no cover - protocol invariant
            raise ValueError(f"unknown shard op {kind!r}")

    def _insert(self, op: tuple, now: float, inserted: list) -> None:
        _, vm_name, dest_name, src_name, duration = op
        dc = self.engine.dc
        vm = unpickle_vm(self._bundles.pop(vm_name))
        dest = dc.host(dest_name)
        dest.sync_meter(dest.meter_time(now))
        dc.place(vm, dest)
        vm.migrations += 1
        dc.migrations.append(MigrationRecord(
            time=now, vm_name=vm_name, source=src_name,
            destination=dest_name, duration_s=duration))
        inserted.append(vm)
        self._population_changed = True

    def _apply_bulk(self, moves: list[dict], now: float,
                    inserted: list) -> None:
        """Relocate-all block: the shard's slice of a global
        re-assignment, mirroring ``DataCenter.apply_assignment`` —
        detach every locally moving VM first (swap-safe), then attach
        in global move order."""
        dc = self.engine.dc
        dc.sync_meters(now)
        local: dict[str, object] = {}
        for mv in moves:
            name = mv["vm_name"]
            if name not in self._bundles:
                vm, _ = dc.find_vm(name)
                dc.remove(vm, now)
                local[name] = vm
        for mv in moves:
            name = mv["vm_name"]
            vm = local.get(name)
            if vm is None:
                vm = unpickle_vm(self._bundles.pop(name))
                inserted.append(vm)
                self._population_changed = True
            dc.place(vm, dc.host(mv["destination"]))
            vm.migrations += 1
            dc.migrations.append(MigrationRecord(
                time=mv["time"], vm_name=name, source=mv["source"],
                destination=mv["destination"], duration_s=mv["duration_s"]))
