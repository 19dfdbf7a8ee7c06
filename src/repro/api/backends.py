"""The backend registry: the two simulation engines behind one façade.

A backend adapter owns everything engine-specific the
:class:`~repro.api.Simulation` façade needs: the config dataclass, seed
threading, engine construction, and the small administrative surface
scenario churn uses (force-awake, check reinstatement, departed-VM
notice).  New engines (async, distributed) plug in by registering an
adapter — no consumer changes.

Like the controller factories, the adapters import their engine module
lazily (inside ``config_type``/``build``) so ``import repro`` stays
light — the full event-driven stack (network, waking, suspend modules)
only loads when an event simulation is actually constructed.
"""

from __future__ import annotations

from dataclasses import replace

from ..cluster.power import PowerState
from ..core.params import DrowsyParams
from .registry import Registry

#: Name -> backend adapter.
backends: Registry = Registry("backend")


class _DirectFleetAdmin:
    """Fleet administration for single-engine backends: the effects run
    straight on the engine's (only) data center."""

    def evacuate_host(self, engine, host, now: float, targets=None):
        return engine.dc.evacuate(host, now, targets)

    def place_vm(self, engine, vm, dest) -> None:
        engine.dc.place(vm, dest)

    def power_off_host(self, engine, host, now: float) -> None:
        host.power_off(host.meter_time(now))

    def power_on_host(self, engine, host, now: float) -> None:
        host.power_on(host.meter_time(now))


class HourlyBackend(_DirectFleetAdmin):
    """The analytic hour-resolution engine (DESIGN.md §3)."""

    name = "hourly"

    @property
    def config_type(self):
        from ..sim.hourly import HourlyConfig

        return HourlyConfig

    def prepare_config(self, config, seed: int | None):
        # The hourly engine draws no randomness at run time (fleets are
        # seeded at build time), so a seed is accepted for signature
        # uniformity and ignored.
        return config if config is not None else self.config_type()

    def build(self, dc, controller, params: DrowsyParams, config,
              hour_hooks: tuple):
        from ..sim.hourly import HourlySimulator

        return HourlySimulator(dc, controller, params, config,
                               hour_hooks=hour_hooks)

    # -- administrative surface (scenario churn) -----------------------
    def force_awake(self, engine, host, now: float) -> None:
        """Administrative wake at hour resolution: zero-latency resume,
        no grace (matches the event engine's ``_force_awake``)."""
        if host.state is PowerState.SUSPENDED:
            now = host.meter_time(now)
            host.begin_resume(now)
            host.finish_resume(now, 0.0)

    def reinstate_check(self, engine, host) -> None:
        pass  # the hourly power step re-evaluates every host each hour

    def note_vm_departed(self, engine, vm_name: str) -> None:
        pass  # no scheduled per-VM events to swallow


class EventBackend(_DirectFleetAdmin):
    """The request-level event-driven engine (DESIGN.md §3, §10)."""

    name = "event"

    @property
    def config_type(self):
        from ..sim.event_driven import EventConfig

        return EventConfig

    def prepare_config(self, config, seed: int | None):
        if config is None:
            cls = self.config_type
            return cls() if seed is None else cls(seed=seed)
        if seed is not None and config.seed != seed:
            return replace(config, seed=seed)
        return config

    def build(self, dc, controller, params: DrowsyParams, config,
              hour_hooks: tuple):
        from ..sim.event_driven import EventDrivenSimulation

        return EventDrivenSimulation(dc, controller, params, config,
                                     hour_hooks=hour_hooks)

    # -- administrative surface (scenario churn) -----------------------
    def force_awake(self, engine, host, now: float) -> None:
        engine._force_awake(host)  # uses the event clock, not ``now``

    def reinstate_check(self, engine, host) -> None:
        engine._schedule_check(host, engine.params.suspend_check_period_s)

    def note_vm_departed(self, engine, vm_name: str) -> None:
        engine.note_vm_departed(vm_name)


class ShardedBackend:
    """One hourly run partitioned across per-shard engines (DESIGN.md §15).

    The fleet is split by a stable hash of the host name; each shard
    runs an unmodified hourly engine over its sub-fleet while the
    coordinator drives the real controller and the observers against a
    global replica, replaying their side effects into the owning
    shards.  Results are bit-identical to the ``hourly`` backend for
    every shard/worker count — asserted by the sharded parity suite.
    The administrative surface routes through the coordinator's op
    capture: churn effects must reach both the replica and the shard
    that owns the touched host.
    """

    name = "sharded"

    @property
    def config_type(self):
        from .sharded import ShardedConfig

        return ShardedConfig

    def prepare_config(self, config, seed: int | None):
        # Hourly shards draw no randomness; the seed is ignored, as on
        # the hourly backend.
        return config if config is not None else self.config_type()

    def build(self, dc, controller, params: DrowsyParams, config,
              hour_hooks: tuple):
        from .sharded.coordinator import ShardedCoordinator

        return ShardedCoordinator(dc, controller, params, config,
                                  hour_hooks=hour_hooks)

    # -- administrative surface (scenario churn) -----------------------
    def force_awake(self, engine, host, now: float) -> None:
        engine.force_awake(host, now)

    def reinstate_check(self, engine, host) -> None:
        pass  # the shards' hourly power step re-evaluates every host

    def note_vm_departed(self, engine, vm_name: str) -> None:
        engine.note_vm_departed(vm_name)

    def evacuate_host(self, engine, host, now: float, targets=None):
        return engine.evacuate_host(host, now, targets)

    def place_vm(self, engine, vm, dest) -> None:
        engine.place_vm(vm, dest)

    def power_off_host(self, engine, host, now: float) -> None:
        engine.power_off_host(host, now)

    def power_on_host(self, engine, host, now: float) -> None:
        engine.power_on_host(host, now)


backends.register("hourly", HourlyBackend())
backends.register("event", EventBackend())
backends.register("sharded", ShardedBackend())
