"""The backend registry: the two simulation engines behind one façade.

A backend adapter is a config type and a builder: the config
dataclass, seed threading and engine construction the
:class:`~repro.api.Simulation` façade needs.  The administrative
surface scenario churn uses (force-awake, check reinstatement,
departed-VM notice, drains, placement, power) lives on the engines
themselves, which the façade calls directly.  New engines plug in by
registering an adapter — no consumer changes.

Like the controller factories, the adapters import their engine module
lazily (inside ``config_type``/``build``) so ``import repro`` stays
light — the full event-driven stack (network, waking, suspend modules)
only loads when an event simulation is actually constructed.
"""

from __future__ import annotations

from dataclasses import replace

from ..core.params import DrowsyParams
from .registry import Registry

#: Name -> backend adapter.
backends: Registry = Registry("backend")


class HourlyBackend:
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


class EventBackend:
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


class ShardedBackend:
    """One hourly run partitioned across per-shard engines (DESIGN.md §15).

    The fleet is split by a stable hash of the host name; each shard
    runs an unmodified hourly engine over its sub-fleet while the
    coordinator drives the real controller and the observers against a
    global replica, replaying their side effects into the owning
    shards.  Results are bit-identical to the ``hourly`` backend for
    every shard/worker count — asserted by the sharded parity suite.
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


backends.register("hourly", HourlyBackend())
backends.register("event", EventBackend())
backends.register("sharded", ShardedBackend())
