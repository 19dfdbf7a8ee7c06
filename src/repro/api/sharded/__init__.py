"""Sharded distributed backend: one run, all cores.

Public surface: :class:`ShardedConfig` (the ``config`` payload
for ``backend="sharded"``) and :class:`ShardedCoordinator` (the engine
object the façade drives).  The coordinator import is lazy — it pulls
in the simulation engines, which this package's config-only consumers
(spec serialization, CLI listing) must not pay for.
"""

from .config import ShardedConfig

__all__ = ["ShardedConfig", "ShardedCoordinator"]


def __getattr__(name: str):
    if name == "ShardedCoordinator":
        from .coordinator import ShardedCoordinator

        return ShardedCoordinator
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
