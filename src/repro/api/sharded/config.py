"""Configuration for the sharded distributed backend (DESIGN.md §15).

A :class:`ShardedConfig` says how many hourly-engine shards to
partition the fleet into and how many OS processes to spread the
shards over.  It is a frozen dataclass so a prepared config can be
shipped to spawn workers and compared for equality in tests.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ShardedConfig:
    """How to shard one simulation run across engines.

    ``shards`` is the number of fleet partitions (each runs a full
    hourly engine over its sub-fleet); ``workers`` the number of worker
    *processes* — ``0`` runs every shard as a thread of the calling
    process (deterministic, zero spawn cost, the default for tests),
    ``N > 0`` spreads shards round-robin over ``min(N, shards)``
    spawned processes for real parallelism.  Every shard runs the
    hourly engine; ``inner_config`` is its
    :class:`~repro.sim.hourly.HourlyConfig` (``None`` = the default).
    ``inner`` accepts only ``"hourly"``: request-level runs use
    ``backend="event"``.

    Crash safety (DESIGN.md §16): ``timeout_s`` bounds every
    coordinator read from a worker — a hung or dead worker raises
    :class:`~repro.resilience.ShardTimeoutError` /
    :class:`~repro.resilience.ShardCrashError` instead of blocking
    forever.  ``supervise`` (a
    :class:`~repro.resilience.SupervisorPolicy`) turns those failures
    into recovery: the worker pool is respawned from the last
    hour-boundary shard snapshots with exponential backoff, degrading
    to in-process threads when restarts are exhausted; results stay
    byte-identical either way.  ``chaos`` (a
    :class:`~repro.resilience.ShardChaos`) injects deterministic
    worker kills/hangs for testing that very path; it needs process
    workers to kill (``workers > 0``).
    """

    shards: int = 4
    inner: str = "hourly"
    inner_config: object | None = None
    workers: int = 0
    supervise: object | None = None
    timeout_s: float | None = None
    chaos: object | None = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.inner != "hourly":
            raise ValueError(
                f"the sharded backend runs the hourly engine only, got "
                f"inner={self.inner!r}; use backend=\"event\" for "
                "request-level runs")
        if self.inner_config is not None:
            from ...sim.hourly import HourlyConfig

            if not isinstance(self.inner_config, HourlyConfig):
                raise ValueError(
                    "inner_config must be a HourlyConfig, got "
                    f"{type(self.inner_config).__name__}; use "
                    "backend=\"event\" for request-level runs")
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(
                f"timeout_s must be positive, got {self.timeout_s}")
        if (self.chaos is not None and not self.chaos.is_zero
                and self.workers < 1):
            raise ValueError(
                "chaos kills/hangs worker processes; it needs workers >= 1 "
                "(threads cannot be killed)")
