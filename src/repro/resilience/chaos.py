"""Seed-deterministic process chaos: kill or hang workers on cue.

The supervision path (``repro.resilience.supervisor``) must itself be
testable, which needs *reproducible* process failures: not "kill a
random pid sometime", but "shard 2's worker dies the moment it reaches
hour 5" — every run, every machine.  Two harnesses provide that:

* :class:`ShardChaos` rides a :class:`~repro.api.sharded.ShardedConfig`
  into the sharded backend's workers.  The shard port fires it inside
  each hour's observer exchange, so a kill or hang lands at a protocol
  point the coordinator can replay from — and the run's result is
  byte-identical to an undisturbed run.
* :class:`ChaosKill` + :func:`run_chaos_cell` wrap a sweep cell: the
  wrapped cell SIGKILLs its own worker process the *first* time it
  runs (a sentinel file in ``dir`` makes the kill fire-once across the
  respawned pool), exercising ``supervised_map``'s retry path.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class ShardChaos:
    """Deterministic worker failures for the sharded backend.

    ``kill_worker_at_hour`` / ``hang_worker_at_hour`` are tuples of
    ``(shard, hour)`` pairs: when the named shard enters the named
    hour's observer exchange it SIGKILLs its own worker process (taking
    down every shard co-located in it) or sleeps ``hang_s`` seconds —
    longer than any sane transport deadline, so the coordinator's
    timeout path fires.  The coordinator is inside that same hour until
    the exchange lands, so it detects the loss there and strips entries
    at or before that hour from the respawned setups: each failure
    fires at most once.  Shards degraded to in-process threads run
    without chaos.
    """

    kill_worker_at_hour: tuple = ()
    hang_worker_at_hour: tuple = ()
    hang_s: float = 3600.0

    def __post_init__(self) -> None:
        for name in ("kill_worker_at_hour", "hang_worker_at_hour"):
            entries = tuple(
                (int(s), int(h)) for s, h in getattr(self, name))
            object.__setattr__(self, name, entries)

    @property
    def is_zero(self) -> bool:
        return not (self.kill_worker_at_hour or self.hang_worker_at_hour)

    def surviving(self, hour: int) -> "ShardChaos":
        """The entries still to fire after a recovery at ``hour``."""
        return ShardChaos(
            kill_worker_at_hour=tuple(
                e for e in self.kill_worker_at_hour if e[1] > hour),
            hang_worker_at_hour=tuple(
                e for e in self.hang_worker_at_hour if e[1] > hour),
            hang_s=self.hang_s)

    def fire(self, shard: int, hour: int) -> None:
        """Called by the shard port in each hour's observer exchange."""
        if (shard, hour) in self.kill_worker_at_hour:
            os.kill(os.getpid(), signal.SIGKILL)
        if (shard, hour) in self.hang_worker_at_hour:
            time.sleep(self.hang_s)


@dataclass(frozen=True)
class ChaosKill:
    """Fire-once self-SIGKILL for sweep-cell chaos.

    ``maybe_fire`` atomically creates ``<dir>/<tag>.fired``; the
    creator kills its own process, later attempts (the respawned
    worker re-running the cell) see the sentinel and run through.
    """

    dir: str
    tag: str = "chaos"

    @property
    def sentinel(self) -> Path:
        return Path(self.dir) / f"{self.tag}.fired"

    def maybe_fire(self) -> None:
        self.sentinel.parent.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(self.sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return
        os.close(fd)
        os.kill(os.getpid(), signal.SIGKILL)


@dataclass(frozen=True)
class ChaosCell:
    """A sweep cell plus the chaos that greets its first execution."""

    cell: object
    kill: ChaosKill | None = None
    #: Extra pre-kill delay; lets hang-style tests exceed a deadline.
    sleep_s: float = 0.0
    runner: object = field(default=None)


def run_chaos_cell(chaos_cell: ChaosCell):
    """Run one wrapped sweep cell (top-level so spawn workers can
    pickle it); fires the chaos first, then delegates to the real cell
    runner (``repro.sim.sweep.run_cell`` by default)."""
    if chaos_cell.sleep_s > 0.0:
        time.sleep(chaos_cell.sleep_s)
    if chaos_cell.kill is not None:
        chaos_cell.kill.maybe_fire()
    runner = chaos_cell.runner
    if runner is None:
        from ..sim.sweep import run_cell as runner
    return runner(chaos_cell.cell)
