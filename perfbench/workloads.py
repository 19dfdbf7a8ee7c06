"""The benchmark's workloads and the checks on their outputs.

Every workload builds its inputs from the benchmark seed alone and runs
its simulations through the public :class:`repro.api.Simulation`
façade.  The load is a closed loop: one process runs one simulation at
a time.

``hourly-week``
    ``build_fleet(1024 hosts, 4096 VMs, 50 % LLMI, 168 h)`` on the hourly
    backend with the ``drowsy`` controller: the paper's fleet-scale
    energy sweep.  The fleet is packed (four 8 GB VMs fill a 32 GB host),
    so consolidation evaluates every hour but migrates nothing.
    Exercises ``sim``, ``core`` (fleet binding), ``cluster`` (meters,
    invariants) and ``consolidation.step``.  Bypasses the event kernel,
    suspend sweeps, the request and waking planes, checkpoints and
    sharding: an event-engine change must leave it unchanged.  Its
    traced pass also runs ``sharded-week`` (below), which measures
    ``api.sharded``.
``event-day``
    The same fleet shape at 128 hosts / 512 VMs on the event backend
    for 24 h: the paper's request-level "real environment" (section
    VI-A).  Half the 1024-VM bench fleet, so that a run fits enough
    repetitions to filter the host's noise out of hours that each take
    a few hundred milliseconds.  The fleet seed is fixed (7); the
    benchmark seed drives the request traffic, which keeps the work
    within 0.3 % across seeds (a seeded fleet moves it by 9 %).  The
    only workload that exercises ``cluster.events``, ``suspend``
    sweeps, ``network`` and ``waking``.  Consolidation takes under 1 %
    of its wall, so a consolidation change should not move it.
``scenario-churn``
    Built-in scenario ``maintenance-with-crashes`` (8 hosts, 24 VMs,
    168 h, hourly backend) with a checkpoint every 24 h, run for three
    scenario seeds derived from the benchmark seed: one instance's cost
    moves by about 15 % with its seed (``relocate_all``'s local
    search), three average that down.  ``drowsy`` runs in
    ``relocate_all`` mode, so consolidation *writes* placement
    (re-placement, maintenance drains, crash evacuation).  The only
    workload that exercises ``scenarios``, ``faults`` and
    ``resilience``.  Bypasses the event kernel and sharding.
``sharded-week`` (a companion run, not a workload of its own)
    The ``hourly-week`` inputs on ``backend="sharded"`` with
    ``ShardedConfig(shards=2, inner="hourly", workers=2)``: spawned
    workers and the hour exchange.  Its wall against ``hourly-week``'s
    (``sharded.overhead_x``) is the number the sharded backend is kept
    or deleted on.  At 35 s a run it would take a quarter of the
    benchmark's time budget as a workload, so only the traced pass of
    ``hourly-week`` runs it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Workload:
    name: str
    backend: str
    #: ``(seed, workdir, traced) -> [Simulation, ...]``, run in order;
    #: the inputs are a pure function of ``seed``.
    build: Callable
    hours: int
    #: A run on another backend that the traced pass adds; its results
    #: must equal this workload's except for the ``backend`` field.
    companion: str | None = None


def _fleet(n_hosts: int, n_vms: int, hours: int, seed: int):
    from repro.experiments.common import build_fleet

    return build_fleet(n_hosts=n_hosts, n_vms=n_vms, llmi_fraction=0.5,
                       hours=hours, seed=seed)


def _hourly_week(seed: int, workdir: Path, traced: bool):
    from repro.api import Simulation

    return [Simulation(_fleet(1024, 4096, 168, seed), "drowsy", "hourly",
                       seed=seed)]


#: The standard bench fleet of the event workload.
EVENT_FLEET_SEED = 7


def _event_day(seed: int, workdir: Path, traced: bool):
    from repro.api import Simulation

    return [Simulation(_fleet(128, 512, 24, EVENT_FLEET_SEED), "drowsy",
                       "event", seed=seed)]


#: Scenario seeds on which ``maintenance-with-crashes`` runs to its end.
#: The others in 0-59 raise "time went backwards": the hourly engine
#: charges a suspending host's meter a few seconds past the hour
#: boundary, then a maintenance drain at that boundary migrates a VM
#: onto the host.  The benchmark seed picks among these.
SCENARIO_SEEDS = tuple(s for s in range(60)
                       if s not in (3, 6, 10, 11, 21, 23, 43, 45, 51))
#: Scenario instances per repetition.
SCENARIO_INSTANCES = 3


def _scenario_churn(seed: int, workdir: Path, traced: bool):
    from repro.api import Simulation
    from repro.resilience import CheckpointPolicy

    return [Simulation.from_scenario(
        "maintenance-with-crashes",
        seed=SCENARIO_SEEDS[(SCENARIO_INSTANCES * seed + k)
                            % len(SCENARIO_SEEDS)],
        backend="hourly",
        checkpoint=CheckpointPolicy(dir=str(workdir / f"instance{k}"),
                                    every_h=24))
        for k in range(SCENARIO_INSTANCES)]


def _sharded_week(seed: int, workdir: Path, traced: bool):
    from repro.api import ShardedConfig, Simulation, TelemetryConfig

    # Metrics sampling only in the traced pass: it is what carries the
    # coordinator's exchange counters out of the run.
    return [Simulation(_fleet(1024, 4096, 168, seed), "drowsy", "sharded",
                       seed=seed,
                       config=ShardedConfig(shards=2, inner="hourly",
                                            workers=2),
                       telemetry=(TelemetryConfig(metrics=True)
                                  if traced else None))]


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("hourly-week", "hourly", _hourly_week, 168,
             companion="sharded-week"),
    Workload("event-day", "event", _event_day, 24),
    Workload("scenario-churn", "hourly", _scenario_churn, 168),
    Workload("sharded-week", "sharded", _sharded_week, 168),
)}


class HourClock:
    """An observer noting the wall instant of the run's start, of every
    hour boundary (``on_hour``) and of the run's end.

    Pickles empty, so the checkpoints it rides in carry no wall clock.
    """

    wants_sim_time = False

    def __init__(self) -> None:
        self.marks: list[float] = []

    def __getstate__(self) -> dict:
        return {}

    def __setstate__(self, state: dict) -> None:
        self.marks = []

    def on_run_start(self, sim, start_hour: int, n_hours: int) -> None:
        self.marks = [time.perf_counter()]

    def on_hour(self, t: int, now: float) -> None:
        self.marks.append(time.perf_counter())

    def on_run_end(self, result) -> None:
        self.marks.append(time.perf_counter())

    def attach(self, sim) -> "HourClock":
        """Join ``sim``'s observers last, the way
        ``Simulation.attach_checkpointer`` joins a late checkpointer."""
        from repro.api.observers import hour_hook

        sim.observers += (self,)
        sim.engine.hour_hooks = (tuple(sim.engine.hour_hooks)
                                 + (hour_hook(self),))
        return self

    def segments(self) -> list[float]:
        """Wall seconds of run start to first boundary, boundary to
        boundary, and last boundary to run end."""
        return [b - a for a, b in zip(self.marks, self.marks[1:])]


def digest(results, skip: tuple[str, ...] = ("telemetry",)) -> str:
    """blake2b over every field except ``skip`` of each ``RunResult``.

    ``repr`` keeps floats to their last bit and dicts in fleet order,
    so equal digests mean field-by-field equal results.
    """
    h = hashlib.blake2b(digest_size=16)
    for result in results:
        for f in dataclasses.fields(result):
            if f.name not in skip:
                h.update(f"{f.name}={getattr(result, f.name)!r};".encode())
    return h.hexdigest()


def mid_checkpoint(workdir: Path) -> Path:
    """The checkpoint nearest the middle of the run.  Resuming from the
    last one would test nothing: it is written at the final hour."""
    from repro.resilience import list_checkpoints

    infos = list_checkpoints(workdir)
    if len(infos) < 3:
        raise RuntimeError(
            f"expected several checkpoints under {workdir}, found "
            f"{len(infos)}")
    return infos[len(infos) // 2].path
