"""Deterministic checkpoint/resume for simulation runs.

A checkpoint is the *entire* simulation object graph — the
:class:`~repro.api.Simulation` façade with its engine, data center,
controller, observers, fault injector, RNG streams, event heap and
timer wheel — pickled at an hour boundary (the one quiescent point of
both engines: the hour hooks are the last statement of hour
processing, and nothing is in flight between hours).  Because every
piece of runtime state is part of that graph, a resumed run replays
the remaining hours through exactly the code path of an uninterrupted
one, and the repo's signature guarantee extends across the crash:
**the resumed ``RunResult`` is byte-identical to the uninterrupted
run's** (asserted by ``tests/test_resilience.py``).

The on-disk format is versioned and self-validating::

    pickle({"magic": "repro-ckpt", "version": 1,
            "meta": {...provenance...},
            "digest": blake2b(payload).hexdigest(),
            "payload": <pickled Simulation>})

``meta`` is readable without touching the payload (``list_checkpoints``
never unpickles simulation state); the digest catches truncation and
bit rot before any resume is attempted; writes go through
:func:`~repro.resilience.io.atomic_target`, so a crash mid-write never
corrupts an earlier checkpoint.  Loading refuses unknown versions —
the format can evolve without silently misreading old files.
"""

from __future__ import annotations

import hashlib
import pickle
import time
from dataclasses import dataclass, replace
from pathlib import Path

from ..obs.log import get_logger
from .io import atomic_write_bytes

log = get_logger("resilience.checkpoint")

#: On-disk format version; bump on any incompatible layout change
#: (2: host meters became rows of the data center's meter bank;
#: 3: monthly/yearly idleness scales became touched-day slabs;
#: 4: a replicated waking pair shares one state object;
#: 5: the churn injector holds the façade instead of eight callables,
#: and both engines carry the shared hour state of one base class;
#: 6: a data center holds its hosts' static columns, and a fleet
#: binding leaves its horizon matrix out;
#: 7: a VM builds its idleness model on first read, and the monthly and
#: yearly slabs are stored day-major;
#: 8: a data center keeps an address index, and the arrival stream's
#: consumer takes slices).
CHECKPOINT_VERSION = 8
_MAGIC = "repro-ckpt"
#: Checkpoint filename suffix (what discovery globs for).
CHECKPOINT_SUFFIX = ".ckpt"


class CheckpointError(RuntimeError):
    """A checkpoint file is missing, corrupt, or from another world."""


@dataclass(frozen=True)
class CheckpointPolicy:
    """When and where to checkpoint a run.

    ``every_h`` counts simulated hours between snapshots; ``keep``
    bounds how many files stay on disk (0 = keep all); ``label``
    prefixes the filenames, so several runs can share a directory.
    """

    dir: str
    every_h: int = 1
    keep: int = 0
    label: str = "run"

    def __post_init__(self) -> None:
        if self.every_h < 1:
            raise ValueError(f"every_h must be >= 1, got {self.every_h}")
        if self.keep < 0:
            raise ValueError(f"keep must be >= 0, got {self.keep}")


#: Process-wide default policy (CLI wiring): ``--checkpoint-dir`` on
#: ``python -m repro run``/``scenario run`` installs one here so every
#: simulation the experiment builds checkpoints itself, without
#: threading a parameter through each experiment module.
_default_policy: CheckpointPolicy | None = None
_default_attached = 0


def set_default_policy(policy: CheckpointPolicy | None) -> None:
    """Install (or clear, with ``None``) the process default policy.

    A :class:`~repro.api.Simulation` constructed with
    ``checkpoint=None`` picks the default up via
    :func:`take_default_policy`.  Spawned worker processes import the
    package fresh and therefore never inherit it — sweep cells stay
    checkpoint-free unless journaled at the sweep level.
    """
    global _default_policy, _default_attached
    _default_policy = policy
    _default_attached = 0


def take_default_policy() -> CheckpointPolicy | None:
    """The default policy for the next simulation, label-uniquified
    (``run``, ``run-2``, ``run-3``, …) so the several runs one command
    may start never overwrite each other's snapshot files."""
    global _default_attached
    if _default_policy is None:
        return None
    _default_attached += 1
    if _default_attached == 1:
        return _default_policy
    return replace(_default_policy,
                   label=f"{_default_policy.label}-{_default_attached}")


@dataclass
class Checkpoint:
    """One versioned, digest-protected snapshot of a running simulation."""

    meta: dict
    payload: bytes
    digest: str
    version: int = CHECKPOINT_VERSION

    @classmethod
    def capture(cls, sim, hour: int, start_hour: int,
                n_hours: int) -> "Checkpoint":
        """Snapshot ``sim`` just after hour ``hour`` completed."""
        payload = pickle.dumps(sim, protocol=pickle.HIGHEST_PROTOCOL)
        meta = {
            "hour": hour,
            "next_hour": hour + 1,
            "start_hour": start_hour,
            "n_hours": n_hours,
            "backend": sim.backend_name,
            "controller": getattr(sim.controller, "name", "?"),
            "hosts": len(sim.dc.hosts),
            "vms": len(sim.dc.vms),
        }
        return cls(meta=meta,
                   payload=payload,
                   digest=hashlib.blake2b(payload).hexdigest())

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        atomic_write_bytes(path, pickle.dumps(
            {"magic": _MAGIC, "version": self.version, "meta": self.meta,
             "digest": self.digest, "payload": self.payload},
            protocol=pickle.HIGHEST_PROTOCOL))
        return path

    @classmethod
    def load(cls, path: str | Path, verify: bool = True) -> "Checkpoint":
        path = Path(path)
        try:
            wrapper = pickle.loads(path.read_bytes())
        except FileNotFoundError:
            raise CheckpointError(f"no checkpoint at {path}") from None
        except Exception as exc:
            raise CheckpointError(
                f"{path} is not a readable checkpoint: {exc}") from exc
        if not isinstance(wrapper, dict) or wrapper.get("magic") != _MAGIC:
            raise CheckpointError(f"{path} is not a repro checkpoint")
        if wrapper.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"{path} has checkpoint format "
                f"{wrapper.get('version')!r}; this build reads "
                f"{CHECKPOINT_VERSION}")
        ckpt = cls(meta=wrapper["meta"], payload=wrapper["payload"],
                   digest=wrapper["digest"], version=wrapper["version"])
        if verify:
            actual = hashlib.blake2b(ckpt.payload).hexdigest()
            if actual != ckpt.digest:
                raise CheckpointError(
                    f"{path} failed its digest check (stored "
                    f"{ckpt.digest[:12]}…, payload hashes to "
                    f"{actual[:12]}…): truncated or corrupt")
        return ckpt

    def restore(self):
        """Unpickle the simulation, marked to continue where it stopped."""
        sim = pickle.loads(self.payload)
        sim._resuming = True
        return sim


@dataclass(frozen=True)
class CheckpointInfo:
    """Cheap listing entry: provenance without unpickling any state."""

    path: Path
    meta: dict

    def describe(self) -> str:
        m = self.meta
        return (f"{self.path.name:<24} hour {m.get('hour', '?'):>4} / "
                f"{m.get('n_hours', '?'):<4} {m.get('backend', '?'):<8} "
                f"{m.get('controller', '?'):<12} "
                f"{m.get('hosts', '?')} hosts, {m.get('vms', '?')} VMs")


def list_checkpoints(directory: str | Path) -> list[CheckpointInfo]:
    """Resumable checkpoints under ``directory``, oldest first."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    infos = []
    for path in sorted(directory.glob(f"*{CHECKPOINT_SUFFIX}")):
        try:
            info = CheckpointInfo(
                path=path, meta=Checkpoint.load(path, verify=False).meta)
        except CheckpointError:
            continue
        infos.append(info)
    infos.sort(key=lambda i: (i.meta.get("hour", -1), str(i.path)))
    return infos


def latest_checkpoint(directory: str | Path) -> Path:
    """The most advanced checkpoint in ``directory`` (for resume)."""
    infos = list_checkpoints(directory)
    if not infos:
        raise CheckpointError(f"no checkpoints under {directory}")
    return infos[-1].path


class CheckpointManager:
    """The observer that writes checkpoints at hour boundaries.

    Attached by ``Simulation(..., checkpoint=...)`` as the *last*
    observer, so the snapshot of hour ``t`` includes every mutation
    the other observers (scenario churn, fault injector) made at
    ``t``.  On the in-process backends the manager pickles the façade
    directly; the sharded coordinator exposes ``request_checkpoint``
    instead — it must first collect the per-shard engine snapshots
    (the hour's last protocol messages) before the graph is complete.
    """

    #: The manager keys ``due()`` off the simulated hour alone, but a
    #: resumed run re-derives ``_start_hour`` from the snapshot, and
    #: capture must never see a wall-clock time in the graph it pickles
    #: (repro.api.observers).
    wants_sim_time = True

    def __init__(self, policy: CheckpointPolicy | str | Path) -> None:
        if isinstance(policy, (str, Path)):
            policy = CheckpointPolicy(dir=str(policy))
        self.policy = policy
        self._sim = None
        self._start_hour = 0
        self._n_hours = 0
        #: Path of the newest checkpoint written this run.
        self.last_path: Path | None = None
        #: Checkpoints written this run (benchmarks read this).
        self.written = 0
        #: Bytes and wall seconds spent writing them (telemetry reads
        #: these; DESIGN.md §17).
        self.bytes_written = 0
        self.write_wall_s = 0.0

    # -- observer protocol -------------------------------------------------
    def on_run_start(self, sim, start_hour: int, n_hours: int) -> None:
        self._sim = sim
        self._start_hour = start_hour
        self._n_hours = n_hours
        Path(self.policy.dir).mkdir(parents=True, exist_ok=True)

    def on_hour(self, t: int, now: float) -> None:
        if self._sim is None or not self.due(t):
            return
        request = getattr(self._sim.engine, "request_checkpoint", None)
        if request is not None:
            request(self, t)
        else:
            self.write_checkpoint(t)

    def on_run_end(self, result) -> None:
        pass

    # ----------------------------------------------------------------------
    def bind(self, sim) -> None:
        """Late attachment (scenario-compiled simulations)."""
        self._sim = sim

    def due(self, t: int) -> bool:
        return (t - self._start_hour + 1) % self.policy.every_h == 0

    def write_checkpoint(self, t: int) -> Path:
        started = time.perf_counter()
        ckpt = Checkpoint.capture(self._sim, hour=t,
                                  start_hour=self._start_hour,
                                  n_hours=self._n_hours)
        path = (Path(self.policy.dir)
                / f"{self.policy.label}-h{t + 1:05d}{CHECKPOINT_SUFFIX}")
        ckpt.save(path)
        self.last_path = path
        self.written += 1
        self.bytes_written += path.stat().st_size
        self.write_wall_s += time.perf_counter() - started
        log.debug("checkpoint hour %d -> %s", t, path)
        self._prune()
        return path

    def _prune(self) -> None:
        keep = self.policy.keep
        if keep <= 0:
            return
        mine = sorted(Path(self.policy.dir).glob(
            f"{self.policy.label}-h*{CHECKPOINT_SUFFIX}"))
        for stale in mine[:-keep]:
            stale.unlink(missing_ok=True)
