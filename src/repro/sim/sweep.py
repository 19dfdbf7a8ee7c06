"""Sharded multi-core sweep runner (DESIGN.md §9).

The §VI-B-style scalability experiments are embarrassingly parallel:
every (controller × fleet size × seed) cell is an independent
simulation over its own data center.  :class:`SweepRunner` shards those
cells across worker processes — ``multiprocessing`` *spawn* context,
one fleet binding per worker — and reduces the results into a single
tidy :class:`SweepTable`.

Determinism is a hard requirement: a run sharded over N workers must
produce a table **byte-identical** to the serial run.  Three properties
make that hold (and are asserted by ``tests/test_sweep.py``):

* every cell is fully specified by its :class:`SweepCell` (fleet
  builder seed, controller name, horizon) and builds all of its state
  inside the worker;
* nothing in the simulation depends on per-process salt — host MACs and
  VM IPs derive from stable blake2b digests, not the salted builtin
  ``hash()`` (PYTHONHASHSEED varies across spawned workers);
* ``Pool.map`` preserves task order, and floats are serialized with
  ``repr`` (shortest round-trip form).
"""

from __future__ import annotations

import csv
import io
import os
import sqlite3
import time
from dataclasses import dataclass, fields
from multiprocessing import get_context
from pathlib import Path

from ..api.controllers import SWEEP_CONTROLLERS
from ..core.params import DEFAULT_PARAMS, DrowsyParams
from ..obs.log import get_logger
from ..resilience.io import atomic_target, atomic_write_text
from .hourly import HourlyConfig

log = get_logger("sweep")

#: The controllers the standard sweep grids cycle through.  Name
#: resolution happens in :data:`repro.api.controllers` — this tuple
#: (re-exported from there) only picks the default comparison set.
CONTROLLER_NAMES = SWEEP_CONTROLLERS


def spawn_context():
    """The package's one multiprocessing start-method choice: *spawn*
    (every worker imports fresh — safe under pytest-xdist, identical
    semantics on Linux and macOS).  Shared by :class:`SweepRunner` and
    the sharded backend's process transport."""
    return get_context("spawn")


@dataclass(frozen=True)
class SweepCell:
    """One independent simulation cell of the sweep grid."""

    controller: str
    n_vms: int
    seed: int
    hours: int = 168
    #: 0 means the default geometry of the fleet bench: 4 VMs per host.
    n_hosts: int = 0
    llmi_fraction: float = 0.5
    suspend_enabled: bool = True
    #: Drowsy's §VI-A.1 periodic full-relocation evaluation mode (the
    #: mode the E8 comparison runs it in); meaningless for reactive
    #: baselines, which ignore it.
    relocate_all: bool = False
    params: DrowsyParams = DEFAULT_PARAMS

    @property
    def resolved_hosts(self) -> int:
        return self.n_hosts or max(1, self.n_vms // 4)


@dataclass(frozen=True)
class SweepRow:
    """One result row of the tidy sweep table."""

    controller: str
    n_vms: int
    n_hosts: int
    seed: int
    hours: int
    energy_kwh: float
    slatah: float
    esv: float
    migrations: int
    suspend_cycles: int
    suspended_fraction: float
    #: Deterministic activity columns (DESIGN.md §17): host-hours the
    #: fleet spent awake / overloaded.  Simulated-state counts, so they
    #: are byte-identical across worker counts like every other column.
    active_host_hours: int = 0
    overload_host_hours: int = 0


def run_cell(cell: SweepCell) -> SweepRow:
    """Run one sweep cell (top-level so spawn workers can pickle it)."""
    from ..api import Simulation
    from ..experiments.common import build_fleet

    dc = build_fleet(cell.resolved_hosts, cell.n_vms, cell.llmi_fraction,
                     cell.hours, cell.params, seed=cell.seed)
    sim = Simulation(
        dc, cell.controller, "hourly", params=cell.params,
        config=HourlyConfig(suspend_enabled=cell.suspend_enabled,
                            relocate_all_mode=cell.relocate_all))
    result = sim.run(cell.hours)
    return SweepRow(
        controller=cell.controller,
        n_vms=cell.n_vms,
        n_hosts=cell.resolved_hosts,
        seed=cell.seed,
        hours=cell.hours,
        energy_kwh=result.total_energy_kwh,
        slatah=result.slatah,
        esv=result.esv,
        migrations=result.migrations,
        suspend_cycles=result.total_suspend_cycles,
        suspended_fraction=result.global_suspended_fraction,
        active_host_hours=int(result.active_host_hours or 0),
        overload_host_hours=int(result.overload_host_hours or 0),
    )


def grid(controllers=("drowsy", "neat", "oasis"),
         sizes=(64,), seeds=(7,), hours: int = 168,
         llmi_fraction: float = 0.5,
         params: DrowsyParams = DEFAULT_PARAMS) -> list[SweepCell]:
    """The standard (controller × fleet-size × seed) cell grid.

    Drowsy cells run in the paper's periodic-relocation evaluation mode
    (§VI-A.1), like the E8 comparison; reactive baselines run their
    normal migration loop.
    """
    return [SweepCell(controller=c, n_vms=n, seed=s, hours=hours,
                      llmi_fraction=llmi_fraction,
                      relocate_all=c == "drowsy", params=params)
            for c in controllers for n in sizes for s in seeds]


def _pyarrow():
    """Optional pyarrow import, gated with an actionable error (the
    container may not ship it; sqlite and CSV always work)."""
    try:
        import pyarrow as pa
        import pyarrow.parquet as pq
    except ImportError as exc:  # pragma: no cover - env-dependent
        raise RuntimeError(
            "parquet sweep tables need pyarrow (pip install pyarrow); "
            "write .sqlite or .csv instead") from exc
    return pa, pq


@dataclass
class SweepTable:
    """Tidy result table of a sweep (one row per cell, task order).

    The persistence machinery is row-type generic: subclasses point
    ``row_type`` at their own frozen row dataclass (flat ``str`` /
    ``int`` / ``float`` fields) and ``_TABLE`` at their SQLite table
    name — see :class:`repro.scenarios.sweep.ScenarioTable`.
    """

    rows: list[SweepRow]

    #: Row dataclass of this table type (overridden by subclasses).
    row_type = SweepRow
    #: SQLite table the rows land in.
    _TABLE = "sweep"

    def to_csv(self) -> str:
        """Deterministic CSV: floats via ``repr`` (shortest round-trip),
        rows in task order — byte-identical across worker counts."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        names = [f.name for f in fields(self.row_type)]
        writer.writerow(names)
        for row in self.rows:
            writer.writerow(
                [repr(v) if isinstance(v, float) else v
                 for v in (getattr(row, n) for n in names)])
        return buf.getvalue()

    # ------------------------------------------------------------------
    # persistence (longitudinal dashboards; CSV stays the default)
    # ------------------------------------------------------------------
    #: save/load format registry: suffix -> canonical kind.  One place
    #: to extend when a format is added.
    _SUFFIX_KIND = {".csv": "csv", ".sqlite": "sqlite",
                    ".sqlite3": "sqlite", ".db": "sqlite",
                    ".parquet": "parquet"}

    @classmethod
    def _kind(cls, path: str | Path) -> str:
        suffix = Path(path).suffix.lower()
        kind = cls._SUFFIX_KIND.get(suffix)
        if kind is None:
            raise ValueError(
                f"unknown sweep table format {suffix!r}; "
                f"expected one of {', '.join(sorted(cls._SUFFIX_KIND))}")
        return kind

    @classmethod
    def check_writable(cls, path: str | Path) -> None:
        """Validate a :meth:`save` target without writing anything —
        callers (the CLI) fail fast on a bad suffix, a missing pyarrow
        or an unwritable directory *before* running an hours-long
        sweep."""
        if cls._kind(path) == "parquet":
            _pyarrow()
        parent = Path(path).resolve().parent
        if not parent.is_dir():
            raise ValueError(f"directory {parent} does not exist")
        if not os.access(parent, os.W_OK):
            raise ValueError(f"directory {parent} is not writable")

    def save(self, path: str | Path) -> None:
        """Write the table to ``path``, dispatching on the suffix:
        ``.csv`` (default interchange), ``.sqlite``/``.db``/``.sqlite3``
        (stdlib; *appends* one run per call) or ``.parquet`` (columnar;
        needs pyarrow).  Every format stores rows exactly — REAL/float64
        preserves every bit of the measured floats — so ``load`` after
        ``save`` round-trips (for SQLite: the freshly appended run).

        All three formats write crash-safely (DESIGN.md §16): the
        bytes land in a sibling temp file that is atomically renamed
        over ``path``, so a SIGKILL mid-save leaves either the old
        file or the new one — never a truncated table."""
        kind = self._kind(path)
        if kind == "csv":
            atomic_write_text(path, self.to_csv())
        elif kind == "sqlite":
            self.to_sqlite(path)
        else:
            self.to_parquet(path)

    @classmethod
    def load(cls, path: str | Path) -> "SweepTable":
        """Read a table previously written by :meth:`save`."""
        kind = cls._kind(path)
        if kind == "csv":
            return cls.from_csv(Path(path).read_text())
        if kind == "sqlite":
            return cls.from_sqlite(path)
        return cls.from_parquet(path)

    @classmethod
    def from_csv(cls, text: str) -> "SweepTable":
        reader = csv.reader(io.StringIO(text))
        names = next(reader)
        expected = [f.name for f in fields(cls.row_type)]
        if names != expected:
            raise ValueError(f"unexpected CSV columns {names}")
        types = {f.name: f.type for f in fields(cls.row_type)}
        rows = [cls.row_type(**{n: (float(v) if types[n] == "float" else
                                    int(v) if types[n] == "int" else v)
                                for n, v in zip(names, raw)})
                for raw in reader]
        return cls(rows=rows)

    def to_sqlite(self, path: str | Path) -> int:
        """Append the rows to the ``sweep`` table of a SQLite file.

        Append (not replace): longitudinal dashboards accumulate one
        sweep per call into the same file, distinguished by a
        monotonically increasing ``run`` column (0, 1, 2, … — assigned
        here, deterministic, no wall-clock); row order within a run is
        task order (``rowid``).  Returns the run id just written.

        The append is atomic at the file level: the existing database
        is copied to a sibling temp file, the new run lands in the
        copy, and the copy is renamed over the original — a crash
        mid-append leaves the prior runs untouched.
        """
        table = self._TABLE
        names = [f.name for f in fields(self.row_type)]
        cols = ", ".join(
            f"{f.name} {'REAL' if f.type == 'float' else 'INTEGER' if f.type == 'int' else 'TEXT'}"
            for f in fields(self.row_type))
        path = Path(path)
        with atomic_target(path) as tmp:
            if path.exists():
                tmp.write_bytes(path.read_bytes())
            conn = sqlite3.connect(tmp)
            try:
                with conn:
                    conn.execute(
                        f"CREATE TABLE IF NOT EXISTS {table} "
                        f"(run INTEGER, {cols})")
                    run_id = conn.execute(
                        f"SELECT COALESCE(MAX(run), -1) + 1 "
                        f"FROM {table}").fetchone()[0]
                    conn.executemany(
                        f"INSERT INTO {table} (run, {', '.join(names)}) "
                        f"VALUES ({', '.join('?' * (len(names) + 1))})",
                        [(run_id, *(getattr(row, n) for n in names))
                         for row in self.rows])
            finally:
                conn.close()
        return run_id

    @classmethod
    def from_sqlite(cls, path: str | Path,
                    run: int | None = None) -> "SweepTable":
        """Read one run back (default: the latest — so ``load`` after
        ``save`` round-trips); ``run=N`` selects an earlier sweep."""
        table = cls._TABLE
        names = [f.name for f in fields(cls.row_type)]
        with sqlite3.connect(path) as conn:
            if run is None:
                run = conn.execute(
                    f"SELECT COALESCE(MAX(run), 0) FROM {table}").fetchone()[0]
            cur = conn.execute(
                f"SELECT {', '.join(names)} FROM {table} "
                "WHERE run = ? ORDER BY rowid", (run,))
            rows = [cls.row_type(**dict(zip(names, r))) for r in cur]
        return cls(rows=rows)

    def to_parquet(self, path: str | Path) -> None:
        """Columnar parquet via pyarrow (optional dependency)."""
        pa, pq = _pyarrow()
        names = [f.name for f in fields(self.row_type)]
        table = pa.table({n: [getattr(row, n) for row in self.rows]
                          for n in names})
        with atomic_target(path) as tmp:
            pq.write_table(table, str(tmp))

    @classmethod
    def from_parquet(cls, path: str | Path) -> "SweepTable":
        pa, pq = _pyarrow()
        table = pq.read_table(str(path))
        names = [f.name for f in fields(cls.row_type)]
        columns = {n: table.column(n).to_pylist() for n in names}
        rows = [cls.row_type(**{n: columns[n][i] for n in names})
                for i in range(table.num_rows)]
        return cls(rows=rows)

    def render(self) -> str:
        header = (f"{'controller':<17}{'VMs':>6}{'hosts':>7}{'seed':>6}"
                  f"{'hours':>7}{'kWh':>10}{'SLATAH':>9}{'migr':>7}"
                  f"{'susp':>7}{'drowsy %':>10}")
        lines = ["sweep results (one row per controller x size x seed cell)",
                 header, "-" * len(header)]
        for row in self.rows:
            lines.append(
                f"{row.controller:<17}{row.n_vms:>6}{row.n_hosts:>7}"
                f"{row.seed:>6}{row.hours:>7}{row.energy_kwh:>10.1f}"
                f"{row.slatah:>9.4f}{row.migrations:>7}"
                f"{row.suspend_cycles:>7}"
                f"{100 * row.suspended_fraction:>9.1f}%")
        return "\n".join(lines)


class SweepRunner:
    """Shard independent simulation cells across worker processes.

    ``workers=1`` runs serially in-process (the reference path);
    ``workers=N`` uses a *spawn* pool — every worker imports the package
    fresh, builds each cell's fleet (and its own fleet binding) locally
    and sends back only the reduced row, so no simulator state crosses
    process boundaries.  ``map`` preserves task order either way.

    Crash safety (DESIGN.md §16): ``supervise`` swaps the plain pool
    for :func:`repro.resilience.supervised_map` — crashed or hung
    workers are respawned with exponential backoff and only the
    still-missing cells re-run, so the table stays byte-identical to
    the serial run no matter which workers died.  ``journal`` names a
    :class:`repro.resilience.SweepJournal` file (or a path to one):
    every finished row is appended there as it lands, and a rerun with
    the same journal skips the already-journaled cells — an
    interrupted sweep resumes instead of starting over.  Either option
    alone activates the supervised path.

    ``progress=True`` rewrites one ``cells done/total  ETA`` stderr
    line as rows land (TTY-gated; a no-op in batch logs and CI).  The
    line is pure reporting — rows, task order and the table bytes are
    untouched.
    """

    def __init__(self, workers: int = 1, mp_context: str = "spawn",
                 supervise=None, journal=None,
                 progress: bool = False) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = int(workers)
        self.mp_context = mp_context
        self.supervise = supervise
        self.journal = journal
        self.progress = bool(progress)

    def _journal(self):
        if self.journal is None or hasattr(self.journal, "append"):
            return self.journal
        from ..resilience import SweepJournal

        return SweepJournal(self.journal)

    def _tick(self, total: int):
        """A ``tick()`` that redraws the progress line, or ``None``."""
        if not self.progress:
            return None
        from ..obs.progress import progress_line

        t0 = time.time()
        done = [0]

        def tick() -> None:
            done[0] += 1
            progress_line(done[0], total, t0)

        return tick

    def map(self, fn, items: list) -> list:
        """Order-preserving map of a picklable top-level ``fn``."""
        items = list(items)
        journal = self._journal()
        tick = self._tick(len(items))
        log.debug("sweep: %d cells on %d worker(s)%s", len(items),
                  self.workers,
                  " [supervised]" if (self.supervise is not None
                                      or journal is not None) else "")
        if self.supervise is not None or journal is not None:
            from ..resilience import supervised_map

            ctx = (spawn_context() if self.mp_context == "spawn"
                   else get_context(self.mp_context))
            append = journal.append if journal is not None else None

            def on_result(index, row) -> None:
                if append is not None:
                    append(index, row)
                if tick is not None:
                    tick()

            return supervised_map(
                fn, items, self.workers, policy=self.supervise,
                mp_context=ctx,
                on_result=(on_result if (append is not None
                                         or tick is not None) else None),
                skip=journal.load() if journal is not None else None)
        if self.workers == 1 or len(items) <= 1:
            results = []
            for item in items:
                results.append(fn(item))
                if tick is not None:
                    tick()
            return results
        ctx = (spawn_context() if self.mp_context == "spawn"
               else get_context(self.mp_context))
        n_procs = min(self.workers, len(items))
        with ctx.Pool(processes=n_procs) as pool:
            if tick is None:
                return pool.map(fn, items, chunksize=1)
            # imap keeps task order and yields as rows land, so the
            # progress line advances while slow cells are in flight.
            results = []
            for row in pool.imap(fn, items, chunksize=1):
                results.append(row)
                tick()
            return results

    def run(self, cells: list[SweepCell]) -> SweepTable:
        """Run a grid of standard cells into a :class:`SweepTable`."""
        return SweepTable(rows=self.map(run_cell, cells))
