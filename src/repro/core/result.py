"""The run result: one schema that every simulation engine returns.

The hourly engine, the event-driven engine and the sharded coordinator
all build a :class:`RunResult` directly.  Quantities every backend
produces (energy, suspended fractions, suspend cycles, migrations) are
always populated; backend-specific quantities are ``None`` when the
backend does not measure them (the sharded backend fills the hourly
columns):

============================  =======  ======
field                          hourly   event
============================  =======  ======
``overload_host_hours``          ✓       None
``active_host_hours``            ✓       None
``resume_cycles_by_host``       None      ✓
``request_summary``             None      ✓
``wol_sent``                    None      ✓
``events_processed``            None      ✓
============================  =======  ======

Derived properties (``total_energy_kwh``, ``slatah``, ``esv``, …) are
defined once here and behave identically for every backend; the ones
built on backend-absent fields return ``None`` instead of guessing.
The façade returns the engine's result object itself, so direct engine
runs and façade runs compare equal (``tests/test_api.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path


@dataclass(frozen=True)
class ResultRow:
    """One cell of the flattened :class:`RunResult` wire table.

    ``field`` names the result field, ``key`` the dict key (or the
    fault-summary field) inside it — empty for scalars.  Every value is
    carried as text: floats via ``repr`` (shortest round-trip form),
    so a reloaded result compares equal bit-for-bit.
    """

    field: str
    key: str
    kind: str
    value: str


_TABLE_CLS = None


def _result_table():
    """The :class:`~repro.sim.sweep.SweepTable` subclass carrying
    flattened results (lazy: ``sim.sweep`` imports the api package)."""
    global _TABLE_CLS
    if _TABLE_CLS is None:
        from ..sim.sweep import SweepTable

        class _RunResultTable(SweepTable):
            row_type = ResultRow
            _TABLE = "run_result"

        _TABLE_CLS = _RunResultTable
    return _TABLE_CLS


def _cell(value) -> tuple[str, str]:
    if isinstance(value, float):
        return "float", repr(value)
    if isinstance(value, int):
        return "int", str(value)
    return "str", str(value)


def _decode(kind: str, value: str):
    if kind == "float":
        return float(value)
    if kind == "int":
        return int(value)
    return value


@dataclass
class RunResult:
    """Aggregated outcome of one simulation run (any backend)."""

    hours: int
    controller_name: str
    #: Which backend produced this result (``"hourly"`` / ``"event"`` /
    #: ``"sharded"``).
    backend: str
    energy_kwh_by_host: dict[str, float]
    suspended_fraction_by_host: dict[str, float]
    suspend_cycles_by_host: dict[str, int]
    migrations: int
    vm_migrations: dict[str, int]
    # -- hourly-backend provenance ------------------------------------
    #: Beloglazov's SLATAH numerator / denominator (hourly only).
    overload_host_hours: int | None = None
    active_host_hours: int | None = None
    # -- event-backend provenance -------------------------------------
    resume_cycles_by_host: dict[str, int] | None = None
    #: The SDN switch's request-latency digest (requests, SLA fraction,
    #: mean/p50/p99/max sojourn, wake-triggered request count).
    request_summary: dict[str, float] | None = None
    #: Wake-on-LAN packets the active waking module sent.
    wol_sent: int | None = None
    events_processed: int | None = None
    # -- fault injection (either backend) ------------------------------
    #: Degradation accounting (:class:`~repro.faults.spec.FaultSummary`)
    #: attached by the façade when a fault plan rode the run; ``None``
    #: on fault-free runs, so fault-free results compare bit-identically
    #: with and without the field ever being considered.
    fault_summary: object | None = None
    # -- observability (either backend) ---------------------------------
    #: Frozen :class:`~repro.obs.Telemetry` (per-hour metric series +
    #: run totals) attached when the run carried a metrics-enabled
    #: :class:`~repro.obs.TelemetryConfig`.  Excluded from equality:
    #: telemetry describes the *runner* (wall clocks included), not the
    #: simulated outcome, so obs-on results still ``==`` obs-off ones.
    telemetry: object | None = field(default=None, compare=False)

    # ------------------------------------------------------------------
    # derived metrics (identical for every backend)
    # ------------------------------------------------------------------
    @property
    def total_energy_kwh(self) -> float:
        return sum(self.energy_kwh_by_host.values())

    @property
    def global_suspended_fraction(self) -> float:
        vals = list(self.suspended_fraction_by_host.values())
        return sum(vals) / len(vals) if vals else 0.0

    @property
    def total_suspend_cycles(self) -> int:
        return sum(self.suspend_cycles_by_host.values())

    @property
    def slatah(self) -> float | None:
        """SLA violation Time per Active Host (fraction of active
        host-hours spent at saturated CPU); ``None`` when the backend
        does not account host-hours (event backend)."""
        if self.active_host_hours is None:
            return None
        if self.active_host_hours == 0:
            return 0.0
        return self.overload_host_hours / self.active_host_hours

    @property
    def esv(self) -> float | None:
        """Energy-SLA-Violation product (lower is better); ``None``
        whenever :attr:`slatah` is."""
        slatah = self.slatah
        if slatah is None:
            return None
        return self.total_energy_kwh * slatah

    # ------------------------------------------------------------------
    # persistence (suffix dispatch through the sweep-table machinery)
    # ------------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Write the result to ``path``; the suffix picks the format
        (``.csv``, ``.sqlite``/``.sqlite3``/``.db`` — one appended run
        per call — or ``.parquet``), exactly like sweep tables.

        The result is flattened to :class:`ResultRow` cells in field
        order (dict rows in dict order, which for per-host maps is
        fleet order), so :meth:`load` rebuilds a result that compares
        equal to the original — floats included.
        """
        self._table()(rows=self._to_rows()).save(path)

    @classmethod
    def load(cls, path: str | Path) -> "RunResult":
        """Read a result previously written by :meth:`save` (for
        SQLite: the most recently appended run)."""
        return cls._from_rows(cls._table().load(path).rows)

    _table = staticmethod(_result_table)

    def _to_rows(self) -> list[ResultRow]:
        rows: list[ResultRow] = []
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "telemetry":
                # Runner telemetry (wall clocks, trace paths) is not
                # part of the simulated outcome and does not persist;
                # a reloaded result carries None there — still equal,
                # the field is excluded from comparisons.
                continue
            if value is None:
                rows.append(ResultRow(f.name, "", "none", ""))
            elif isinstance(value, dict):
                # Marker row first: an *empty* dict still round-trips,
                # and the count guards against truncated files.
                rows.append(ResultRow(f.name, "", "dict", str(len(value))))
                for key, item in value.items():
                    kind, text = _cell(item)
                    rows.append(ResultRow(f.name, str(key), kind, text))
            elif is_dataclass(value) and not isinstance(value, type):
                rows.append(ResultRow(f.name, "", "fault-summary", ""))
                for sf in fields(value):
                    kind, text = _cell(getattr(value, sf.name))
                    rows.append(ResultRow(f.name, sf.name, kind, text))
            else:
                kind, text = _cell(value)
                rows.append(ResultRow(f.name, "", kind, text))
        return rows

    @classmethod
    def _from_rows(cls, rows) -> "RunResult":
        from ..faults.spec import FaultSummary

        kwargs: dict = {}
        counts: dict[str, int] = {}
        summaries: list[str] = []
        for row in rows:
            if row.key:
                kwargs[row.field][row.key] = _decode(row.kind, row.value)
            elif row.kind == "none":
                kwargs[row.field] = None
            elif row.kind == "dict":
                kwargs[row.field] = {}
                counts[row.field] = int(row.value)
            elif row.kind == "fault-summary":
                kwargs[row.field] = {}
                summaries.append(row.field)
            else:
                kwargs[row.field] = _decode(row.kind, row.value)
        for name, expected in counts.items():
            if len(kwargs[name]) != expected:
                raise ValueError(
                    f"result table is truncated: {name} has "
                    f"{len(kwargs[name])} of {expected} entries")
        for name in summaries:
            kwargs[name] = FaultSummary(**kwargs[name])
        return cls(**kwargs)
