"""Scenario × controller × seed sweeps on the multi-core runner.

Every cell is fully specified by its :class:`ScenarioCell` (scenario
name, controller, seed, simulator, scale) and builds all of its state
inside the worker, like the E8 cells — so
:class:`~repro.sim.sweep.SweepRunner` shards scenario grids across
spawn workers with **byte-identical** tables vs the serial run
(asserted by ``tests/test_scenarios.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.sweep import SweepRunner, SweepTable
from .compiler import ScenarioCompiler
from .registry import get_scenario

#: Simulators a scenario cell may target.
SIMULATOR_NAMES = ("hourly", "event")


@dataclass(frozen=True)
class ScenarioCell:
    """One independent scenario simulation of a sweep grid."""

    scenario: str
    controller: str = "drowsy"
    seed: int = 0
    simulator: str = "hourly"
    #: Class-count multiplier (floor one per class): smoke grids run the
    #: built-ins at fractional scale.
    scale: float = 1.0
    #: 0 = the scenario's own horizon.
    hours: int = 0


@dataclass(frozen=True)
class ScenarioRow:
    """One tidy result row.

    The first block holds quantities both backends produce; the
    SLA/latency block is filled from the unified
    :class:`~repro.api.RunResult`'s request summary and is all-zero for
    hourly cells (the hourly backend has no request path) and for event
    cells that served no requests.
    """

    scenario: str
    simulator: str
    controller: str
    seed: int
    hours: int
    n_hosts: int
    n_vms: int
    vms_added: int
    vms_removed: int
    energy_kwh: float
    migrations: int
    suspend_cycles: int
    suspended_fraction: float
    # -- event-backend SLA/latency (zero where not measured) -----------
    requests: int = 0
    sla_fraction: float = 0.0
    mean_sojourn_ms: float = 0.0
    p99_sojourn_ms: float = 0.0
    wake_requests: int = 0
    wol_sent: int = 0
    # -- fault injection (zero for plan-free cells) --------------------
    faults_injected: int = 0
    wol_retries: int = 0
    failovers: int = 0
    stranded_requests: int = 0
    unavailability_s: float = 0.0
    #: Deterministic activity column (DESIGN.md §17): total events the
    #: engine processed (0 on the hourly backend, which has no queue).
    events_processed: int = 0


def _sla_columns(result) -> dict:
    """The event-only row columns, zeroed when the backend (or an empty
    request log) provides nothing — tidy tables stay flat floats/ints."""
    summary = result.request_summary
    if not summary or not summary.get("requests"):
        return {}

    def _ms(key: str) -> float:
        value = summary.get(key, 0.0)
        return 1e3 * value if value == value else 0.0  # NaN -> 0.0

    return dict(
        requests=int(summary["requests"]),
        sla_fraction=summary["sla_fraction"],
        mean_sojourn_ms=_ms("mean_s"),
        p99_sojourn_ms=_ms("p99_s"),
        wake_requests=int(summary["wake_requests"]),
        wol_sent=int(result.wol_sent or 0),
    )


def _fault_columns(result) -> dict:
    """Degradation columns for chaos cells; empty (row defaults) when no
    fault plan rode the run."""
    s = result.fault_summary
    if s is None:
        return {}
    return dict(
        faults_injected=s.faults_injected,
        wol_retries=s.wol_retries,
        failovers=s.failovers,
        stranded_requests=s.stranded_requests,
        unavailability_s=s.unavailability_s,
    )


def run_scenario_cell(cell: ScenarioCell) -> ScenarioRow:
    """Run one cell (top-level so spawn workers can pickle it)."""
    spec = get_scenario(cell.scenario)
    if cell.scale != 1.0:
        spec = spec.scaled(cell.scale)
    run = ScenarioCompiler(spec).compile(
        controller=cell.controller, simulator=cell.simulator,
        seed=cell.seed, hours=cell.hours or None)
    n_vms = len(run.dc.vms)
    result = run.run()
    churn = run.churn
    return ScenarioRow(
        scenario=cell.scenario,
        simulator=cell.simulator,
        controller=cell.controller,
        seed=cell.seed,
        hours=result.hours,
        n_hosts=len(run.dc.hosts),
        n_vms=n_vms,
        vms_added=churn.vms_added if churn is not None else 0,
        vms_removed=churn.vms_removed if churn is not None else 0,
        energy_kwh=result.total_energy_kwh,
        migrations=result.migrations,
        suspend_cycles=result.total_suspend_cycles,
        suspended_fraction=result.global_suspended_fraction,
        events_processed=int(result.events_processed or 0),
        **_sla_columns(result),
        **_fault_columns(result),
    )


def scenario_grid(scenarios, controllers=("drowsy", "neat"),
                  seeds=(0,), simulator: str = "hourly",
                  scale: float = 1.0, hours: int = 0) -> list[ScenarioCell]:
    """The standard (scenario × controller × seed) cell grid."""
    if simulator not in SIMULATOR_NAMES:
        raise ValueError(f"unknown simulator {simulator!r}; "
                         f"expected one of {SIMULATOR_NAMES}")
    for name in scenarios:
        get_scenario(name)  # fail fast on typos, before any cell runs
    return [ScenarioCell(scenario=s, controller=c, seed=seed,
                         simulator=simulator, scale=scale, hours=hours)
            for s in scenarios for c in controllers for seed in seeds]


@dataclass
class ScenarioTable(SweepTable):
    """Tidy scenario sweep table (CSV/SQLite/parquet via the base)."""

    rows: list[ScenarioRow]

    row_type = ScenarioRow
    _TABLE = "scenario_sweep"

    def render(self) -> str:
        header = (f"{'scenario':<20}{'sim':<8}{'controller':<17}{'seed':>5}"
                  f"{'hours':>6}{'hosts':>6}{'VMs':>5}{'+VM':>5}{'-VM':>5}"
                  f"{'kWh':>9}{'migr':>6}{'susp':>6}{'drowsy %':>10}"
                  f"{'p99 ms':>8}{'wake':>6}{'faults':>7}")
        lines = ["scenario sweep (one row per scenario x controller x seed)",
                 header, "-" * len(header)]
        for row in self.rows:
            lines.append(
                f"{row.scenario:<20}{row.simulator:<8}{row.controller:<17}"
                f"{row.seed:>5}{row.hours:>6}{row.n_hosts:>6}{row.n_vms:>5}"
                f"{row.vms_added:>5}{row.vms_removed:>5}"
                f"{row.energy_kwh:>9.1f}{row.migrations:>6}"
                f"{row.suspend_cycles:>6}"
                f"{100 * row.suspended_fraction:>9.1f}%"
                f"{row.p99_sojourn_ms:>8.0f}{row.wake_requests:>6}"
                f"{row.faults_injected:>7}")
        return "\n".join(lines)


def run_scenario_sweep(cells: list[ScenarioCell], workers: int = 1,
                       supervise=None, journal=None,
                       progress: bool = False) -> ScenarioTable:
    """Shard scenario cells across cores into a :class:`ScenarioTable`.

    ``supervise``/``journal``/``progress`` pass through to
    :class:`~repro.sim.sweep.SweepRunner` — crashed workers respawn,
    an interrupted sweep resumes from its journal (DESIGN.md §16), and
    ``progress`` redraws a TTY-gated cells-done line (§17).
    """
    runner = SweepRunner(workers=workers, supervise=supervise,
                         journal=journal, progress=progress)
    return ScenarioTable(rows=runner.map(run_scenario_cell, cells))
