"""Command-line entry point: list and run the paper's experiments.

Usage::

    python -m repro list
    python -m repro run fig2_colocation
    python -m repro run energy_totals --days 5
    python -m repro run-all --quick
    python -m repro scenario run steady --checkpoint-dir ckpts
    python -m repro list checkpoints --dir ckpts
    python -m repro resume ckpts
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time
from contextlib import contextmanager

#: Experiment name -> (module, kwargs accepted from the CLI).
EXPERIMENTS: dict[str, dict] = {
    "fig1_traces": {"args": {"days": int}},
    "fig2_colocation": {"args": {"days": int}},
    "table1_suspension": {"args": {"days": int}},
    "energy_totals": {"args": {"days": int}},
    "sla_latency": {"args": {"days": int}},
    "fig4_im_quality": {"args": {"years": int}},
    "suspending_eval": {"args": {}},
    "fleet_sweep": {"args": {"n_hosts": int, "n_vms": int, "days": int,
                             "workers": int, "seeds": lambda s: tuple(
                                 int(x) for x in str(s).split(","))}},
    "scalability": {"args": {"workers": int}},
    "backup_anticipation": {"args": {"days": int}},
    "detector_study": {"args": {"n_hosts": int, "n_vms": int, "days": int}},
    "waking_failover": {"args": {"days": int}},
    "fault_tolerance": {"args": {"days": int, "workers": int}},
    "initial_placement": {"args": {"days": int}},
    "scenario_compare": {"args": {"workers": int, "scale": float,
                                  "hours": int}},
}

#: Reduced-scale overrides for ``run-all --quick``.
QUICK_OVERRIDES: dict[str, dict] = {
    "fig2_colocation": {"days": 3},
    "table1_suspension": {"days": 3},
    "energy_totals": {"days": 3},
    "sla_latency": {"days": 1},
    "fig4_im_quality": {"years": 1},
    "fleet_sweep": {"n_hosts": 4, "n_vms": 16, "days": 3},
    "backup_anticipation": {"days": 2},
    "detector_study": {"n_hosts": 4, "n_vms": 12, "days": 2},
    "waking_failover": {"days": 1},
    "fault_tolerance": {"days": 1},
    "initial_placement": {"days": 2},
    "scenario_compare": {"scale": 0.25, "hours": 24},
}


def _load(name: str):
    if name not in EXPERIMENTS:
        raise SystemExit(
            f"unknown experiment {name!r}; try: python -m repro list")
    return importlib.import_module(f"repro.experiments.{name}")


def _print_experiments() -> None:
    print("available experiments (python -m repro run <name>):")
    for name in EXPERIMENTS:
        module = _load(name)
        doc = (module.__doc__ or "").strip().splitlines()[0]
        print(f"  {name:<22} {doc}")


def _print_controllers() -> None:
    from .api import controllers

    print("registered controllers (run/sweep --controller(s) <name>):")
    for name, summary in controllers.describe().items():
        print(f"  {name:<22} {summary}")


def _print_backends() -> None:
    from .api import backends

    print('registered backends (Simulation(..., backend="<name>")):')
    for name, summary in backends.describe().items():
        config = backends.get(name).config_type.__name__
        print(f"  {name:<10} [{config}] {summary}")


def _print_scenarios() -> None:
    from .scenarios import list_scenarios

    print("built-in scenarios (python -m repro scenario run <name>):")
    for spec in list_scenarios():
        churn = " [churn]" if spec.churn.enabled else ""
        faults = " [faults]" if spec.faults is not None else ""
        print(f"  {spec.name:<20} {spec.n_hosts:>3} hosts, {spec.n_vms:>3} "
              f"VMs, {spec.horizon_hours} h, arrivals={spec.arrivals.kind}"
              f"{churn}{faults}")
        print(f"  {'':<20} {spec.description}")


def _print_checkpoints(directory: str = ".") -> None:
    from .resilience import list_checkpoints

    infos = list_checkpoints(directory)
    if not infos:
        print(f"no resumable checkpoints under {directory}")
        return
    print(f"resumable checkpoints under {directory} "
          f"(python -m repro resume <path>):")
    for info in infos:
        print(f"  {info.describe()}")


#: ``python -m repro list <what>``: every listing goes through the
#: registries' ``describe()`` (or the scenario registry), replacing the
#: per-kind ad-hoc loops that used to live on separate subcommands.
_LISTINGS = {
    "experiments": _print_experiments,
    "controllers": _print_controllers,
    "backends": _print_backends,
    "scenarios": _print_scenarios,
}


def cmd_list(args) -> int:
    what = getattr(args, "what", None) or "experiments"
    if what == "checkpoints":
        _print_checkpoints(getattr(args, "dir", None) or ".")
        return 0
    _LISTINGS[what]()
    return 0


@contextmanager
def _checkpoint_default(args):
    """Wire ``--checkpoint-dir``/``--checkpoint-every`` (DESIGN.md §16):
    every simulation built inside the block snapshots itself at hour
    boundaries, resumable with ``python -m repro resume <dir>``.  The
    process default is cleared on exit so nothing leaks past the
    command (``main`` is also called in-process by tests)."""
    ckpt_dir = getattr(args, "checkpoint_dir", None)
    if not ckpt_dir:
        yield
        return
    from .resilience import CheckpointPolicy
    from .resilience.checkpoint import set_default_policy

    set_default_policy(CheckpointPolicy(
        dir=ckpt_dir, every_h=getattr(args, "checkpoint_every", None) or 1))
    try:
        yield
    finally:
        set_default_policy(None)


@contextmanager
def _telemetry_default(args):
    """Wire the observability flags (DESIGN.md §17): every simulation
    built inside the block records metrics / writes a Chrome trace /
    profiles itself, without the experiment modules knowing.  Like the
    checkpoint default, the process default is cleared on exit so
    nothing leaks past the command."""
    trace = getattr(args, "trace", None)
    profile = getattr(args, "profile", None)
    metrics = getattr(args, "metrics", False)
    progress = getattr(args, "progress", False)
    if not (trace or profile or metrics or progress):
        yield
        return
    from .obs import TelemetryConfig, set_default_telemetry

    set_default_telemetry(TelemetryConfig(
        metrics=bool(metrics), trace=trace,
        profile="cprofile" if profile else None,
        profile_out=profile or "repro-profile.pstats",
        progress=bool(progress)))
    try:
        yield
    finally:
        set_default_telemetry(None)


def _telemetry_note(args) -> None:
    """Tell the user where the artifacts landed (paths are uniquified
    per simulation, so multi-run experiments number them)."""
    if getattr(args, "trace", None):
        print(f"\n[trace in {args.trace} — open with Perfetto: "
              f"https://ui.perfetto.dev]")
    if getattr(args, "profile", None):
        print(f"[profile in {args.profile} — inspect with "
              f"python -m pstats {args.profile}]")


def cmd_run(args) -> int:
    module = _load(args.name)
    kwargs = {}
    for key, caster in EXPERIMENTS[args.name]["args"].items():
        value = getattr(args, key, None)
        if value is not None:
            kwargs[key] = caster(value)
    t0 = time.perf_counter()
    with _checkpoint_default(args), _telemetry_default(args):
        data = module.run(**kwargs)
    elapsed = time.perf_counter() - t0
    print(data.render() if hasattr(data, "render") else data)
    if getattr(args, "checkpoint_dir", None):
        print(f"\n[checkpoints in {args.checkpoint_dir}; resume an "
              f"interrupted run with: python -m repro resume "
              f"{args.checkpoint_dir}]")
    _telemetry_note(args)
    print(f"\n[{args.name} finished in {elapsed:.1f} s]")
    return 0


def cmd_resume(args) -> int:
    """Continue an interrupted checkpointed run to its horizon."""
    from .api import Simulation
    from .resilience import CheckpointError

    try:
        sim = Simulation.resume(args.path)
    except CheckpointError as exc:
        raise SystemExit(str(exc)) from None
    t0 = time.perf_counter()
    result = sim.run()
    elapsed = time.perf_counter() - t0
    slatah = "-" if result.slatah is None else f"{result.slatah:.4f}"
    print(f"resumed {sim.backend_name} run -> "
          f"{result.total_energy_kwh:.1f} kWh, SLATAH {slatah}, "
          f"{result.migrations} migrations, "
          f"{result.total_suspend_cycles} suspends")
    for out in args.out or ():
        result.save(out)
        print(f"[result written to {out}]")
    print(f"\n[resume finished in {elapsed:.1f} s]")
    return 0


def cmd_run_all(args) -> int:
    failures = []
    for name in EXPERIMENTS:
        module = _load(name)
        kwargs = QUICK_OVERRIDES.get(name, {}) if args.quick else {}
        print(f"=== {name} {kwargs or ''} ===")
        try:
            data = module.run(**kwargs)
            print(data.render() if hasattr(data, "render") else data)
        except Exception as exc:  # pragma: no cover - surfacing only
            failures.append(name)
            print(f"FAILED: {exc!r}")
        print()
    if failures:
        print(f"failed experiments: {', '.join(failures)}")
        return 1
    return 0


def _validated_controllers(spec: str) -> tuple[str, ...]:
    """Parse a comma-separated controller list, failing fast on typos.

    Names resolve through the one registry (``repro.api.controllers``)
    every other entry point uses — anything registered there, including
    the ``"none"`` baseline, is sweepable from the CLI.
    """
    from .api import controllers as registry

    controllers = tuple(spec.split(","))
    for name in controllers:
        try:
            registry.get(name)
        except ValueError as exc:  # the registry's own fail-fast message
            raise SystemExit(str(exc)) from None
    return controllers


def _check_out_targets(table_cls, outs) -> None:
    """Fail fast on unusable --out targets (bad suffix, missing
    pyarrow, unwritable directory) *before* spending hours on cells."""
    for out in outs or ():
        try:
            table_cls.check_writable(out)
        except (ValueError, RuntimeError) as exc:
            raise SystemExit(f"--out {out}: {exc}") from None


def _sweep_journal(args):
    """``--checkpoint-dir`` on a sweep: per-cell journal + supervised
    respawn.  Completed cells persist as they land; rerunning the same
    command resumes, skipping the journaled cells (DESIGN.md §16)."""
    ckpt_dir = getattr(args, "checkpoint_dir", None)
    if not ckpt_dir:
        return None
    from pathlib import Path

    from .resilience import SweepJournal

    return SweepJournal(Path(ckpt_dir) / "sweep.journal")


def cmd_sweep(args) -> int:
    """Sharded (controller × fleet-size × seed) sweep (DESIGN.md §9)."""
    from .sim.sweep import SweepRunner, SweepTable, grid

    controllers = _validated_controllers(args.controllers)
    _check_out_targets(SweepTable, args.out)
    cells = grid(controllers=controllers,
                 sizes=tuple(int(s) for s in args.sizes.split(",")),
                 seeds=tuple(int(s) for s in args.seeds.split(",")),
                 hours=args.hours, llmi_fraction=args.llmi)
    journal = _sweep_journal(args)
    t0 = time.perf_counter()
    table = SweepRunner(workers=args.workers, journal=journal,
                        progress=getattr(args, "progress", False)).run(cells)
    elapsed = time.perf_counter() - t0
    if journal is not None:
        journal.clear()  # the sweep completed; next invocation is fresh
    print(table.render())
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(table.to_csv())
        print(f"\n[csv written to {args.csv}]")
    for out in args.out or ():
        table.save(out)
        print(f"\n[table written to {out}]")
    print(f"\n[{len(cells)} cells on {args.workers} worker(s) "
          f"in {elapsed:.1f} s]")
    return 0


def cmd_scenario_list(_args) -> int:
    _print_scenarios()
    return 0


def cmd_scenario_run(args) -> int:
    """Run one scenario under one controller on one (or both) simulators."""
    from .scenarios import ScenarioCell, get_scenario, run_scenario_cell

    # Fail fast with clean messages, like `scenario sweep` does.  This
    # flag names ONE controller — no comma-splitting, or "a,b" would
    # pass validation and blow up in the cell runner.
    try:
        get_scenario(args.name)
    except KeyError as exc:
        raise SystemExit(exc.args[0]) from None
    from .api import controllers as registry

    try:
        registry.get(args.controller)
    except ValueError as exc:  # the registry's own fail-fast message
        raise SystemExit(str(exc)) from None
    simulators = (("hourly", "event") if args.simulator == "both"
                  else (args.simulator,))
    t0 = time.perf_counter()
    with _checkpoint_default(args), _telemetry_default(args):
        for simulator in simulators:
            row = run_scenario_cell(ScenarioCell(
                scenario=args.name, controller=args.controller,
                seed=args.seed, simulator=simulator, scale=args.scale,
                hours=args.hours or 0))
            print(f"[{simulator}] {row.scenario}: {row.n_vms} VMs on "
                  f"{row.n_hosts} hosts x {row.hours} h under "
                  f"{row.controller} -> {row.energy_kwh:.1f} kWh, "
                  f"{100 * row.suspended_fraction:.1f} % drowsy, "
                  f"{row.migrations} migrations, "
                  f"{row.suspend_cycles} suspends, "
                  f"churn +{row.vms_added}/-{row.vms_removed}")
    if getattr(args, "checkpoint_dir", None):
        print(f"\n[checkpoints in {args.checkpoint_dir}; resume an "
              f"interrupted run with: python -m repro resume "
              f"{args.checkpoint_dir}]")
    _telemetry_note(args)
    print(f"\n[scenario {args.name} finished in "
          f"{time.perf_counter() - t0:.1f} s]")
    return 0


def cmd_scenario_sweep(args) -> int:
    """Sharded scenario × controller × seed sweep (DESIGN.md §12)."""
    from .scenarios import (
        ScenarioTable,
        list_scenarios,
        run_scenario_sweep,
        scenario_grid,
    )

    scenarios = (tuple(args.scenarios.split(",")) if args.scenarios
                 else tuple(s.name for s in list_scenarios()))
    controllers = _validated_controllers(args.controllers)
    _check_out_targets(ScenarioTable, args.out)
    try:
        cells = scenario_grid(
            scenarios, controllers=controllers,
            seeds=tuple(int(s) for s in args.seeds.split(",")),
            simulator=args.simulator, scale=args.scale, hours=args.hours or 0)
    except KeyError as exc:
        raise SystemExit(exc.args[0]) from None
    journal = _sweep_journal(args)
    t0 = time.perf_counter()
    table = run_scenario_sweep(cells, workers=args.workers,
                               journal=journal,
                               progress=getattr(args, "progress", False))
    elapsed = time.perf_counter() - t0
    if journal is not None:
        journal.clear()  # the sweep completed; next invocation is fresh
    print(table.render())
    for out in args.out or ():
        table.save(out)
        print(f"\n[table written to {out}]")
    print(f"\n[{len(cells)} cells on {args.workers} worker(s) "
          f"in {elapsed:.1f} s]")
    return 0


def cmd_report(args) -> int:
    from .analysis.report import generate_report

    report = generate_report(days=args.days, years=args.years)
    print(report.render())
    return 0 if report.all_hold else 1


def _add_obs_args(parser, sweep: bool = False) -> None:
    """The observability flags (DESIGN.md §17), one spelling everywhere.

    Sweeps get only ``--progress`` (a cells-done line); single runs get
    the full set — none of them changes a single result byte.
    """
    parser.add_argument(
        "--progress", action="store_true",
        help="live progress on stderr (TTY only; results unchanged)")
    if sweep:
        return
    parser.add_argument(
        "--trace", metavar="PATH",
        help="write a Chrome trace-event JSON of the run (open with "
             "https://ui.perfetto.dev; results unchanged)")
    parser.add_argument(
        "--profile", metavar="PATH",
        help="cProfile the run and dump pstats to PATH "
             "(inspect with python -m pstats PATH)")
    parser.add_argument(
        "--metrics", action="store_true",
        help="record per-hour metrics on every simulation "
             "(surfaced as RunResult.telemetry; results unchanged)")


def _add_checkpoint_args(parser, sweep: bool = False) -> None:
    """The crash-safety flags (DESIGN.md §16), one spelling everywhere."""
    if sweep:
        parser.add_argument(
            "--checkpoint-dir", dest="checkpoint_dir",
            help="journal finished cells under this directory and "
                 "supervise the workers; rerunning the identical sweep "
                 "command resumes, recomputing only the missing cells")
        return
    parser.add_argument(
        "--checkpoint-dir", dest="checkpoint_dir",
        help="snapshot every simulation at hour boundaries into this "
             "directory (resume with: python -m repro resume <dir>)")
    parser.add_argument(
        "--checkpoint-every", dest="checkpoint_every", type=int,
        help="simulated hours between snapshots (default 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Drowsy-DC reproduction experiment runner")
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="repro.* logging on stderr (-v INFO, -vv DEBUG)")
    parser.add_argument(
        "--quiet", action="store_true",
        help="only errors on stderr (overrides -v)")
    sub = parser.add_subparsers(dest="command", required=True)

    lister = sub.add_parser(
        "list",
        help="list experiments, controllers, backends, scenarios or "
             "resumable checkpoints")
    lister.add_argument("what", nargs="?", default="experiments",
                        choices=tuple(_LISTINGS) + ("checkpoints",))
    lister.add_argument("--dir", default=".",
                        help="directory to scan (list checkpoints)")
    lister.set_defaults(fn=cmd_list)

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("name")
    run.add_argument("--days", type=int)
    run.add_argument("--years", type=int)
    run.add_argument("--hours", type=int,
                     help="horizon override (scenario_compare)")
    run.add_argument("--scale", type=float,
                     help="fleet scale multiplier (scenario_compare)")
    run.add_argument("--n-hosts", dest="n_hosts", type=int)
    run.add_argument("--n-vms", dest="n_vms", type=int)
    run.add_argument("--workers", type=int,
                     help="worker processes for shardable experiments")
    run.add_argument("--seeds",
                     help="comma-separated fleet seeds (fleet_sweep: one "
                          "cell per seed, results averaged)")
    _add_checkpoint_args(run)
    _add_obs_args(run)
    run.set_defaults(fn=cmd_run)

    resume = sub.add_parser(
        "resume",
        help="continue an interrupted checkpointed run to its horizon")
    resume.add_argument("path",
                        help="a .ckpt file, or a directory (the most "
                             "advanced checkpoint in it is used)")
    resume.add_argument("--out", action="append",
                        help="persist the result; format from the suffix: "
                             ".csv, .sqlite (append) or .parquet "
                             "(repeatable)")
    resume.set_defaults(fn=cmd_resume)

    sweep = sub.add_parser(
        "sweep",
        help="sharded controller x fleet-size x seed sweep (multi-core)")
    sweep.add_argument("--controllers", default="drowsy,neat,oasis",
                       help="comma-separated controller names")
    sweep.add_argument("--sizes", default="32,64",
                       help="comma-separated fleet sizes (VM counts)")
    sweep.add_argument("--seeds", default="7",
                       help="comma-separated fleet seeds")
    sweep.add_argument("--hours", type=int, default=72)
    sweep.add_argument("--llmi", type=float, default=0.5,
                       help="LLMI fraction of each fleet")
    sweep.add_argument("--workers", type=int, default=1,
                       help="worker processes (spawn), 1 = serial")
    sweep.add_argument("--csv", help="also write the tidy table as CSV")
    sweep.add_argument("--out", action="append",
                       help="persist the tidy table; format from the "
                            "suffix: .csv, .sqlite (append) or .parquet "
                            "(repeatable)")
    _add_checkpoint_args(sweep, sweep=True)
    _add_obs_args(sweep, sweep=True)
    sweep.set_defaults(fn=cmd_sweep)

    scenario = sub.add_parser(
        "scenario",
        help="declarative workload scenarios (list | run | sweep)")
    ssub = scenario.add_subparsers(dest="scenario_command", required=True)
    ssub.add_parser("list", help="list built-in scenarios").set_defaults(
        fn=cmd_scenario_list)

    srun = ssub.add_parser("run", help="run one scenario")
    srun.add_argument("name")
    srun.add_argument("--controller", default="drowsy",
                      help="consolidation controller (default drowsy)")
    srun.add_argument("--simulator", default="hourly",
                      choices=("hourly", "event", "both"))
    srun.add_argument("--seed", type=int, default=0)
    srun.add_argument("--scale", type=float, default=1.0,
                      help="class-count multiplier (0.25 = quarter fleet)")
    srun.add_argument("--hours", type=int,
                      help="override the scenario horizon")
    _add_checkpoint_args(srun)
    _add_obs_args(srun)
    srun.set_defaults(fn=cmd_scenario_run)

    ssweep = ssub.add_parser(
        "sweep", help="sharded scenario x controller x seed sweep")
    ssweep.add_argument("--scenarios",
                        help="comma-separated names (default: all built-ins)")
    ssweep.add_argument("--controllers", default="drowsy,neat",
                        help="comma-separated controller names")
    ssweep.add_argument("--seeds", default="0",
                        help="comma-separated scenario seeds")
    ssweep.add_argument("--simulator", default="hourly",
                        choices=("hourly", "event"))
    ssweep.add_argument("--scale", type=float, default=1.0)
    ssweep.add_argument("--hours", type=int,
                        help="override every scenario's horizon")
    ssweep.add_argument("--workers", type=int, default=1,
                        help="worker processes (spawn), 1 = serial")
    ssweep.add_argument("--out", action="append",
                        help="persist the tidy table; format from the "
                             "suffix: .csv, .sqlite (append) or .parquet "
                             "(repeatable)")
    _add_checkpoint_args(ssweep, sweep=True)
    _add_obs_args(ssweep, sweep=True)
    ssweep.set_defaults(fn=cmd_scenario_sweep)

    run_all = sub.add_parser("run-all", help="run every experiment")
    run_all.add_argument("--quick", action="store_true",
                         help="reduced scales (a few minutes total)")
    run_all.set_defaults(fn=cmd_run_all)

    report = sub.add_parser(
        "report", help="regenerate the paper-vs-measured claim report")
    report.add_argument("--days", type=int, default=4)
    report.add_argument("--years", type=int, default=1)
    report.set_defaults(fn=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.verbose or args.quiet:
        from .obs.log import configure

        configure(verbose=args.verbose, quiet=args.quiet)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
