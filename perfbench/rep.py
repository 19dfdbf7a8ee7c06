"""One repetition of one workload, in a fresh process.

Usage (``run.py`` starts it; it is not meant to be run by hand)::

    python3 perfbench/rep.py --workload hourly-week --seed 7 \
        --mode plain|traced --workdir DIR [--check]

Prints one JSON object: set-up and run wall time, the ``RunResult``
digests, the peak RSS of this process, the public counters of every
layer the run touched, the failed output checks and, with
``--mode traced``, the layer spans.  A fresh process per repetition
keeps ``ru_maxrss`` (a lifetime maximum) specific to one run.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

#: Callbacks the event kernel pops; the loop's self time is the traced
#: run minus these spans.
EVENT_CALLBACK_SPANS = ("sim.hour", "sim.transition", "network.arrival",
                        "network.completion", "suspend.sweep",
                        "waking.heartbeat", "waking.scheduled_wake")
WOL_REASONS = ("scheduled-date", "inbound-request", "switch-port",
               "redispatch")


def public_counts(sim, result) -> dict:
    """Per-layer counts read from the program's public counters (exact,
    identical in the traced and untraced passes)."""
    from repro.suspend.module import SuspendDecision

    engine = sim.engine
    counts = {
        "cluster.migrations": result.migrations,
        "waking.distinct_vm_ips": len({vm.ip_address for vm in sim.dc.vms}),
        "faults.host_crashes": (result.fault_summary.host_crashes
                                if result.fault_summary is not None else 0),
    }
    manager = sim.checkpointer
    counts["resilience.checkpoints"] = manager.written if manager else 0
    counts["resilience.checkpoint_bytes"] = (manager.bytes_written
                                             if manager else 0)
    verdicts = Counter()
    if result.backend == "event":
        sweeper, switch = engine.sweeper, engine.switch
        coalesced = sweeper.checks_performed - sweeper.sweeps_fired
        counts.update({
            "events.processed": result.events_processed,
            "events.coalesced": coalesced,
            "events.heap_pops": result.events_processed - coalesced,
            "events.mix.hour": result.hours,
            "events.mix.arrival": switch.packets_forwarded,
            "events.mix.completion": int(result.request_summary["requests"]),
            "events.mix.sweep": sweeper.sweeps_fired,
            "events.mix.heartbeat": engine.waking.beats,
            "events.mix.transition": (
                sum(result.suspend_cycles_by_host.values())
                + sum(result.resume_cycles_by_host.values())),
            "suspend.checks": sweeper.checks_performed,
            "suspend.sweeps": sweeper.sweeps_fired,
            "network.requests": switch.packets_forwarded,
            "network.queued": switch.queued_requests,
            "network.dropped": switch.requests_dropped,
            "network.wake_requests": int(
                result.request_summary["wake_requests"]),
            "waking.beats": engine.waking.beats,
        })
        counts["events.mix.residual"] = counts["events.heap_pops"] - sum(
            counts[f"events.mix.{kind}"] for kind in (
                "hour", "arrival", "completion", "sweep", "heartbeat",
                "transition"))
        for module in engine.suspending.values():
            verdicts.update({d: n for d, n in module.decision_counts.items()})
    for decision in SuspendDecision:
        counts[f"suspend.verdict.{decision.name.lower()}"] = verdicts[decision]
    return counts


def output_checks(workload, sim, result, counts) -> list[str]:
    """The per-run output checks that need no second run."""
    failed = []
    if result.backend == "event":
        # A request dispatched just before the horizon completes after
        # it: its completion is one of the events still in flight.
        in_flight = sim.engine.sim.pending
        unsettled = counts["network.requests"] - (
            counts["events.mix.completion"] + counts["network.queued"]
            + counts["network.dropped"])
        if not 0 <= unsettled <= in_flight:
            failed.append(
                f"{unsettled} submitted requests neither completed, queued "
                f"nor dropped ({in_flight} events in flight)")
        residual = counts["events.mix.residual"]
        if abs(residual) > in_flight:
            failed.append(
                f"event mix misses {residual} heap pops, more than the "
                f"{in_flight} events in flight at the horizon")
    if workload.hours != result.hours:
        failed.append(f"ran {result.hours} h, expected {workload.hours} h")
    return failed


def resume_check(sim, result) -> tuple[float, list[str]]:
    """Resume from ``sim``'s mid-run checkpoint and finish; the result
    must equal the uninterrupted run's."""
    from repro.api import Simulation

    from workloads import digest, mid_checkpoint

    path = mid_checkpoint(Path(sim.checkpointer.policy.dir))
    start = time.perf_counter()
    resumed = Simulation.resume(path).run()
    elapsed = time.perf_counter() - start
    if digest([resumed]) != digest([result]):
        return elapsed, [f"resume from {path.name} diverged from the "
                         "uninterrupted run"]
    return elapsed, []


def layer_metrics(tracer, backend, results, counts, run_s, hour_s) -> dict:
    """The traced pass's span-derived metrics; ``hour_s`` holds the wall
    seconds between consecutive hour boundaries."""
    incl, calls = tracer.incl, tracer.calls
    hour_ms = [s * 1e3 for s in hour_s]
    p50 = statistics.median(hour_ms) if hour_ms else 0.0
    p90 = (statistics.quantiles(hour_ms, n=10)[8]
           if len(hour_ms) >= 2 else p50)
    layers = {
        "sim.hour_ms_p50": p50,
        "sim.hour_ms_p90": p90,
        "sim.hour_self_s": tracer.self_s["sim.hour"],
        "core.observe_s": incl["core.observe"],
        "core.load_hour_s": incl["core.load_hour"],
        "core.bind_s": incl["core.bind"],
        "cluster.check_invariants_s": incl["cluster.check_invariants"],
        "cluster.check_invariants_calls": calls["cluster.check_invariants"],
        "cluster.sync_meters_s": incl["cluster.sync_meters"],
        "cluster.migrate_s": incl["cluster.migrate"],
        "events.loop_self_s": (
            run_s - sum(incl[s] for s in EVENT_CALLBACK_SPANS)
            if backend == "event" else 0.0),
        "suspend.sweep_s": incl["suspend.sweep"],
        "network.submit_s": incl["network.submit"],
        "network.generate_s": incl["network.generate"],
        "waking.analyze_s": incl["waking.analyze"],
        "consolidation.step_s": incl["consolidation.step"],
        "consolidation.relocate_all_s": incl["consolidation.relocate_all"],
        "consolidation.place_calls": calls["consolidation.place"],
        "consolidation.place_s": incl["consolidation.place"],
        "consolidation.place_yield": (
            counts["cluster.migrations"] / calls["consolidation.place"]
            if calls["consolidation.place"] else 0.0),
        "resilience.checkpoint_write_s": incl["resilience.checkpoint_write"],
        "scenarios.compile_s": incl["scenarios.compile"],
        "sharded.wait_s": incl["sharded.wait"],
        "sharded.launch_s": incl["sharded.launch"],
        "trace.run_s": run_s,
        "trace.coverage": tracer.top_s / run_s,
    }
    for reason in WOL_REASONS:
        layers[f"waking.wol.{reason}"] = tracer.wol_reasons[reason]
    requested = tracer.wol_reasons["inbound-request"]
    layers["waking.wake_yield"] = (
        counts.get("network.wake_requests", 0) / requested
        if requested else 0.0)
    checks = counts.get("suspend.checks", 0)
    layers["suspend.yield"] = (counts["suspend.verdict.suspend"] / checks
                               if checks else 0.0)
    totals = [getattr(r.telemetry, "totals", None) or {} for r in results]
    layers["sharded.exchange_bytes"] = sum(
        t.get("exchange_bundle_bytes", 0) for t in totals)
    layers["sharded.respawns"] = sum(
        t.get("worker_restarts", 0) for t in totals)
    layers["sharded.shard_hour_s"] = sum(
        v for t in totals for k, v in t.items()
        if k.startswith("shard") and k.endswith("_hour_wall_s"))
    return layers


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("plain", "traced"), default="plain")
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--check", action="store_true",
                    help="also run the checks that need a second run")
    args = ap.parse_args()

    from workloads import WORKLOADS, HourClock, digest

    workload = WORKLOADS[args.workload]
    tracer = None
    if args.mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import repro.api  # noqa: F401  (imports stay out of setup_s)

    args.workdir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    sims = workload.build(args.seed, args.workdir, tracer is not None)
    setup_s = time.perf_counter() - start
    vm_hours = sum(len(sim.dc.vms) for sim in sims) * workload.hours
    clocks = [HourClock().attach(sim) for sim in sims]

    results = []
    run_s = 0.0
    for sim in sims:
        if tracer is not None:
            tracer.in_run = True
        start = time.perf_counter()
        results.append(sim.run(workload.hours))
        run_s += time.perf_counter() - start
        if tracer is not None:
            tracer.in_run = False
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    counts: Counter = Counter()
    failed = []
    for sim, result in zip(sims, results):
        mine = public_counts(sim, result)
        failed += output_checks(workload, sim, result, mine)
        counts.update(mine)
    segments = [s for clock in clocks for s in clock.segments()]
    out = {
        "setup_s": setup_s,
        "run_s": run_s,
        "segments": segments,
        "vm_hours": vm_hours,
        "rss_mb": rss_mb,
        "digest": digest(results),
        "digest_except_backend": digest(results, ("telemetry", "backend")),
        "counts": counts,
        "failed": failed,
    }
    if tracer is not None:
        # Before the resume check, whose spans are not this run's.
        hour_s = [s for clock in clocks for s in clock.segments()[1:-1]]
        out["layers"] = layer_metrics(tracer, workload.backend, results,
                                      counts, run_s, hour_s)
        if tracer.coalesced != counts.get("events.coalesced", 0):
            failed.append(
                f"count_coalesced credits {tracer.coalesced} != sweep "
                f"counters' {counts.get('events.coalesced', 0)}")
    if args.check and sims[0].checkpointer is not None:
        # One instance suffices; each resume replays half a week.
        out["resume_s"], problems = resume_check(sims[0], results[0])
        failed += problems
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
