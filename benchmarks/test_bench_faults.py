"""Chaos engine benches (DESIGN.md §14).

Two guards:

* the fault hooks riding the **fault-free** event hot path (the WoL
  channel indirection, the ``faults is None`` branches, the transition
  token bookkeeping) must cost < 3 % wall-clock vs running with no plan
  attached — the zero-probability plan is the worst case, since it adds
  the observer and hour hooks while injecting nothing;
* a representative chaos plan (lossy WoL + crashes + resume failures)
  must complete with the §V resilience outcomes, with its throughput
  recorded into BENCH_PR.json (``extra_info``) for the per-PR perf
  trajectory.
"""

import gc
import os
import time

from benchmarks.conftest import run_once
from repro.api import Simulation
from repro.experiments.common import build_fleet
from repro.faults import (
    FaultInjector,
    FaultPlan,
    HostCrashFaults,
    TransitionFaults,
    WolFaults,
)

ZERO_PLAN = FaultPlan(name="zero")

CHAOS_PLAN = FaultPlan(
    name="bench-chaos",
    wol=WolFaults(loss_probability=0.2, delay_probability=0.1),
    crashes=HostCrashFaults(rate_per_host_per_h=0.01,
                            recover_after_s=1800.0),
    transitions=TransitionFaults(resume_failure_probability=0.05,
                                 recover_after_s=900.0))


def _run(faults, hours=72):
    dc = build_fleet(n_hosts=16, n_vms=64, llmi_fraction=0.5,
                     hours=hours, seed=7)
    sim = Simulation(dc, "drowsy", "event", seed=7, faults=faults)
    # Each run leaves ~47 k objects in reference cycles.  Left to the
    # collector, a full (gen-2) pass over the whole process heap fires
    # every other run or so, inside whichever timed run trips it; in a
    # full test session that pass alone costs ~0.3 s, so it would be read
    # as hook overhead.  Collecting here starts every timed run from the
    # same collector state.
    gc.collect()
    t0 = time.perf_counter()
    result = sim.run(hours)
    return time.perf_counter() - t0, result


def test_fault_hook_overhead_on_fault_free_path(benchmark):
    """The chaos plumbing must be free when unused: min-of-3 wall-clock
    of a zero-plan run within 3 % of a plan-free run (same fleet, same
    seed — the runs are bit-identical, so any delta IS the hook cost)."""
    hours = 72

    def zero_run():
        return _run(FaultInjector(ZERO_PLAN, seed=7), hours)

    # Interleave the two sides: timing all plain runs before all
    # zero-plan runs lets slow machine-load drift between the two blocks
    # read as hook overhead.  Alternating rounds expose both sides to
    # the same drift, so the min-of-rounds pair compares like with like.
    plain_times, times = [], []
    for _ in range(2):
        plain_times.append(_run(None, hours)[0])
        times.append(zero_run()[0])
    plain_times.append(_run(None, hours)[0])
    elapsed, result = run_once(benchmark, zero_run)
    times.append(elapsed)
    plain_s = min(plain_times)
    chaos_s = min(times)
    assert result.fault_summary is None

    overhead = chaos_s / plain_s - 1.0
    benchmark.extra_info["plain_wall_s"] = plain_s
    benchmark.extra_info["zero_plan_wall_s"] = chaos_s
    benchmark.extra_info["overhead_pct"] = 100.0 * overhead
    # Shared CI runners are too noisy for a 3 % gate; locally the margin
    # is well under 1 %.  A box whose *identical* plain runs already
    # spread wider than the gate cannot resolve a 3 % delta either, so
    # the ceiling opens up to the measured same-side noise there.
    noise = max(plain_times) / min(plain_times) - 1.0
    benchmark.extra_info["plain_noise_pct"] = 100.0 * noise
    ceiling = 0.15 if os.environ.get("CI") else max(0.03, noise)
    assert overhead <= ceiling, (
        f"fault hooks cost {100 * overhead:.1f}% on the fault-free hot "
        f"path (ceiling {100 * ceiling:.0f}%)")


def test_chaos_plan_throughput(benchmark):
    """A full chaos plan completes with the resilience outcomes intact;
    events/s lands in BENCH_PR.json for the trajectory."""
    elapsed, result = run_once(benchmark, _run,
                               FaultInjector(CHAOS_PLAN, seed=7))
    summary = result.fault_summary
    assert summary is not None
    assert summary.host_crashes > 0
    assert summary.stranded_requests == 0
    benchmark.extra_info["wall_s"] = elapsed
    benchmark.extra_info["faults_injected"] = summary.faults_injected
    benchmark.extra_info["unavailability_s"] = summary.unavailability_s
