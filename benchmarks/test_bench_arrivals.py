"""Request-plane bench: the event backend on the perf ledger's
``event-day`` fleet (128 hosts, 512 VMs) for 6 hours.

Each hour's request arrivals reach the event loop as one stream read
through a cursor, not as heap events (DESIGN.md §10).  Every
``RunResult`` field but ``events_processed`` must equal the per-push
oracle's (``tests/oracles.py``: one heap event per arrival, service time
drawn at submit).  No wall-clock floor: arrivals per second and the
real heap pops go to ``extra_info`` for the BENCH_PR.json trajectory,
and speed claims go through the perf ledger.
"""

import time

from benchmarks.conftest import run_once
from repro.api import Simulation
from repro.experiments.common import build_fleet
from tests.oracles import PerHostEventBackend, assert_results_equal

HOURS = 6


def _fleet():
    return build_fleet(n_hosts=128, n_vms=512, llmi_fraction=0.5, hours=24,
                       seed=7)


def test_arrival_stream_six_hours(benchmark):
    sim = Simulation(_fleet(), "drowsy", "event", seed=7)
    t0 = time.perf_counter()
    result = run_once(benchmark, sim.run, HOURS)
    wall_s = time.perf_counter() - t0

    oracle = Simulation(_fleet(), "drowsy",
                        PerHostEventBackend(per_host_checks=False), seed=7)
    assert_results_equal(result, oracle.run(HOURS),
                         skip=("events_processed",))

    engine = sim.engine
    arrivals = engine.switch.packets_forwarded
    assert arrivals > 0
    # Only the completions straddling the horizon, transitions, hour
    # ticks and sweeps touch the heap; the arrivals never do.
    assert engine.sim.heap_pops < arrivals
    benchmark.extra_info["arrivals"] = arrivals
    benchmark.extra_info["arrivals_per_s"] = arrivals / wall_s
    benchmark.extra_info["heap_pops"] = engine.sim.heap_pops
    benchmark.extra_info["oracle_heap_pops"] = oracle.engine.sim.heap_pops
    benchmark.extra_info["events_processed"] = result.events_processed
    benchmark.extra_info["wall_s"] = wall_s
