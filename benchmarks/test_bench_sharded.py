"""Sharded backend bench: parity first (DESIGN.md §15).

The sharded backend partitions the fleet into per-shard hourly engines
and replays controller effects through the hour-boundary exchange, so
its acceptance bar is the same as every other hot path in this repo:
*bit-identical* results before any speed claim.  The parity bench runs
everywhere (including single-core boxes, where the in-process transport
still exercises the full exchange protocol).  Its cost against the plain
hourly backend is tracked by the perf ledger's ``sharded.overhead_x``
(``perfbench/``), not by a wall-clock floor here.

Wall-clock numbers land in ``extra_info`` so the BENCH_PR.json artifact
tracks the sharded backend's per-PR perf trajectory alongside the
hourly and event simulators.
"""

import dataclasses
import time

from benchmarks.conftest import run_once
from repro.api import ShardedConfig, Simulation
from repro.experiments.common import build_fleet

SHARDS = 4


def _fleet(n_vms: int, hours: int):
    return build_fleet(n_hosts=n_vms // 4, n_vms=n_vms,
                       llmi_fraction=0.5, hours=hours, seed=7)


def test_sharded_parity_bench(benchmark):
    """Always-on acceptance: 4 shards (in-process transport) must
    reduce to the exact plain hourly ``RunResult``.  Runs on any box —
    parity does not need cores, only the exchange protocol."""
    n_vms, hours = 256, 24

    t0 = time.perf_counter()
    plain = Simulation(_fleet(n_vms, hours), "drowsy", "hourly").run(hours)
    plain_s = time.perf_counter() - t0

    sim = Simulation(_fleet(n_vms, hours), "drowsy", "sharded",
                     config=ShardedConfig(shards=SHARDS, workers=0))
    t0 = time.perf_counter()
    sharded = run_once(benchmark, sim.run, hours)
    sharded_s = time.perf_counter() - t0

    assert dataclasses.replace(sharded, backend="hourly") == plain

    benchmark.extra_info["plain_wall_s"] = plain_s
    benchmark.extra_info["sharded_wall_s"] = sharded_s
    benchmark.extra_info["shards"] = SHARDS
    benchmark.extra_info["workers"] = 0
