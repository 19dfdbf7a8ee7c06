"""Microbenchmarks for the hot paths (hpc-parallel guide hygiene).

These keep the per-operation costs honest: the idleness model is O(1)
per VM-hour, the fleet update is vectorized, the event kernel processes
hundreds of thousands of events per second, the hrtimer registry
registers and cancels by bisection.
"""

import numpy as np

from repro.cluster.events import EventSimulator
from repro.core.fleet import FleetIdlenessModel
from repro.core.model import IdlenessModel
from repro.core.weights import project_to_simplex
from repro.suspend.timers import TimerEntry, TimerRegistry


def test_scalar_model_hourly_update(benchmark):
    model = IdlenessModel()
    hours = iter(range(10_000_000))

    def step():
        model.observe(next(hours), 0.3)

    benchmark(step)
    if benchmark.stats is not None:  # None under --benchmark-disable
        assert benchmark.stats["mean"] < 2e-3


def test_fleet_update_256_vms(benchmark):
    fleet = FleetIdlenessModel(256)
    rng = np.random.default_rng(0)
    activities = np.where(rng.random(256) < 0.7, 0.0, 0.4)
    hours = iter(range(10_000_000))

    def step():
        fleet.observe(next(hours), activities)

    benchmark(step)
    # Vectorization requirement: the whole fleet costs little more than
    # a handful of scalar updates.
    if benchmark.stats is not None:  # None under --benchmark-disable
        assert benchmark.stats["mean"] < 5e-3


def test_fleet_amortized_cost_scales_sublinearly():
    """256 VMs in one vectorized update beat 256 scalar updates."""
    import time

    fleet = FleetIdlenessModel(256)
    acts = np.full(256, 0.3)
    t0 = time.perf_counter()
    for h in range(200):
        fleet.observe(h, acts)
    fleet_elapsed = time.perf_counter() - t0

    scalar = IdlenessModel()
    t0 = time.perf_counter()
    for h in range(200):
        scalar.observe(h, 0.3)
    scalar_elapsed = time.perf_counter() - t0

    assert fleet_elapsed < 256 * scalar_elapsed / 4


def test_event_kernel_throughput(benchmark):
    def run_10k():
        sim = EventSimulator()
        count = 0

        def tick():
            nonlocal count
            count += 1
            if count < 10_000:
                sim.schedule_in(1.0, tick)

        sim.schedule_in(1.0, tick)
        sim.run()
        return count

    assert benchmark(run_10k) == 10_000
    # >100k events/s.
    if benchmark.stats is not None:  # None under --benchmark-disable
        assert benchmark.stats["mean"] < 0.1


def test_timer_registry_register_cancel(benchmark):
    rng = np.random.default_rng(1)
    entries = [TimerEntry(float(k), f"p{i}", "t")
               for i, k in enumerate(rng.uniform(0, 1e6, 1000))]
    earliest_first = sorted(entries, key=lambda e: e.fire_time_s)

    def churn():
        registry = TimerRegistry()
        for entry in entries:
            registry.register(entry)
        for entry in earliest_first:
            registry.cancel(entry.process_name, entry.timer_name)
        return len(registry)

    assert benchmark(churn) == 0


def test_simplex_projection_batched(benchmark):
    rng = np.random.default_rng(2)
    batch = rng.normal(size=(1000, 4))
    out = benchmark(project_to_simplex, batch)
    assert np.allclose(out.sum(axis=1), 1.0)


def test_raw_ip_query(benchmark):
    model = IdlenessModel()
    for h in range(24 * 14):
        model.observe(h, 0.0 if h % 24 < 12 else 0.4)
    from repro.core.calendar import slot_of_hour

    slot = slot_of_hour(24 * 14)
    benchmark(model.raw_ip, slot)
    if benchmark.stats is not None:  # None under --benchmark-disable
        assert benchmark.stats["mean"] < 1e-4
