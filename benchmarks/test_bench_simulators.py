"""Simulator hot-path benches: the columnar fleet binding (DESIGN.md §6),
the columnar host accounting on top of it (DESIGN.md §8) and the batched
event-driven hot path (DESIGN.md §10).

Throughput of both simulators at 64/256/1024 VMs, plus the acceptance
checks for the columnar refactors: the fleet-bound hourly simulator must
beat the seed per-VM scalar path by >= 3x at 1024 VMs x 168 h, the
host-accounting layer must further beat the accounting-off fleet path,
and the batched event simulator (suspend-check sweeps + bulk request
scheduling + indexed wake path) must beat the per-host event path of
``tests/oracles.py`` by >= 3x in events/s — all while producing
*bit-identical* results (energy, migrations, SLATAH, request summaries;
the event path skips check events whose verdict is already known, so
its event count is the one field that shrinks).  The speedups are pure
mechanics, never a semantics change.  Event-driven events/s and
wall-clock are recorded as ``extra_info`` in the BENCH_PR.json artifact
so the per-PR perf trajectory covers both simulators.
"""

import os
import time

import pytest

from benchmarks.conftest import run_once
from repro.api import Simulation
from repro.api.controllers import build_controller
from repro.experiments.common import build_fleet
from repro.sim.hourly import HourlyConfig
# One definition of the parity contract, shared with the hypothesis
# interleaving suite: every RunResult field but events_processed (which
# only shrinks), derived not hardcoded, failing field named on mismatch.
from tests.oracles import (
    PerHostEventBackend,
    ScalarHourlySimulator,
    assert_matches_oracle,
)

WEEK_H = 168


def _fleet(n_vms: int, hours: int):
    return build_fleet(n_hosts=n_vms // 4, n_vms=n_vms,
                       llmi_fraction=0.5, hours=hours, seed=7)


# ----------------------------------------------------------------------
# hourly simulator
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n_vms", [64, 256, 1024])
def test_hourly_fleet_throughput(benchmark, n_vms):
    dc = _fleet(n_vms, WEEK_H)
    sim = Simulation(dc, "drowsy", "hourly")
    t0 = time.perf_counter()
    result = run_once(benchmark, sim.run, WEEK_H)
    benchmark.extra_info["wall_s"] = time.perf_counter() - t0
    assert result.hours == WEEK_H
    assert result.total_energy_kwh > 0.0


def test_hourly_speedup_and_parity():
    """Acceptance: >= 3x over the seed per-VM path at 1024 VMs x 168 h,
    with identical energy totals, migration counts and SLATAH."""
    n_vms, hours = 1024, WEEK_H

    dc_scalar = _fleet(n_vms, hours)
    sim_scalar = ScalarHourlySimulator(
        dc_scalar, build_controller("drowsy", dc_scalar, dc_scalar.params))
    t0 = time.perf_counter()
    scalar = sim_scalar.run(hours)
    scalar_s = time.perf_counter() - t0

    dc_fleet = _fleet(n_vms, hours)
    sim_fleet = Simulation(dc_fleet, "drowsy")
    t0 = time.perf_counter()
    fleet = sim_fleet.run(hours)
    fleet_s = time.perf_counter() - t0

    # Parity first: a fast-but-different simulator is worthless.
    assert fleet.total_energy_kwh == scalar.total_energy_kwh
    assert fleet.energy_kwh_by_host == scalar.energy_kwh_by_host
    assert fleet.migrations == scalar.migrations
    assert fleet.vm_migrations == scalar.vm_migrations
    assert fleet.slatah == scalar.slatah
    assert fleet.suspend_cycles_by_host == scalar.suspend_cycles_by_host

    speedup = scalar_s / fleet_s
    print(f"\nhourly 1024 VMs x {hours} h: scalar {scalar_s:.2f} s, "
          f"fleet-bound {fleet_s:.2f} s -> {speedup:.2f}x")
    # Local margin is 3.9-4.5x.  Shared CI runners are too noisy to gate
    # at the full bar, so CI only catches gross regressions; the 3x
    # acceptance floor is enforced on dedicated hardware.
    floor = 1.5 if os.environ.get("CI") else 3.0
    assert speedup >= floor, (
        f"columnar hot path regressed: {speedup:.2f}x < {floor}x "
        f"(scalar {scalar_s:.2f} s vs fleet {fleet_s:.2f} s)")


def test_hourly_host_accounting_speedup_and_parity():
    """Acceptance for the host-accounting layer (PR 2): with the fleet
    binding active in both runs, turning the columnar host view on must
    keep every observable identical and speed the 1024-VM hourly run up
    further (local margin ~1.6-1.9x; CI only gates parity + no gross
    regression)."""
    n_vms, hours = 1024, WEEK_H

    def run_off():
        sim = Simulation(_fleet(n_vms, hours), "drowsy",
                         config=HourlyConfig(use_host_accounting=False))
        t0 = time.perf_counter()
        return sim.run(hours), time.perf_counter() - t0

    def run_on():
        sim = Simulation(_fleet(n_vms, hours), "drowsy")
        t0 = time.perf_counter()
        return sim.run(hours), time.perf_counter() - t0

    # Interleaved min-of-2 per side: this floor is the tightest in the
    # file (~1.6x margin over 1.2x), so one background-load spike during
    # a single timed run can sink it on a busy box.
    (off, off_a), (on, on_a) = run_off(), run_on()
    (_, off_b), (_, on_b) = run_off(), run_on()
    off_s, on_s = min(off_a, off_b), min(on_a, on_b)

    assert on.total_energy_kwh == off.total_energy_kwh
    assert on.energy_kwh_by_host == off.energy_kwh_by_host
    assert on.migrations == off.migrations
    assert on.vm_migrations == off.vm_migrations
    assert on.slatah == off.slatah
    assert on.suspend_cycles_by_host == off.suspend_cycles_by_host

    speedup = off_s / on_s
    noise = max(on_a, on_b) / min(on_a, on_b) - 1.0
    print(f"\nhourly 1024 VMs x {hours} h: accounting off {off_s:.2f} s, "
          f"on {on_s:.2f} s -> {speedup:.2f}x (same-side noise "
          f"{100 * noise:.0f}%)")
    # A box whose identical same-side runs spread by `noise` cannot
    # resolve the full 1.2x bar; scale it down there (never below the
    # CI gross-regression gate).
    floor = 0.9 if os.environ.get("CI") else min(
        1.2, max(0.9, 1.2 / (1.0 + noise)))
    assert speedup >= floor, (
        f"host accounting regressed: {speedup:.2f}x < {floor}x "
        f"(off {off_s:.2f} s vs on {on_s:.2f} s)")


# ----------------------------------------------------------------------
# event-driven simulator
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n_vms,hours", [(64, 12), (256, 4), (1024, 1)])
def test_event_fleet_throughput(benchmark, n_vms, hours):
    dc = _fleet(n_vms, max(hours, 24))
    sim = Simulation(dc, "drowsy", "event")
    t0 = time.perf_counter()
    result = run_once(benchmark, sim.run, hours)
    wall_s = time.perf_counter() - t0
    assert result.events_processed > 0
    assert result.total_energy_kwh > 0.0
    # Recorded into BENCH_PR.json (extra_info) so the per-PR perf
    # trajectory covers the event simulator alongside the hourly one.
    benchmark.extra_info["events_processed"] = result.events_processed
    benchmark.extra_info["wall_s"] = wall_s
    benchmark.extra_info["events_per_s"] = result.events_processed / wall_s


def test_event_batched_speedup_and_parity(benchmark):
    """Acceptance for the batched event-driven hot path (DESIGN.md §10):
    fleet-wide suspend-check sweeps + bulk request scheduling + indexed
    wake path must beat the per-host event path by >= 3x in events/s
    at 1024 VMs, with a ``RunResult`` equal on every field but
    ``events_processed``.

    The full acceptance workload is 1024 VMs x 168 h; the oracle path
    alone takes ~13 min there, so the default run uses a 12 h horizon
    (the per-hour event mix is stationary — the ratio transfers) and
    ``BENCH_FULL=1`` selects the full week on dedicated hardware.

    The two runs are independent simulations over their own fleets, so
    they shard across cores like E8 cells (``EventParityCell`` from
    ``tests/oracles.py`` through ``SweepRunner``): the slow oracle
    overlaps the batched run instead of serializing behind it, roughly
    halving bench wall-clock.  Each worker measures its own wall-clock,
    so events/s stays a per-run number; ``BENCH_WORKERS=1`` restores
    the serial in-process path.
    """
    from repro.sim.sweep import SweepRunner
    from tests.oracles import EventParityCell, run_event_parity_cell

    n_vms = 1024
    hours = WEEK_H if os.environ.get("BENCH_FULL") else 12
    workers = int(os.environ.get("BENCH_WORKERS", "2"))

    cells = [EventParityCell(n_vms=n_vms, hours=hours, batched=False),
             EventParityCell(n_vms=n_vms, hours=hours, batched=True)]
    t0 = time.perf_counter()
    (old, old_s), (new, new_s) = run_once(
        benchmark, SweepRunner(workers=workers).map,
        run_event_parity_cell, cells)
    benchmark.extra_info["sharded_wall_s"] = time.perf_counter() - t0
    benchmark.extra_info["workers"] = workers

    # Parity first: a fast-but-different simulator is worthless.  The
    # hour-sticky checks skip check events whose verdict is already
    # known, so events_processed is the one field allowed to differ.
    assert_matches_oracle(new, old)

    # Both sides simulate the same workload; its event count is the
    # fixed-period oracle's, so events/s shares one numerator.
    work = old.events_processed
    old_eps = work / old_s
    new_eps = work / new_s
    speedup = new_eps / old_eps
    print(f"\nevent-driven {n_vms} VMs x {hours} h: per-host "
          f"{old_s:.2f} s ({old_eps:,.0f} ev/s), batched {new_s:.2f} s "
          f"({new_eps:,.0f} ev/s) -> {speedup:.2f}x")
    benchmark.extra_info["oracle_wall_s"] = old_s
    benchmark.extra_info["batched_wall_s"] = new_s
    benchmark.extra_info["oracle_events_per_s"] = old_eps
    benchmark.extra_info["batched_events_per_s"] = new_eps
    # Local margin is ~8-10x; shared CI runners only gate gross
    # regressions (same policy as the hourly acceptance floors).
    floor = 1.5 if os.environ.get("CI") else 3.0
    assert speedup >= floor, (
        f"batched event hot path regressed: {speedup:.2f}x < {floor}x "
        f"(per-host {old_s:.2f} s vs batched {new_s:.2f} s)")


@pytest.mark.parametrize("controller",
                         ["drowsy", "neat", "neat-distributed", "oasis"])
def test_event_batched_parity_all_controllers(controller):
    """Every controller family matches the per-host oracle on every
    ``RunResult`` field but ``events_processed``."""

    def run(backend):
        return Simulation(_fleet(32, 24), controller, backend).run(8)

    assert_matches_oracle(run("event"), run(PerHostEventBackend()))


def test_event_parity_small():
    """Fleet binding changes nothing observable in the event sim."""
    def run(backend):
        return Simulation(_fleet(64, 24), "drowsy", backend).run(6)

    scalar = run(PerHostEventBackend(per_host_checks=False,
                                     per_push_requests=False,
                                     binding="scalar"))
    fleet = run("event")
    assert fleet.total_energy_kwh == scalar.total_energy_kwh
    assert fleet.migrations == scalar.migrations
    assert fleet.request_summary == scalar.request_summary
    assert fleet.events_processed == scalar.events_processed
