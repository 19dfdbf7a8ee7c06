"""Checkpoint layer benches (DESIGN.md §16).

Two guards:

* a run that does **not** checkpoint must not pay for the feature: the
  hour-hook plumbing plus an attached-but-idle manager (``every_h``
  beyond the horizon, so zero snapshots) must cost < 3 % wall-clock vs
  a run with no checkpointer at all;
* the snapshot itself has a measured price: per-checkpoint write cost
  (capture + digest + atomic rename) and bytes on disk land in
  BENCH_PR.json (``extra_info``) for the per-PR perf trajectory, and
  a resumed run must reproduce the uninterrupted result exactly.
"""

import gc
import os
import time
from pathlib import Path

from benchmarks.conftest import run_once
from repro.api import Simulation
from repro.experiments.common import build_fleet
from repro.resilience import CheckpointPolicy

HOURS = 72


def _run(checkpoint=None, hours=HOURS):
    dc = build_fleet(n_hosts=16, n_vms=64, llmi_fraction=0.5,
                     hours=hours, seed=7)
    sim = Simulation(dc, "drowsy", "event", seed=7, checkpoint=checkpoint)
    # Start every timed run from the same collector state, as
    # test_bench_faults.py does: a full gen-2 pass over the session
    # heap would otherwise land in whichever run trips it.
    gc.collect()
    t0 = time.perf_counter()
    result = sim.run(hours)
    return time.perf_counter() - t0, result, sim


def test_idle_checkpointer_overhead(benchmark, tmp_path):
    """Checkpointing off must be free: min-of-3 wall-clock of a run
    whose manager never fires within 3 % of a checkpointer-free run
    (same fleet, same seed — the runs are bit-identical, so any delta
    IS the hook cost)."""
    idle = CheckpointPolicy(dir=str(tmp_path), every_h=HOURS + 1)

    def idle_run():
        return _run(idle)

    # Interleave the two sides (the test_bench_faults pattern): timing
    # all plain runs before all idle runs would let machine-load drift
    # read as hook overhead; alternating rounds expose both sides to
    # the same drift.
    plain_times, times = [], []
    for _ in range(2):
        plain_times.append(_run(None)[0])
        times.append(idle_run()[0])
    plain_times.append(_run(None)[0])
    elapsed, result, sim = run_once(benchmark, idle_run)
    times.append(elapsed)
    plain_s = min(plain_times)
    idle_s = min(times)
    assert sim.checkpointer.written == 0  # it really never fired
    assert not list(Path(tmp_path).glob("*.ckpt"))

    overhead = idle_s / plain_s - 1.0
    benchmark.extra_info["plain_wall_s"] = plain_s
    benchmark.extra_info["idle_checkpoint_wall_s"] = idle_s
    benchmark.extra_info["overhead_pct"] = 100.0 * overhead
    # Same noise-aware ceiling as the fault-hook bench: a box whose
    # identical plain runs spread wider than the gate cannot resolve a
    # 3 % delta either.
    noise = max(plain_times) / min(plain_times) - 1.0
    benchmark.extra_info["plain_noise_pct"] = 100.0 * noise
    ceiling = 0.15 if os.environ.get("CI") else max(0.03, noise)
    assert overhead <= ceiling, (
        f"idle checkpointer costs {100 * overhead:.1f}% on the hot path "
        f"(ceiling {100 * ceiling:.0f}%)")


def test_checkpoint_write_cost(benchmark, tmp_path):
    """Price one snapshot: wall-clock per checkpoint and bytes on disk,
    at an hourly cadence over the full horizon; the resumed run must
    equal the uninterrupted one."""
    plain_s, base, _ = _run(None)

    policy = CheckpointPolicy(dir=str(tmp_path), every_h=1)
    elapsed, result, sim = run_once(benchmark, _run, policy)
    assert result == base  # checkpointing perturbs nothing
    assert sim.checkpointer.written == HOURS

    files = sorted(Path(tmp_path).glob("*.ckpt"))
    total_bytes = sum(f.stat().st_size for f in files)
    write_s = max(0.0, elapsed - plain_s)
    benchmark.extra_info["checkpoints_written"] = sim.checkpointer.written
    benchmark.extra_info["checkpoint_total_wall_s"] = write_s
    benchmark.extra_info["checkpoint_wall_s_each"] = (
        write_s / sim.checkpointer.written)
    benchmark.extra_info["checkpoint_bytes_each"] = (
        total_bytes // len(files))

    resumed = Simulation.resume(files[len(files) // 2]).run()
    assert resumed == base
