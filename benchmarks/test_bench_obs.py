"""Observability layer benches (DESIGN.md §17).

Two overhead floors, both against the same fleet/seed (the runs are
bit-identical, so any wall-clock delta IS the telemetry cost):

* telemetry **off** must be free: building a simulation with a
  disabled ``TelemetryConfig`` installs zero hooks, so its wall-clock
  must sit within 1 % of a run built with no config at all;
* **metrics on** has a measured price: one pulled counter sample per
  hour boundary must cost < 5 %.

Both gates are noise-aware like the checkpoint/fault benches: a box
whose identical plain runs spread wider than the gate cannot resolve
the delta, so the ceiling grows to the measured noise (and to 15 % in
CI).  Measured overheads land in BENCH_PR.json (``extra_info``) for
the per-PR perf trajectory.
"""

import gc
import os
import time

from benchmarks.conftest import run_once
from repro.api import Simulation
from repro.experiments.common import build_fleet
from repro.obs import TelemetryConfig

HOURS = 72


def _run(telemetry=None, hours=HOURS):
    dc = build_fleet(n_hosts=16, n_vms=64, llmi_fraction=0.5,
                     hours=hours, seed=7)
    sim = Simulation(dc, "drowsy", "event", seed=7, telemetry=telemetry)
    # Start every timed run from the same collector state, as
    # test_bench_faults.py does: a full gen-2 pass over the session
    # heap would otherwise land in whichever run trips it.
    gc.collect()
    t0 = time.perf_counter()
    result = sim.run(hours)
    return time.perf_counter() - t0, result, sim


def _interleaved(benchmark, feature_cfg):
    """Min-of-3 per side, alternating rounds so machine-load drift hits
    both sides equally instead of reading as feature overhead."""
    plain_times, feature_times = [], []
    for _ in range(2):
        plain_times.append(_run(None)[0])
        feature_times.append(_run(feature_cfg)[0])
    plain_s, plain_result, _ = _run(None)
    plain_times.append(plain_s)
    elapsed, result, sim = run_once(benchmark, _run, feature_cfg)
    feature_times.append(elapsed)
    assert result == plain_result  # telemetry perturbs nothing
    return plain_times, feature_times, result, sim


def test_telemetry_off_is_free(benchmark):
    """The off path adds no observer, no engine hook, no clock read —
    enforced here as a < 1 % wall-clock floor."""
    disabled = TelemetryConfig()
    plain_times, off_times, result, sim = _interleaved(benchmark, disabled)
    assert sim.telemetry is None        # nothing was installed
    assert sim.engine._obs is None
    plain_s, off_s = min(plain_times), min(off_times)

    overhead = off_s / plain_s - 1.0
    noise = max(plain_times) / min(plain_times) - 1.0
    benchmark.extra_info["plain_wall_s"] = plain_s
    benchmark.extra_info["telemetry_off_wall_s"] = off_s
    benchmark.extra_info["overhead_pct"] = 100.0 * overhead
    benchmark.extra_info["plain_noise_pct"] = 100.0 * noise
    ceiling = 0.15 if os.environ.get("CI") else max(0.01, noise)
    assert overhead <= ceiling, (
        f"telemetry-off costs {100 * overhead:.1f}% on the hot path "
        f"(ceiling {100 * ceiling:.0f}%)")


def test_metrics_on_overhead(benchmark):
    """Metrics sampling is one dict pull per hour boundary: < 5 %
    wall-clock, and the result must stay byte-identical."""
    cfg = TelemetryConfig(metrics=True)
    plain_times, on_times, result, sim = _interleaved(benchmark, cfg)
    assert result.telemetry is not None
    assert result.telemetry.hours == tuple(range(HOURS))
    plain_s, on_s = min(plain_times), min(on_times)

    overhead = on_s / plain_s - 1.0
    noise = max(plain_times) / min(plain_times) - 1.0
    benchmark.extra_info["plain_wall_s"] = plain_s
    benchmark.extra_info["metrics_on_wall_s"] = on_s
    benchmark.extra_info["overhead_pct"] = 100.0 * overhead
    benchmark.extra_info["plain_noise_pct"] = 100.0 * noise
    benchmark.extra_info["series_count"] = len(result.telemetry.series)
    ceiling = 0.15 if os.environ.get("CI") else max(0.05, noise)
    assert overhead <= ceiling, (
        f"metrics-on costs {100 * overhead:.1f}% "
        f"(ceiling {100 * ceiling:.0f}%)")
