"""Observability layer (DESIGN.md §17): deterministic metrics, span
tracing, profiling hooks, structured logging and live progress.

The heart of the suite is the bit-parity grid: for every backend and
controller, a run with *all* telemetry enabled produces a ``RunResult``
equal (``==``) to the telemetry-off run's — the frozen
:class:`~repro.obs.Telemetry` rides along on a ``compare=False`` field.
Around it: Chrome-trace schema and span-tiling invariants, cross-process
shard-span merging, metrics surviving checkpoint/resume, the wall-clock
vs simulated-clock observer contract, and a Hypothesis fuzz asserting
no :class:`~repro.obs.TelemetryConfig` ever changes a result.
"""

import dataclasses
import functools
import io
import itertools
import json
import pstats
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import RunResult, ShardedConfig, Simulation
from repro.api.observers import Observer, WallClockHour, hour_hook
from repro.core.calendar import time_of_hour
from repro.experiments.common import build_fleet
from repro.obs import (
    MetricsRecorder,
    ProgressObserver,
    Telemetry,
    TelemetryConfig,
    set_default_telemetry,
)
from repro.obs.progress import progress_line
from repro.resilience import CheckpointPolicy
from repro.sim.sweep import SweepRunner, grid

H = 10        # in-process horizons
SHARD_H = 8   # sharded horizons (3-4 hourly shards)


def small_fleet(hours=H):
    return build_fleet(n_hosts=4, n_vms=12, llmi_fraction=0.5,
                       hours=hours, seed=3)


def shard_fleet():
    return build_fleet(n_hosts=6, n_vms=16, llmi_fraction=0.5,
                       hours=SHARD_H, seed=3)


def build_sim(backend, controller="drowsy", **kw):
    if backend == "sharded":
        return Simulation(shard_fleet(), controller, "sharded",
                          config=ShardedConfig(shards=3, workers=0), **kw)
    return Simulation(small_fleet(), controller, backend, seed=3, **kw)


def horizon(backend):
    return SHARD_H if backend == "sharded" else H


@functools.lru_cache(maxsize=None)
def plain_shard_hourly(controller="drowsy"):
    """The sharded fleet on the plain hourly backend, relabelled: what
    every sharded run must reduce to."""
    result = Simulation(shard_fleet(), controller, "hourly").run(SHARD_H)
    return dataclasses.replace(result, backend="sharded")


@functools.lru_cache(maxsize=None)
def base_result(backend, controller="drowsy"):
    """The telemetry-off oracle, computed once per (backend, controller)."""
    result = build_sim(backend, controller).run(horizon(backend))
    if backend == "sharded":
        assert result == plain_shard_hourly(controller)
    return result


# ----------------------------------------------------------------------
# bit parity: telemetry on == telemetry off, per backend x controller
# ----------------------------------------------------------------------
class TestBitParity:
    @pytest.mark.parametrize("backend", ["hourly", "event", "sharded"])
    @pytest.mark.parametrize("controller", ["drowsy", "neat"])
    def test_full_telemetry_changes_nothing(self, tmp_path, backend,
                                            controller):
        trace = tmp_path / "run.trace.json"
        prof = tmp_path / "run.pstats"
        sim = build_sim(backend, controller, telemetry=TelemetryConfig(
            metrics=True, trace=str(trace),
            profile="cprofile", profile_out=str(prof)))
        full = sim.run(horizon(backend))
        assert full == base_result(backend, controller)
        tel = full.telemetry
        assert isinstance(tel, Telemetry)
        assert tel.backend == backend
        assert tel.hours == tuple(range(horizon(backend)))
        assert tel.spans >= horizon(backend)  # at least the hour spans
        assert json.loads(trace.read_text())["traceEvents"]
        pstats.Stats(str(prof))  # parses as a valid pstats dump
        assert tel.trace_path == str(trace)
        assert tel.profile_path == str(prof)
        assert "telemetry (" in tel.render()

    def test_off_path_installs_nothing(self):
        sim = build_sim("event")
        assert sim.telemetry is None
        assert sim.engine._obs is None
        assert not any(isinstance(o, ProgressObserver)
                       for o in sim.observers)
        assert sim.run(H).telemetry is None

    def test_metrics_series_shape(self):
        sim = build_sim("event", telemetry=TelemetryConfig(metrics=True))
        tel = sim.run(H).telemetry
        # One value per sampled hour for every series, counters
        # cumulative (monotone) where they should be.
        for name, col in tel.series.items():
            assert len(col) == H, name
        processed = tel.series["events_processed"]
        assert all(a <= b for a, b in zip(processed, processed[1:]))
        # The run-end total samples after the final drain, so it can
        # only ever be at or past the last hourly row.
        assert tel.totals["events_processed"] >= processed[-1]


# ----------------------------------------------------------------------
# trace schema and span invariants
# ----------------------------------------------------------------------
def trace_events(path):
    doc = json.loads(path.read_text())
    assert set(doc) == {"traceEvents", "displayTimeUnit"}
    return doc["traceEvents"]


class TestTrace:
    def test_schema_tiling_and_nesting(self, tmp_path):
        path = tmp_path / "event.trace.json"
        build_sim("event", telemetry=TelemetryConfig(
            trace=str(path))).run(H)
        events = trace_events(path)
        for e in events:
            assert {"name", "ph", "pid", "tid"} <= set(e)
            if e["ph"] == "X":
                assert e["ts"] >= 0 and e["dur"] >= 0
        hours = [e for e in events
                 if e["ph"] == "X" and e["name"] == "hour"]
        assert [e["args"]["t"] for e in hours] == list(range(H))
        # Hour spans tile the run: monotonic, no gaps, no overlaps.
        for a, b in zip(hours, hours[1:]):
            assert b["ts"] == pytest.approx(a["ts"] + a["dur"], abs=0.5)
        # Phase spans nest inside exactly one hour span.
        phases = [e for e in events
                  if e["ph"] == "X" and e.get("cat") == "phase"]
        assert {p["name"] for p in phases} >= {"consolidate", "requests"}
        for p in phases:
            assert sum(1 for h in hours
                       if h["ts"] - 0.5 <= p["ts"]
                       and p["ts"] + p["dur"] <= h["ts"] + h["dur"] + 0.5
                       ) == 1

    def test_shard_spans_merged_with_pid_tags(self, tmp_path):
        path = tmp_path / "sharded.trace.json"
        result = Simulation(shard_fleet(), "drowsy", "sharded",
                            config=ShardedConfig(shards=4, workers=0),
                            telemetry=TelemetryConfig(trace=str(path))
                            ).run(SHARD_H)
        assert result == plain_shard_hourly()
        events = trace_events(path)
        # Synthetic deterministic pids: coordinator 0, shard k -> k+1
        # (thread workers share one OS pid, so real pids won't do).
        assert {e["pid"] for e in events} == {0, 1, 2, 3, 4}
        names = {e["pid"]: e["args"]["name"] for e in events
                 if e["ph"] == "M"}
        assert names[0] == "driver"
        assert all(names[k + 1] == f"shard {k}" for k in range(4))
        for pid in range(5):
            lane = [e for e in events
                    if e["pid"] == pid and e["ph"] == "X"
                    and e["name"] == "hour"]
            assert [e["args"]["t"] for e in lane] == list(range(SHARD_H))
        # Coordinator phases cover the sharded hot spots.
        coord = {e["name"] for e in events
                 if e["pid"] == 0 and e.get("cat") == "phase"}
        assert coord >= {"shard-digests", "consolidate",
                         "observer-exchange"}


# ----------------------------------------------------------------------
# metrics across checkpoint/resume
# ----------------------------------------------------------------------
class TestCheckpointed:
    def test_metrics_survive_resume(self, tmp_path):
        base = base_result("event")
        sim = build_sim("event",
                        checkpoint=CheckpointPolicy(dir=str(tmp_path),
                                                    every_h=3),
                        telemetry=TelemetryConfig(metrics=True))
        full = sim.run(H)
        assert full == base
        assert full.telemetry.hours == tuple(range(H))
        assert full.telemetry.totals["checkpoint_writes"] == 3
        assert full.telemetry.totals["checkpoint_bytes"] > 0
        # Resume from the earliest snapshot: the result is still byte
        # identical and the restored recorder kept its pre-crash
        # samples, so the final telemetry covers every hour.
        earliest = sorted(tmp_path.glob("*.ckpt"))[0]
        resumed = Simulation.resume(earliest).run()
        assert resumed == base
        assert resumed.telemetry is not None
        assert resumed.telemetry.hours == tuple(range(H))


# ----------------------------------------------------------------------
# observer clock contract (the on_hour ``now`` fix)
# ----------------------------------------------------------------------
class WallRecorder(Observer):
    def __init__(self):
        self.nows = []

    def on_hour(self, t, now):
        self.nows.append(now)


class SimRecorder(WallRecorder):
    wants_sim_time = True


class TestObserverClock:
    def test_now_is_wall_clock_unless_opted_out(self):
        wall, simt = WallRecorder(), SimRecorder()
        before = time.time()
        Simulation(small_fleet(6), "drowsy", "hourly",
                   observers=(wall, simt)).run(6)
        after = time.time()
        # Observers get time.time() at the boundary, uniform across
        # backends; wants_sim_time opts into the engine's clock.
        assert len(wall.nows) == 6
        assert all(before <= now <= after for now in wall.nows)
        assert simt.nows == [time_of_hour(t) for t in range(6)]

    def test_hour_hook_routing(self):
        wall, simt = WallRecorder(), SimRecorder()
        assert isinstance(hour_hook(wall), WallClockHour)
        assert hour_hook(simt) == simt.on_hour
        # The adapter substitutes the wall clock for the sim clock.
        hour_hook(wall)(0, 3600.0)
        assert wall.nows[0] == pytest.approx(time.time(), abs=5.0)


# ----------------------------------------------------------------------
# fuzz: no telemetry config changes a result
# ----------------------------------------------------------------------
_fuzz_ids = itertools.count()


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(metrics=st.booleans(), trace=st.booleans(),
       profile=st.booleans(), progress=st.booleans())
def test_fuzz_configs_never_change_results(tmp_path, metrics, trace,
                                           profile, progress):
    n = next(_fuzz_ids)
    cfg = TelemetryConfig(
        metrics=metrics,
        trace=str(tmp_path / f"t{n}.json") if trace else None,
        profile="cprofile" if profile else None,
        profile_out=str(tmp_path / f"p{n}.pstats"),
        progress=progress)
    sim = Simulation(small_fleet(6), "drowsy", "hourly", telemetry=cfg)
    result = sim.run(6)
    assert result == Simulation(small_fleet(6), "drowsy", "hourly").run(6)
    assert (result.telemetry is not None) == cfg.enabled


# ----------------------------------------------------------------------
# config, defaults, persistence
# ----------------------------------------------------------------------
class TestConfig:
    def test_unknown_profiler_rejected(self):
        with pytest.raises(ValueError, match="cprofile"):
            TelemetryConfig(profile="perf")

    def test_disabled_config_installs_nothing(self):
        sim = build_sim("hourly", telemetry=TelemetryConfig())
        assert sim.telemetry is None

    def test_default_staged_and_paths_uniquified(self, tmp_path):
        set_default_telemetry(TelemetryConfig(
            trace=str(tmp_path / "run.trace.json")))
        try:
            a = Simulation(small_fleet(6), "drowsy", "hourly")
            b = Simulation(small_fleet(6), "drowsy", "hourly")
            assert a.telemetry.config.trace.endswith("run.trace.json")
            assert b.telemetry.config.trace.endswith("run-2.trace.json")
        finally:
            set_default_telemetry(None)
        assert Simulation(small_fleet(6), "drowsy",
                          "hourly").telemetry is None

    def test_result_persistence_drops_telemetry(self, tmp_path):
        result = build_sim("hourly", telemetry=TelemetryConfig(
            metrics=True)).run(H)
        assert result.telemetry is not None
        out = tmp_path / "result.csv"
        result.save(out)
        loaded = RunResult.load(out)
        assert loaded.telemetry is None
        assert loaded == result  # telemetry is outside equality

    def test_recorder_backfills_new_keys(self):
        rec = MetricsRecorder()
        rec.sample_hour(0, {"a": 1})
        rec.sample_hour(1, {"a": 2, "b": 5})
        rec.sample_hour(2, {"b": 6})
        assert rec.hours == [0, 1, 2]
        assert rec.series == {"a": [1, 2, 2], "b": [0, 5, 6]}


# ----------------------------------------------------------------------
# progress (satellite: opt-in, TTY-gated, results untouched)
# ----------------------------------------------------------------------
class FakeTty(io.StringIO):
    def isatty(self):
        return True


class TestProgress:
    def test_observer_draws_and_changes_nothing(self):
        stream = FakeTty()
        obs = ProgressObserver(stream=stream, min_interval_s=0.0)
        result = Simulation(small_fleet(), "drowsy", "hourly", seed=3,
                            observers=(obs,)).run(H)
        assert result == base_result("hourly")
        assert f"hour {H}/{H}" in stream.getvalue()

    def test_non_tty_writes_nothing(self):
        stream = io.StringIO()
        obs = ProgressObserver(stream=stream, min_interval_s=0.0)
        Simulation(small_fleet(6), "drowsy", "hourly",
                   observers=(obs,)).run(6)
        assert stream.getvalue() == ""

    def test_progress_line_tty_gate(self):
        tty, plain = FakeTty(), io.StringIO()
        progress_line(1, 4, time.time() - 2.0, stream=tty)
        assert "cells 1/4" in tty.getvalue()
        progress_line(1, 4, time.time() - 2.0, stream=plain)
        assert plain.getvalue() == ""

    def test_sweep_runner_progress(self, monkeypatch):
        cells = grid(controllers=("drowsy",), sizes=(8,), seeds=(7,),
                     hours=6)
        plain = SweepRunner().run(cells)
        stream = FakeTty()
        monkeypatch.setattr("sys.stderr", stream)
        shown = SweepRunner(progress=True).run(cells)
        assert shown == plain
        assert "cells 1/1" in stream.getvalue()
