"""Crash-safe execution (DESIGN.md §16).

Covers the resilience layer's three contracts:

* **checkpoint/resume determinism** — a run resumed from *any*
  hour-boundary checkpoint produces a ``RunResult`` byte-identical
  (``==``, fault summary included) to the uninterrupted run, on every
  backend and under fault injection;
* **self-healing supervision** — sharded workers and sweep cells that
  are killed or hung mid-run are respawned from their last boundary
  snapshot (or from scratch), with bounded retries and degradation to
  in-process execution, without perturbing the result;
* **atomic artifacts** — checkpoints, sweep tables and run results are
  written via temp-file + rename, so a crash mid-save can never leave
  a truncated file.
"""

from __future__ import annotations

import dataclasses
import functools
import io
import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.api import Simulation
from repro.api.sharded import ShardedConfig
from repro.core.binding import FleetBinding
from repro.core.serialize import model_to_bytes, save_fleet
from repro.experiments.common import build_fleet
from repro.faults import FaultPlan, HostCrashFaults, WolFaults
from repro.resilience import (
    CHECKPOINT_VERSION,
    Checkpoint,
    CheckpointError,
    CheckpointPolicy,
    ChaosCell,
    ChaosKill,
    ShardChaos,
    ShardTimeoutError,
    SupervisorPolicy,
    SweepJournal,
    atomic_target,
    atomic_write_text,
    latest_checkpoint,
    list_checkpoints,
    run_chaos_cell,
    supervised_map,
)
from repro.sim.sweep import SweepRunner, SweepTable, grid

H = 6
SHARD_H = 8

LOSSY = FaultPlan(name="lossy",
                  wol=WolFaults(loss_probability=0.25),
                  crashes=HostCrashFaults(rate_per_host_per_h=0.05,
                                          recover_after_s=900.0))

FAST_POLICY = SupervisorPolicy(max_restarts=3, backoff_base_s=0.01,
                               deadline_s=30.0)


def small_fleet():
    return build_fleet(n_hosts=4, n_vms=12, llmi_fraction=0.5,
                       hours=H, seed=3)


def shard_fleet():
    return build_fleet(n_hosts=6, n_vms=18, llmi_fraction=0.5,
                       hours=SHARD_H, seed=3)


@functools.lru_cache(maxsize=None)
def plain_result(backend: str, faulty: bool):
    """The uninterrupted oracle run, computed once per (backend, plan)."""
    sim = Simulation(small_fleet(), "drowsy", backend, seed=3,
                     faults=LOSSY if faulty else None)
    return sim.run(H)


@functools.lru_cache(maxsize=None)
def sharded_base():
    """The undisturbed thread-mode run every chaos run must reproduce;
    itself bit-identical to the plain hourly run."""
    base = Simulation(shard_fleet(), "drowsy", "sharded",
                      config=ShardedConfig(shards=3, workers=0)
                      ).run(SHARD_H)
    plain = Simulation(shard_fleet(), "drowsy", "hourly").run(SHARD_H)
    assert dataclasses.replace(base, backend="hourly") == plain
    return base


#: The early-kill regression case, run in a child process: a SIGKILL
#: that wrongly lands in the coordinator's process must fail this test,
#: not the whole pytest run.
EARLY_KILL_CHILD = """
import pickle
import sys

from repro.api import ShardedConfig, Simulation
from repro.experiments.common import build_fleet
from repro.resilience import ShardChaos, SupervisorPolicy

sim = Simulation(
    build_fleet(6, 18, 0.5, 8, seed=3), "drowsy", "sharded",
    config=ShardedConfig(
        shards=3, inner="hourly", workers=2,
        supervise=SupervisorPolicy(max_restarts=3, backoff_base_s=0.01,
                                   deadline_s=30),
        chaos=ShardChaos(kill_worker_at_hour=((0, 2),))))
result = sim.run(8)
with open(sys.argv[1], "wb") as fh:
    pickle.dump((result, sim.engine._restarts, sim.engine._workers_mode),
                fh)
"""


# ----------------------------------------------------------------------
# checkpoint/resume: in-process backends
# ----------------------------------------------------------------------
class TestCheckpointResume:
    @pytest.mark.parametrize("backend", ["hourly", "event"])
    @pytest.mark.parametrize("faulty", [False, True])
    def test_resume_every_boundary_byte_identical(self, tmp_path, backend,
                                                  faulty):
        base = plain_result(backend, faulty)
        sim = Simulation(small_fleet(), "drowsy", backend, seed=3,
                         faults=LOSSY if faulty else None,
                         checkpoint=CheckpointPolicy(dir=str(tmp_path)))
        assert sim.run(H) == base  # checkpointing perturbs nothing
        ckpts = sorted(tmp_path.glob("*.ckpt"))
        assert len(ckpts) == H
        for path in ckpts:
            resumed = Simulation.resume(path).run()
            assert resumed == base
            assert resumed.fault_summary == base.fault_summary

    def test_scenario_churn_resume(self, tmp_path):
        base = Simulation.from_scenario(
            "dev-churn", seed=1, backend="event", hours=8,
            scale=0.25).run()
        sim = Simulation.from_scenario(
            "dev-churn", seed=1, backend="event", hours=8, scale=0.25,
            checkpoint=CheckpointPolicy(dir=str(tmp_path), every_h=3))
        assert sim.run() == base
        for path in sorted(tmp_path.glob("*.ckpt")):
            assert Simulation.resume(path).run() == base

    @pytest.mark.parametrize("backend", ["hourly", "event"])
    def test_checkpoint_holds_the_activities_once(self, tmp_path, backend,
                                                  monkeypatch):
        """A ``build_fleet`` run's binding reads its horizon from the
        traces' own matrix: a checkpoint leaves that matrix out (the
        traces carry the activities) and a resume rebuilds it."""
        def simulation(**kw):
            return Simulation(build_fleet(16, 64, 0.5, 24, seed=3),
                              "drowsy", backend, seed=3, **kw)

        base = simulation().run(H)
        sim = simulation(checkpoint=CheckpointPolicy(dir=str(tmp_path)))
        assert sim.run(H) == base
        binding = sim.engine._binding
        matrix = binding._matrix
        assert np.shares_memory(matrix, binding.vms[0].trace.activities)
        lean = len(pickle.dumps(sim, protocol=pickle.HIGHEST_PROTOCOL))
        monkeypatch.setattr(FleetBinding, "__getstate__",
                            lambda binding: binding.__dict__)
        full = len(pickle.dumps(sim, protocol=pickle.HIGHEST_PROTOCOL))
        monkeypatch.undo()
        assert full - lean >= matrix.nbytes
        for path in sorted(tmp_path.glob("*.ckpt"))[:3]:
            resumed = Simulation.resume(path)
            assert resumed.engine._binding._matrix is None
            assert resumed.run() == base

    @pytest.mark.parametrize("backend", ["hourly", "event"])
    def test_maintenance_churn_resume(self, tmp_path, backend):
        # Checkpoints before, inside (hour 18) and after the first
        # maintenance window (hours 12-20): the injector's drain, power
        # and wake effects resume through the restored façade.
        base = Simulation.from_scenario(
            "maintenance-churn", seed=2, backend=backend, hours=24).run()
        sim = Simulation.from_scenario(
            "maintenance-churn", seed=2, backend=backend, hours=24,
            checkpoint=CheckpointPolicy(dir=str(tmp_path), every_h=6))
        assert sim.run() == base
        assert sim.churn.vms_evacuated > 0
        for path in sorted(tmp_path.glob("*.ckpt")):
            resumed = Simulation.resume(path)
            assert resumed.churn.simulation is resumed
            assert resumed.run() == base

    def test_resume_directory_picks_most_advanced(self, tmp_path):
        sim = Simulation(small_fleet(), "drowsy", "hourly", seed=3,
                         checkpoint=CheckpointPolicy(dir=str(tmp_path),
                                                     every_h=2))
        sim.run(H)
        resumed = Simulation.resume(tmp_path)
        assert resumed.engine._next_hour == H
        assert resumed.run() == plain_result("hourly", False)

    def test_resumed_run_rejects_new_horizon(self, tmp_path):
        sim = Simulation(small_fleet(), "drowsy", "hourly", seed=3,
                         checkpoint=CheckpointPolicy(dir=str(tmp_path)))
        sim.run(H)
        resumed = Simulation.resume(tmp_path)
        with pytest.raises(ValueError, match="original horizon"):
            resumed.run(H + 4)

    def test_checkpoint_every_and_keep(self, tmp_path):
        sim = Simulation(small_fleet(), "drowsy", "hourly", seed=3,
                         checkpoint=CheckpointPolicy(dir=str(tmp_path),
                                                     every_h=2, keep=2))
        sim.run(H)
        names = sorted(p.name for p in tmp_path.glob("*.ckpt"))
        assert names == ["run-h00004.ckpt", "run-h00006.ckpt"]

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="every_h"):
            CheckpointPolicy(dir="x", every_h=0)
        with pytest.raises(ValueError, match="keep"):
            CheckpointPolicy(dir="x", keep=-1)

    def test_default_policy_is_taken_and_label_uniquified(self, tmp_path):
        from repro.resilience.checkpoint import set_default_policy

        set_default_policy(CheckpointPolicy(dir=str(tmp_path), every_h=3))
        try:
            Simulation(small_fleet(), "drowsy", "hourly", seed=3).run(H)
            Simulation(small_fleet(), "drowsy", "hourly", seed=3).run(H)
        finally:
            set_default_policy(None)
        labels = {p.name.rsplit("-h", 1)[0]
                  for p in tmp_path.glob("*.ckpt")}
        assert labels == {"run", "run-2"}
        # cleared: no further simulations checkpoint
        Simulation(small_fleet(), "drowsy", "hourly", seed=3).run(H)
        assert len(list(tmp_path.glob("*.ckpt"))) == 4


# ----------------------------------------------------------------------
# checkpoint files: versioning, digest, discovery
# ----------------------------------------------------------------------
class TestCheckpointFiles:
    def _one_checkpoint(self, tmp_path) -> Path:
        sim = Simulation(small_fleet(), "drowsy", "hourly", seed=3,
                         checkpoint=CheckpointPolicy(dir=str(tmp_path),
                                                     every_h=H))
        sim.run(H)
        (path,) = tmp_path.glob("*.ckpt")
        return path

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            Checkpoint.load(tmp_path / "absent.ckpt")

    def test_non_checkpoint_file_raises(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(pickle.dumps({"magic": "something-else"}))
        with pytest.raises(CheckpointError, match="not a repro checkpoint"):
            Checkpoint.load(path)

    def test_version_mismatch_raises(self, tmp_path):
        path = self._one_checkpoint(tmp_path)
        wrapper = pickle.loads(path.read_bytes())
        wrapper["version"] = 99
        path.write_bytes(pickle.dumps(wrapper))
        with pytest.raises(CheckpointError, match="format 99"):
            Checkpoint.load(path)

    def test_previous_version_refused(self, tmp_path):
        # Version-8 checkpoints hold the arrival stream as lists of
        # times, names and service times; this build must not unpickle
        # that layout.
        assert CHECKPOINT_VERSION == 9
        path = self._one_checkpoint(tmp_path)
        wrapper = pickle.loads(path.read_bytes())
        wrapper["version"] = CHECKPOINT_VERSION - 1
        path.write_bytes(pickle.dumps(wrapper))
        with pytest.raises(CheckpointError,
                           match=f"format 8; this build reads {CHECKPOINT_VERSION}"):
            Checkpoint.load(path)

    def test_round_trip_keeps_model_files(self, tmp_path):
        """A checkpoint's fleet saves the same model files (every array's
        dtype, shape and bytes) after a load as before the save."""
        def archives(sim) -> list[dict]:
            binding = sim.engine._binding
            buf = io.BytesIO()
            save_fleet(binding.fleet, buf)
            blobs = [buf.getvalue()] + [model_to_bytes(vm.model)
                                        for vm in binding.vms]
            out = []
            for blob in blobs:
                with np.load(io.BytesIO(blob)) as data:
                    out.append({k: (data[k].dtype, data[k].shape,
                                    data[k].tobytes()) for k in data.files})
            return out

        sim = Simulation(small_fleet(), "drowsy", "hourly", seed=3,
                         checkpoint=CheckpointPolicy(dir=str(tmp_path),
                                                     every_h=H))
        sim.run(H)
        before = archives(sim)
        assert before[0]["siy_rows"][1][:2] == (12, 1)  # (n, k) written days
        (path,) = tmp_path.glob("*.ckpt")
        assert archives(Simulation.resume(path)) == before

    def test_corrupt_payload_fails_digest(self, tmp_path):
        path = self._one_checkpoint(tmp_path)
        wrapper = pickle.loads(path.read_bytes())
        payload = bytearray(wrapper["payload"])
        payload[len(payload) // 2] ^= 0xFF
        wrapper["payload"] = bytes(payload)
        path.write_bytes(pickle.dumps(wrapper))
        with pytest.raises(CheckpointError, match="digest"):
            Checkpoint.load(path)

    def test_discovery_skips_junk_and_orders_by_hour(self, tmp_path):
        sim = Simulation(small_fleet(), "drowsy", "hourly", seed=3,
                         checkpoint=CheckpointPolicy(dir=str(tmp_path),
                                                     every_h=2))
        sim.run(H)
        (tmp_path / "broken.ckpt").write_bytes(b"not a pickle at all")
        infos = list_checkpoints(tmp_path)
        assert [i.meta["hour"] for i in infos] == [1, 3, 5]
        assert "hourly" in infos[-1].describe()
        assert latest_checkpoint(tmp_path).name == "run-h00006.ckpt"

    def test_latest_checkpoint_empty_dir_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoints"):
            latest_checkpoint(tmp_path)
        assert list_checkpoints(tmp_path / "absent") == []


# ----------------------------------------------------------------------
# sharded backend: supervision, chaos, checkpoint/resume
# ----------------------------------------------------------------------
class TestShardedResilience:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="timeout_s"):
            ShardedConfig(shards=2, timeout_s=0.0)
        with pytest.raises(ValueError, match="workers >= 1"):
            ShardedConfig(shards=2, workers=0,
                          chaos=ShardChaos(kill_worker_at_hour=((0, 1),)))

    def test_thread_mode_checkpoint_resume(self, tmp_path):
        sim = Simulation(shard_fleet(), "drowsy", "sharded",
                         config=ShardedConfig(shards=3, workers=0),
                         checkpoint=CheckpointPolicy(dir=str(tmp_path),
                                                     every_h=3))
        assert sim.run(SHARD_H) == sharded_base()
        ckpts = sorted(tmp_path.glob("*.ckpt"))
        assert len(ckpts) == 2
        for path in ckpts:
            assert Simulation.resume(path).run() == sharded_base()

    @settings(deadline=None, max_examples=3)
    @given(data=st.data())
    def test_property_chaos_byte_identical(self, data):
        """Kill or hang a random worker at a random hour; the
        supervised run's result is byte-identical regardless."""
        shard = data.draw(st.integers(0, 2), label="shard")
        hour = data.draw(st.integers(1, SHARD_H - 2), label="hour")
        if data.draw(st.booleans(), label="kill"):
            chaos = ShardChaos(kill_worker_at_hour=((shard, hour),))
            policy = FAST_POLICY
        else:
            chaos = ShardChaos(hang_worker_at_hour=((shard, hour),),
                               hang_s=60.0)
            policy = SupervisorPolicy(max_restarts=3, backoff_base_s=0.01,
                                      deadline_s=3.0)
        sim = Simulation(shard_fleet(), "drowsy", "sharded",
                         config=ShardedConfig(shards=3, workers=2,
                                              supervise=policy, chaos=chaos))
        assert sim.run(SHARD_H) == sharded_base()

    def test_degrades_to_threads_when_restarts_exhausted(self):
        policy = SupervisorPolicy(max_restarts=0, backoff_base_s=0.01,
                                  deadline_s=30.0)
        chaos = ShardChaos(kill_worker_at_hour=((2, 3),))
        sim = Simulation(shard_fleet(), "drowsy", "sharded",
                         config=ShardedConfig(shards=3, workers=2,
                                              supervise=policy, chaos=chaos))
        assert sim.run(SHARD_H) == sharded_base()
        assert sim.engine._workers_mode == 0  # finished on threads

    def test_chaos_plus_checkpoint_resume(self, tmp_path):
        chaos = ShardChaos(kill_worker_at_hour=((0, 2), (1, 6)))
        sim = Simulation(shard_fleet(), "drowsy", "sharded",
                         config=ShardedConfig(shards=3, workers=2,
                                              supervise=FAST_POLICY,
                                              chaos=chaos),
                         checkpoint=CheckpointPolicy(dir=str(tmp_path),
                                                     every_h=3))
        assert sim.run(SHARD_H) == sharded_base()
        for path in sorted(tmp_path.glob("*.ckpt")):
            assert Simulation.resume(path).run() == sharded_base()

    def test_early_kill_fires_once_in_its_worker(self, tmp_path):
        """Shard 0 shares worker 0 with shard 2 and may run ahead of the
        coordinator.  Its hour-2 kill must fire exactly once, in the
        worker: one restart, no degradation to threads, and never a
        SIGKILL of the driving process."""
        out = tmp_path / "early-kill.pkl"
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", EARLY_KILL_CHILD, str(out)],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, (
            f"coordinator process exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
        result, restarts, workers_mode = pickle.loads(out.read_bytes())
        assert result == sharded_base()
        assert restarts == 1
        assert workers_mode == 2

    def test_unsupervised_hang_raises_named_timeout(self):
        chaos = ShardChaos(hang_worker_at_hour=((1, 2),), hang_s=60.0)
        sim = Simulation(shard_fleet(), "drowsy", "sharded",
                         config=ShardedConfig(shards=3, workers=2,
                                              timeout_s=2.0, chaos=chaos))
        with pytest.raises(ShardTimeoutError) as excinfo:
            sim.run(SHARD_H)
        exc = excinfo.value
        assert exc.shard == 1
        assert exc.hour == 2
        assert exc.elapsed_s >= 2.0
        assert exc.timeout_s == 2.0
        assert "shard 1 timed out at hour 2" in str(exc)


# ----------------------------------------------------------------------
# supervised sweep cells
# ----------------------------------------------------------------------
def _double(x):
    """Cheap picklable cell runner for supervision-machinery tests."""
    return x * 2


def _boom(x):
    raise ValueError(f"cell {x} exploded")


class TestSupervisedMap:
    def test_serial_path_orders_and_journals(self):
        seen = []
        out = supervised_map(_double, [3, 1, 2], workers=1,
                             on_result=lambda i, r: seen.append((i, r)))
        assert out == [6, 2, 4]
        assert seen == [(0, 6), (1, 2), (2, 4)]

    def test_skip_suppresses_recompute_and_journal(self):
        seen = []
        out = supervised_map(_boom, [1, 2], workers=1,
                             skip={0: "a", 1: "b"},
                             on_result=lambda i, r: seen.append(i))
        assert out == ["a", "b"]
        assert seen == []

    def test_killed_worker_respawns_result_identical(self, tmp_path):
        kill = ChaosKill(dir=str(tmp_path), tag="map")
        cells = [ChaosCell(cell=i, kill=(kill if i == 1 else None),
                           runner=_double)
                 for i in range(6)]
        out = supervised_map(run_chaos_cell, cells, workers=2,
                             policy=FAST_POLICY)
        assert out == [0, 2, 4, 6, 8, 10]
        assert kill.sentinel.exists()  # the chaos really fired

    def test_degrades_to_serial_when_restarts_exhausted(self, tmp_path):
        kill = ChaosKill(dir=str(tmp_path), tag="degrade")
        cells = [ChaosCell(cell=i, kill=(kill if i == 0 else None),
                           runner=_double)
                 for i in range(4)]
        policy = SupervisorPolicy(max_restarts=0, backoff_base_s=0.01,
                                  deadline_s=30.0, degrade=True)
        assert supervised_map(run_chaos_cell, cells, workers=2,
                              policy=policy) == [0, 2, 4, 6]

    def test_degrade_disabled_raises(self, tmp_path):
        kill = ChaosKill(dir=str(tmp_path), tag="fatal")
        cells = [ChaosCell(cell=i, kill=(kill if i == 0 else None),
                           runner=_double)
                 for i in range(4)]
        policy = SupervisorPolicy(max_restarts=0, backoff_base_s=0.01,
                                  deadline_s=30.0, degrade=False)
        with pytest.raises(RuntimeError, match="degrade disabled"):
            supervised_map(run_chaos_cell, cells, workers=2, policy=policy)

    def test_cell_exception_propagates_with_traceback(self):
        with pytest.raises(RuntimeError, match="exploded"):
            supervised_map(_boom, [1, 2], workers=2, policy=FAST_POLICY)


# ----------------------------------------------------------------------
# sweep journal + resumable SweepRunner
# ----------------------------------------------------------------------
class TestSweepJournal:
    def test_roundtrip_and_truncated_tail(self, tmp_path):
        journal = SweepJournal(tmp_path / "j")
        assert journal.load() == {}
        journal.append(0, "alpha")
        journal.append(3, ("beta", 2.5))
        with open(journal.path, "ab") as fh:
            fh.write(b"\x80truncated-mid-append")
        assert journal.load() == {0: "alpha", 3: ("beta", 2.5)}
        journal.clear()
        assert journal.load() == {}

    def test_runner_resumes_from_journal(self, tmp_path):
        cells = grid(controllers=("drowsy", "neat"), sizes=(8,),
                     seeds=(1, 2), hours=4)
        serial = SweepRunner().run(cells)
        journal = SweepJournal(tmp_path / "sweep.journal")
        journal.append(0, serial.rows[0])
        journal.append(2, serial.rows[2])
        table = SweepRunner(workers=1, journal=journal).run(cells)
        assert table == serial
        assert set(journal.load()) == {0, 1, 2, 3}
        # a completed journal short-circuits the whole sweep
        assert SweepRunner(workers=1,
                           journal=str(journal.path)).run(cells) == serial


# ----------------------------------------------------------------------
# atomic artifact writes
# ----------------------------------------------------------------------
class TestAtomicWrites:
    def test_atomic_write_replaces_without_debris(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        atomic_write_text(target, "new")
        assert target.read_text() == "new"
        assert list(tmp_path.iterdir()) == [target]

    def test_failed_write_leaves_target_untouched(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        with pytest.raises(RuntimeError):
            with atomic_target(target) as tmp:
                tmp.write_text("half-writ")
                raise RuntimeError("crash mid-save")
        assert target.read_text() == "old"
        assert list(tmp_path.iterdir()) == [target]

    def test_sweep_table_saves_are_atomic(self, tmp_path):
        cells = grid(controllers=("drowsy",), sizes=(8,), seeds=(1, 2),
                     hours=4)
        table = SweepRunner().run(cells)
        csv_path = tmp_path / "t.csv"
        table.save(csv_path)
        assert SweepTable.load(csv_path) == table
        db = tmp_path / "t.sqlite"
        table.save(db)
        table.save(db)  # second call appends run 1 atomically
        assert SweepTable.from_sqlite(db, run=0) == table
        assert SweepTable.from_sqlite(db, run=1) == table
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "t.csv", "t.sqlite"]

    def test_run_result_save_is_atomic(self, tmp_path):
        result = plain_result("hourly", False)
        path = tmp_path / "result.csv"
        result.save(path)
        assert type(result).load(path) == result
        assert list(tmp_path.iterdir()) == [path]


# ----------------------------------------------------------------------
# property suite: kill/resume at a random hour, any backend
# ----------------------------------------------------------------------
class TestResumeProperties:
    @settings(deadline=None, max_examples=8)
    @given(data=st.data())
    def test_resume_from_random_boundary(self, data):
        backend = data.draw(st.sampled_from(["hourly", "event"]),
                            label="backend")
        faulty = data.draw(st.booleans(), label="faulty")
        every = data.draw(st.integers(1, 3), label="every_h")
        base = plain_result(backend, faulty)
        with tempfile.TemporaryDirectory() as d:
            sim = Simulation(small_fleet(), "drowsy", backend, seed=3,
                             faults=LOSSY if faulty else None,
                             checkpoint=CheckpointPolicy(dir=d,
                                                         every_h=every))
            assert sim.run(H) == base
            ckpts = sorted(Path(d).glob("*.ckpt"))
            assert len(ckpts) == H // every
            pick = data.draw(st.integers(0, len(ckpts) - 1), label="pick")
            resumed = Simulation.resume(ckpts[pick]).run()
            assert resumed == base
            assert resumed.fault_summary == base.fault_summary


# ----------------------------------------------------------------------
# CLI round trip
# ----------------------------------------------------------------------
class TestCli:
    def test_checkpoint_list_resume_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        ckdir = tmp_path / "ck"
        assert main(["scenario", "run", "steady-llmu", "--hours", "4",
                     "--scale", "0.25", "--checkpoint-dir", str(ckdir),
                     "--checkpoint-every", "2"]) == 0
        assert main(["list", "checkpoints", "--dir", str(ckdir)]) == 0
        out = capsys.readouterr().out
        assert "run-h00002.ckpt" in out
        assert "run-h00004.ckpt" in out
        assert main(["resume", str(ckdir / "run-h00002.ckpt"),
                     "--out", str(tmp_path / "res.csv")]) == 0
        assert "resumed hourly run" in capsys.readouterr().out
        assert (tmp_path / "res.csv").exists()
        # the default policy was cleared when the command finished
        from repro.resilience.checkpoint import take_default_policy

        assert take_default_policy() is None

    def test_journaled_sweep_clears_journal_on_success(self, tmp_path,
                                                       capsys):
        from repro.cli import main

        ckdir = tmp_path / "ckp"
        assert main(["sweep", "--controllers", "drowsy", "--sizes", "8",
                     "--seeds", "1", "--hours", "4",
                     "--checkpoint-dir", str(ckdir)]) == 0
        assert "sweep results" in capsys.readouterr().out
        assert not (ckdir / "sweep.journal").exists()
