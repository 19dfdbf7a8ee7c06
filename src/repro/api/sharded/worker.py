"""Shard workers: build an hourly engine around a port and run it.

``run_shard`` is the whole shard lifecycle — construct the engine over
the shipped sub-fleet, install the sliced fault plan, run, and send
the outcome (native result + the raw material the coordinator's
reduction needs) back over the endpoint.  It runs as a thread of the
coordinator process (``workers=0``) or inside a spawned worker process
(:func:`worker_main`, which must stay a top-level importable for the
``spawn`` start method).
"""

from __future__ import annotations

import threading
import traceback

from .port import ShardAborted, ShardPort


def run_shard(endpoint, setup: dict) -> None:
    """Run one shard to completion; never raises into the caller."""
    from ...obs.log import log_context

    # Every record this shard logs is tagged shard=K (spawned workers
    # configure their own handlers; by default the NullHandler eats it).
    with log_context(shard=setup.get("index", "?")):
        try:
            outcome = _simulate(endpoint, setup)
        except ShardAborted:
            return
        except BaseException:
            try:
                endpoint.send(("error", traceback.format_exc()))
            except Exception:
                pass
            return
        endpoint.send(("done", outcome))


def _install_obs(engine, setup: dict):
    """Build the shard's telemetry endpoint when the coordinator asked
    for tracing/metrics (DESIGN.md §17); ``None`` — zero hooks — when
    it didn't.  The endpoint pickles with the shard state blob, so
    supervised respawns and checkpoint resumes keep their telemetry."""
    if not (setup.get("obs_trace") or setup.get("obs_metrics")):
        return None
    from ...obs.runtime import ShardTelemetry

    obs = ShardTelemetry(setup["index"],
                         trace=bool(setup.get("obs_trace")),
                         metrics=bool(setup.get("obs_metrics")))
    engine._obs = obs
    return obs


def _obs_extras(engine) -> dict:
    obs = getattr(engine, "_obs", None)
    return obs.outcome_extras(engine) if obs is not None else {}


def _simulate(endpoint, setup: dict) -> dict:
    if "state" in setup:
        return _resume(endpoint, setup)
    from ...sim.hourly import HourlySimulator

    config = setup["config"]
    port = ShardPort(endpoint, setup["controller_name"],
                     setup["uses_idleness"],
                     shard_index=setup["index"],
                     chaos=setup.get("chaos"))
    injector = None
    fault = setup["fault"]
    if fault is not None:
        from ...faults.injector import FaultInjector

        injector = FaultInjector(fault["plan"], fault["seed"])
    engine = HourlySimulator(setup["dc"], port, setup["params"], config,
                             hour_hooks=(port.hook,))
    _install_obs(engine, setup)
    port.attach(engine, config.update_models or port.uses_idleness,
                injector)
    if injector is not None:
        injector._install_hourly(engine, setup["start_hour"],
                                 setup["n_hours"],
                                 crash_schedule=fault["crashes"])
    native = engine.run(setup["n_hours"], start_hour=setup["start_hour"])
    return _outcome(engine, native, injector)


def _resume(endpoint, setup: dict) -> dict:
    """Continue a shard from a boundary snapshot (supervision respawn
    or checkpoint resume): unpickle the port — the whole shard graph
    hangs off it — re-wire the fresh endpoint, and drive the engine's
    in-progress run to its horizon."""
    import pickle

    port = pickle.loads(setup["state"])
    port._ep = endpoint
    # The respawn ships a chaos spec stripped of the entries at or
    # before the recovery hour, so a kill fires at most once.
    port._chaos = setup.get("chaos")
    native = port.engine.continue_run()
    return _outcome(port.engine, native, port._injector)


def _outcome(engine, native, injector) -> dict:
    from ...cluster.power import PowerState

    crashed = PowerState.CRASHED
    return {
        **_obs_extras(engine),
        "native": native,
        "fault": {
            "host_crashes": injector._hourly_crash_count if injector else 0,
            "host_recoveries": (injector._hourly_recover_count
                                if injector else 0),
            "crashed_s": {h.name: h.meter.state_seconds.get(crashed, 0.0)
                          for h in engine.dc.hosts},
        },
    }


def worker_main(assignments: list) -> None:
    """Spawned-process entry: run this worker's shards (as threads when
    it owns more than one).  ``assignments`` is a list of
    ``(setup, connection)`` pairs, pickled by the spawn machinery."""
    from .transport import PipeEndpoint

    if len(assignments) == 1:
        setup, conn = assignments[0]
        run_shard(PipeEndpoint(conn), setup)
        return
    threads = [threading.Thread(target=run_shard,
                                args=(PipeEndpoint(conn), setup),
                                daemon=True)
               for setup, conn in assignments]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
