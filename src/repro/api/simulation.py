"""The :class:`Simulation` façade: one entry point for every run.

Construction, binding, observer wiring and result unification for both
simulation engines (DESIGN.md §13)::

    from repro.api import Simulation
    from repro.experiments.common import build_fleet

    dc = build_fleet(n_hosts=16, n_vms=64, llmi_fraction=0.5, hours=72)
    result = Simulation(dc, controller="drowsy", backend="hourly").run(72)
    print(result.total_energy_kwh, result.slatah)

    result = Simulation(dc2, "neat", backend="event", seed=7).run(24)
    print(result.request_summary["p99_s"], result.wol_sent)

Scenario specs compile straight onto the façade::

    sim = Simulation.from_scenario("flash-crowd", seed=7, backend="event")
    row = sim.run(sim.hours)

The façade is a *thin* owner: the engines
(:class:`~repro.sim.hourly.HourlySimulator`,
:class:`~repro.sim.event_driven.EventDrivenSimulation`) stay directly
constructible and bit-identical — asserted by the golden parity suite
in ``tests/test_api.py`` — and remain reachable as :attr:`Simulation.
engine` for engine-specific probes (the SDN request log, the waking
service, the event clock).
"""

from __future__ import annotations

from ..cluster.datacenter import DataCenter
from ..core.params import DrowsyParams
from ..core.result import RunResult
from .backends import backends
from .controllers import build_controller
from .observers import Observer, as_observer, hour_hook


class Simulation:
    """One simulation run: fleet + controller + backend + observers.

    Parameters
    ----------
    fleet_or_dc:
        A :class:`~repro.cluster.datacenter.DataCenter`, or any object
        carrying one as ``.dc`` (e.g. the testbed builder's
        ``Testbed``).
    controller:
        A name from :data:`repro.api.controllers` (``"drowsy"``,
        ``"neat"``, ``"neat-distributed"``, ``"oasis"``, ``"none"``) or
        an already-built controller object.
    backend:
        A name from :data:`repro.api.backends`: ``"hourly"`` (analytic
        hour loop) or ``"event"`` (full request-level stack), or an
        unregistered backend adapter object.
    params:
        Drowsy parameters; defaults to the data center's own.
    seed:
        Request-traffic seed (event backend); accepted and ignored by
        the hourly backend, whose runs draw no randomness.
    config:
        Backend-native config (:class:`~repro.sim.hourly.HourlyConfig`,
        :class:`~repro.sim.event_driven.EventConfig` or
        :class:`~repro.api.sharded.ShardedConfig`); defaults to the
        backend's defaults.
    observers:
        :class:`~repro.api.Observer` instances or plain ``(t, now)``
        callables, fired in order (see ``repro.api.observers``).
    faults:
        Optional chaos wiring: a :class:`~repro.faults.FaultPlan`
        (compiled with ``seed or 0`` into a fresh injector) or an
        already-built :class:`~repro.faults.FaultInjector`.  The
        injector joins the observers and its
        :class:`~repro.faults.FaultSummary` lands on
        ``result.fault_summary``.  An all-zero plan installs nothing —
        the run is bit-identical to a fault-free one.
    telemetry:
        A :class:`~repro.obs.TelemetryConfig` enabling metrics
        sampling, span tracing, profiling and/or live progress
        (DESIGN.md §17).  Telemetry never changes results: an enabled
        run's ``RunResult`` equals the telemetry-off run's.  ``None``
        picks up a staged process default (the CLI path) or installs
        nothing at all.
    """

    def __init__(self, fleet_or_dc, controller="drowsy",
                 backend="hourly", *,
                 params: DrowsyParams | None = None,
                 seed: int | None = None,
                 config=None,
                 observers: tuple = (),
                 faults=None,
                 checkpoint=None,
                 telemetry=None) -> None:
        dc = getattr(fleet_or_dc, "dc", fleet_or_dc)
        if not isinstance(dc, DataCenter):
            raise TypeError(
                f"expected a DataCenter (or an object with a .dc), "
                f"got {type(fleet_or_dc).__name__}")
        self.dc = dc
        self.params = params if params is not None else dc.params
        self.backend = (backends.get(backend) if isinstance(backend, str)
                        else backend)
        self.backend_name = self.backend.name
        self.controller = (build_controller(controller, dc, self.params)
                           if isinstance(controller, str) else controller)
        if config is not None and not isinstance(config,
                                                 self.backend.config_type):
            raise TypeError(
                f"{self.backend_name!r} backend expects "
                f"{self.backend.config_type.__name__}, "
                f"got {type(config).__name__}")
        self.config = self.backend.prepare_config(config, seed)
        if faults is not None and not getattr(faults, "is_fault_injector",
                                              False):
            from ..faults import FaultInjector  # deferred: faults -> api

            faults = FaultInjector(faults, seed if seed is not None else 0)
        self.observers: tuple[Observer, ...] = tuple(
            as_observer(o) for o in observers)
        if faults is not None:
            self.observers += (as_observer(faults),)
        #: The fault injector riding this run, if any (the first
        #: fault-marked observer wins; detected by marker so scenario
        #: compilation can pass injectors through ``observers=``).
        self.faults = next(
            (o for o in self.observers
             if getattr(o, "is_fault_injector", False)), None)
        #: The telemetry runtime riding this run, if any (DESIGN.md
        #: §17).  Joins the observers *before* the checkpointer so
        #: snapshots carry the hour's metric samples; a disabled (or
        #: absent) config installs nothing at all.
        self.telemetry = None
        if telemetry is None:
            from ..obs import take_default_telemetry

            telemetry = take_default_telemetry()
        if telemetry is not None and telemetry.enabled:
            from ..obs import ProgressObserver, TelemetryRuntime

            self.telemetry = TelemetryRuntime(telemetry)
            self.observers += (self.telemetry,)
            if telemetry.progress:
                self.observers += (ProgressObserver(),)
        #: The checkpoint manager riding this run, if any.  Appended
        #: *last* so its hour-boundary snapshot includes every mutation
        #: the other observers (churn, faults) made that hour.
        self.checkpointer = None
        if checkpoint is None:
            from ..resilience.checkpoint import take_default_policy

            checkpoint = take_default_policy()
        if checkpoint is not None:
            from ..resilience import CheckpointManager

            manager = (checkpoint
                       if isinstance(checkpoint, CheckpointManager)
                       else CheckpointManager(checkpoint))
            self.checkpointer = manager
            self.observers += (as_observer(manager),)
        #: True only on a façade restored by :meth:`resume`; makes the
        #: next :meth:`run` continue the interrupted horizon.
        self._resuming = False
        # Engines hand their *simulated* clock to raw hour hooks;
        # hour_hook substitutes the wall clock for observers that
        # don't opt into it (see repro.api.observers).
        self.engine = self.backend.build(
            dc, self.controller, self.params, self.config,
            tuple(hour_hook(o) for o in self.observers))
        #: Horizon hint (hours) for scenario-compiled simulations; 0
        #: for directly constructed ones (pass ``n_hours`` to ``run``).
        self.hours = 0
        #: The scenario churn injector, when compiled from a spec.
        self.churn = None
        #: The unified result of the most recent :meth:`run`.
        self.last_result: RunResult | None = None

    # ------------------------------------------------------------------
    @classmethod
    def from_scenario(cls, spec_or_name, seed: int = 0, *,
                      controller="drowsy", backend: str = "hourly",
                      hours: int | None = None, scale: float = 1.0,
                      params: DrowsyParams | None = None,
                      relocate_all: bool | None = None,
                      checkpoint=None) -> "Simulation":
        """Compile a scenario spec (or built-in name) into a ready run.

        Delegates to :class:`~repro.scenarios.compiler.ScenarioCompiler`
        — fleet build, trace keying, churn wiring and per-VM request
        streams are all functions of ``(spec, seed)``.  The returned
        simulation carries the scenario horizon in :attr:`hours` and
        the churn injector (if any) in :attr:`churn`.
        """
        from ..scenarios import ScenarioCompiler, get_scenario

        spec = (get_scenario(spec_or_name)
                if isinstance(spec_or_name, str) else spec_or_name)
        if scale != 1.0:
            spec = spec.scaled(scale)
        compiler = (ScenarioCompiler(spec) if params is None
                    else ScenarioCompiler(spec, params))
        compiled = compiler.compile(
            controller=controller, simulator=backend, seed=seed,
            hours=hours, relocate_all=relocate_all)
        simulation = compiled.simulation
        if checkpoint is not None:
            simulation.attach_checkpointer(checkpoint)
        return simulation

    # ------------------------------------------------------------------
    def run(self, n_hours: int | None = None,
            start_hour: int = 0) -> RunResult:
        """Run the simulation and return the unified result.

        ``n_hours`` defaults to the scenario horizon for
        scenario-compiled simulations; directly constructed ones must
        pass it.  Observers see ``on_run_start`` before the first hour
        and ``on_run_end`` after the unified result is built.

        On a façade restored by :meth:`resume`, ``run()`` (no
        arguments) continues the interrupted horizon from the
        checkpointed hour boundary instead of starting over; the
        result is byte-identical to the uninterrupted run's.
        """
        if self.telemetry is not None and self.telemetry.config.profile:
            with self.telemetry.profiled():
                return self._run(n_hours, start_hour)
        return self._run(n_hours, start_hour)

    def _run(self, n_hours: int | None, start_hour: int) -> RunResult:
        if self._resuming:
            if n_hours is not None and n_hours != getattr(
                    self.engine, "_horizon", (0, n_hours))[1]:
                raise ValueError(
                    "a resumed run continues its original horizon; "
                    "call run() without n_hours")
            self._resuming = False
            return self._finish(self.engine.continue_run())
        if n_hours is None:
            n_hours = self.hours
        if not n_hours:
            raise ValueError(
                "n_hours is required (only scenario-compiled simulations "
                "carry a default horizon)")
        for obs in self.observers:
            obs.on_run_start(self, start_hour, n_hours)
        return self._finish(self.engine.run(n_hours,
                                            start_hour=start_hour))

    def _finish(self, result: RunResult) -> RunResult:
        """The shared run tail: finalize faults, fire ``on_run_end``.
        Pure function of engine state, so a resumed run's tail is
        identical to the uninterrupted one's."""
        if self.faults is not None and not self.faults.plan.is_zero:
            # Zero plans leave the field None so their results compare
            # equal (==) to fault-free runs, not just field-by-field.
            result.fault_summary = self.faults.finalize(self)
        self.last_result = result
        for obs in self.observers:
            obs.on_run_end(result)
        return result

    # ------------------------------------------------------------------
    # crash-safe execution (DESIGN.md §16)
    # ------------------------------------------------------------------
    def attach_checkpointer(self, checkpoint):
        """Attach a checkpoint policy to an already-built simulation
        (the path scenario compilation and the CLI use).  The manager
        joins the observers *and* the engine's hour hooks — engines
        read ``hour_hooks`` at run time, so late attachment is safe."""
        from ..resilience import CheckpointManager

        manager = (checkpoint if isinstance(checkpoint, CheckpointManager)
                   else CheckpointManager(checkpoint))
        manager.bind(self)
        self.checkpointer = manager
        obs = as_observer(manager)
        self.observers += (obs,)
        self.engine.hour_hooks = (tuple(self.engine.hour_hooks)
                                  + (hour_hook(obs),))
        return manager

    @classmethod
    def resume(cls, path) -> "Simulation":
        """Restore a simulation from a checkpoint file (or the most
        advanced checkpoint in a directory) written by a
        ``checkpoint=``-equipped run.  Call :meth:`run` (no arguments)
        on the result to finish the interrupted horizon::

            sim = Simulation.resume("ckpts/")   # or an exact .ckpt path
            result = sim.run()                  # == the uninterrupted run
        """
        from pathlib import Path

        from ..resilience import (
            Checkpoint,
            CheckpointError,
            latest_checkpoint,
        )

        path = Path(path)
        if path.is_dir():
            path = latest_checkpoint(path)
        sim = Checkpoint.load(path).restore()
        if not isinstance(sim, cls):
            raise CheckpointError(
                f"{path} holds a {type(sim).__name__}, not a Simulation")
        return sim

    # ------------------------------------------------------------------
    # administrative surface (scenario churn, maintenance tooling):
    # each engine owns it (repro.sim.engine.HourEngine; the sharded
    # coordinator also captures every effect for its owning shard)
    # ------------------------------------------------------------------
    def rebind_fleet(self) -> None:
        """Re-bind the columnar fleet model after population changes."""
        self.engine.rebind_fleet()

    def force_awake(self, host, now: float) -> None:
        """Administratively wake a drowsy host (no grace window)."""
        self.engine.force_awake(host, now)

    def reinstate_check(self, host) -> None:
        """Restore a host's suspend checks (after maintenance)."""
        self.engine.reinstate_check(host)

    def note_vm_departed(self, vm_name: str) -> None:
        """A VM left the fleet mid-run: drop its scheduled work."""
        self.engine.note_vm_departed(vm_name)

    def evacuate_host(self, host, now: float, targets=None):
        """Migrate every VM off ``host`` (maintenance drain)."""
        return self.engine.evacuate_host(host, now, targets)

    def place_vm(self, vm, dest) -> None:
        """Place a new VM on ``dest`` (churn arrival)."""
        self.engine.place_vm(vm, dest)

    def power_off_host(self, host, now: float) -> None:
        """Power a drained host fully off (maintenance)."""
        self.engine.power_off_host(host, now)

    def power_on_host(self, host, now: float) -> None:
        """Power a host back on (maintenance end)."""
        self.engine.power_on_host(host, now)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Simulation({len(self.dc.hosts)} hosts, "
                f"{len(self.dc.vms)} VMs, "
                f"controller={getattr(self.controller, 'name', '?')!r}, "
                f"backend={self.backend_name!r})")
