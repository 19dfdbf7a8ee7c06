"""Compile scenario specs onto the two simulators (DESIGN.md §12).

:class:`ScenarioCompiler` turns a pure :class:`~repro.scenarios.spec.
ScenarioSpec` plus a seed into a ready-to-run :class:`CompiledRun`: a
heterogeneous :class:`~repro.cluster.datacenter.DataCenter`, a
consolidation controller, and either an
:class:`~repro.sim.hourly.HourlySimulator` or an
:class:`~repro.sim.event_driven.EventDrivenSimulation` wired with the
scenario's shaped request profile and — when the spec declares churn —
a :class:`ChurnInjector` registered as an hour hook.

Every random draw is keyed by stable digests of ``(seed, entity
name)`` (:func:`~repro.scenarios.spec.stable_seed`), and the event
simulator runs the PR 3 per-VM Philox request substreams, so a
scenario's behaviour is a pure function of ``(spec, seed)`` — the same
under both simulators, across worker processes and across fleet
reorderings.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..api import Observer, Simulation
from ..faults import FaultInjector
from ..cluster.datacenter import DataCenter
from ..cluster.host import Host
from ..cluster.power import PowerState
from ..cluster.vm import VM
from ..core.params import DEFAULT_PARAMS, DrowsyParams
from ..network.requests import RequestProfile
from ..sim.event_driven import EventConfig
from ..sim.hourly import HourlyConfig
from .spec import ScenarioSpec, stable_seed


class ChurnInjector(Observer):
    """Apply a scenario's churn as an observer on either backend.

    The injector owns one Philox stream keyed by ``(seed, scenario)``;
    it draws the hourly arrival/departure counts in a fixed order, so
    the churn sequence is identical under the hourly and event-driven
    backends.  Every effect on the fleet (forcing a drowsy host awake,
    draining, placing, powering hosts, reinstating suspend checks after
    maintenance, swallowing a departed VM's scheduled requests,
    rebinding the columnar fleet) goes through the
    :class:`~repro.api.Simulation` façade stored by :meth:`bind`, whose
    administrative methods call the engine's own: each engine does what
    the effect means at its resolution, and the sharded coordinator
    also replays it into the shard that owns the host.
    """

    #: Churn feeds ``now`` into simulated state (placement/power
    #: timestamps), so it must see the engines' simulated clock, not
    #: the wall clock other observers get (repro.api.observers).
    wants_sim_time = True

    def __init__(self, spec: ScenarioSpec, dc: DataCenter,
                 params: DrowsyParams, seed: int, start_hour: int,
                 ephemeral_names: set[str]) -> None:
        self.spec = spec
        self.churn = spec.churn
        self.dc = dc
        self.params = params
        self.seed = seed
        self.start_hour = start_hour
        self.rng = np.random.Generator(np.random.Philox(
            key=stable_seed(seed, "churn", spec.name)))
        #: VMs eligible for churn departures (ephemeral classes at build
        #: time, plus every churn-created VM).
        self.ephemeral_names = set(ephemeral_names)
        self.in_maintenance: set[str] = set()
        self._powered_off: set[str] = set()
        self._counter = 0
        self.vms_added = 0
        self.vms_removed = 0
        self.vms_evacuated = 0
        self.arrivals_dropped = 0
        #: The façade every effect goes through (set by :meth:`bind`).
        self.simulation: Simulation | None = None

    def bind(self, simulation: Simulation) -> None:
        """Route the injector's effects through ``simulation``."""
        self.simulation = simulation

    # ------------------------------------------------------------------
    def hook(self, t: int, now: float) -> None:
        """Hour hook: maintenance transitions, departures, arrivals.

        Runs at the end of each hour tick on both simulators; the draw
        order below is fixed so the Philox stream advances identically
        everywhere.
        """
        rel = t - self.start_hour
        changed = False
        # All window ends strictly before any begin: with back-to-back
        # windows this order must not depend on how the spec happened
        # to list them.
        for w in self.churn.maintenance:
            if rel == w.start_hour + w.duration_h:
                self._end_maintenance(self.dc.hosts[w.host_index], now)
        for w in self.churn.maintenance:
            if rel == w.start_hour:
                self._begin_maintenance(self.dc.hosts[w.host_index], now)
        if self.churn.vm_departures_per_h > 0:
            changed |= self._depart(int(self.rng.poisson(
                self.churn.vm_departures_per_h)), now)
        if self.churn.vm_arrivals_per_h > 0:
            changed |= self._arrive(int(self.rng.poisson(
                self.churn.vm_arrivals_per_h)), t, now)
        if changed:
            self.simulation.rebind_fleet()

    #: Observer-protocol spelling of :meth:`hook` (same bound method, so
    #: tests and tools that grab ``churn.hook`` see the same callable).
    on_hour = hook

    # ------------------------------------------------------------------
    # maintenance windows
    # ------------------------------------------------------------------
    def _begin_maintenance(self, host: Host, now: float) -> None:
        """Best-effort drain: wake the host if drowsy, migrate its VMs
        to the first non-maintenance host with room, and power it off.
        A host caught mid-transition (or with stranded VMs) is drained
        as far as possible but left powered."""
        sim = self.simulation
        self.in_maintenance.add(host.name)
        if host.state is not PowerState.ON:
            sim.force_awake(host, now)
        candidates = [h for h in self.dc.hosts
                      if h.name not in self.in_maintenance]
        targets = ([h for h in candidates if h.is_available]
                   + [h for h in candidates if not h.is_available])
        migrated, _ = sim.evacuate_host(host, now, targets)
        self.vms_evacuated += len(migrated)
        # A drowsy fallback destination must wake to run its new VM: the
        # event simulator has no hourly power step to notice an active
        # VM landing on a suspended host.
        for vm in migrated:
            dest = self.dc.host_of(vm)
            if dest.state is not PowerState.ON:
                sim.force_awake(dest, now)
        if not host.vms and host.state is PowerState.ON:
            sim.power_off_host(host, now)
            self._powered_off.add(host.name)

    def _end_maintenance(self, host: Host, now: float) -> None:
        self.in_maintenance.discard(host.name)
        if host.name in self._powered_off:
            self._powered_off.discard(host.name)
            if host.state is PowerState.OFF:
                self.simulation.power_on_host(host, now)
                self.simulation.reinstate_check(host)

    # ------------------------------------------------------------------
    # VM arrivals / departures
    # ------------------------------------------------------------------
    def _depart(self, k: int, now: float) -> bool:
        # Sorted by name: the victim choice is invariant to placement
        # history, so both simulators remove the same VMs.
        candidates = sorted(
            (vm for vm in self.dc.vms if vm.name in self.ephemeral_names),
            key=lambda vm: vm.name)
        k = min(k, len(candidates))
        if k == 0:
            return False
        picks = self.rng.choice(len(candidates), size=k, replace=False)
        for i in sorted(int(p) for p in picks):
            vm = candidates[i]
            self.dc.remove(vm, now)
            self.ephemeral_names.discard(vm.name)
            self.simulation.note_vm_departed(vm.name)
            self.vms_removed += 1
        return True

    def _arrive(self, k: int, t: int, now: float) -> bool:
        if k == 0:
            return False
        cls = self.spec.vm_class(self.churn.arrival_class)
        horizon = self.start_hour + self.spec.horizon_hours
        changed = False
        for _ in range(k):
            if self.vms_added >= self.churn.max_extra_vms:
                self.arrivals_dropped += 1
                continue
            name = f"{self.spec.name}-x{self._counter:04d}"
            self._counter += 1
            trace = cls.trace.build(name, self._counter, horizon, self.seed)
            vm = VM(name, trace, cls.resources, params=self.params,
                    interactive=cls.interactive)
            dest = next(
                (h for h in self.dc.hosts
                 if h.name not in self.in_maintenance and h.can_host(vm)),
                None)
            if dest is None:
                self.arrivals_dropped += 1
                continue
            self.simulation.place_vm(vm, dest)
            # The newcomer runs from this hour on: give it the hour's
            # trace activity so the scalar view agrees with the columnar
            # one after the rebind.
            vm.current_activity = vm.activity_at(t)
            if (vm.current_activity > 0.0
                    and dest.state is not PowerState.ON):
                # Like the evacuation path: an active newcomer on a
                # drowsy host must wake it — the event simulator has no
                # hourly power step to notice, and a non-interactive VM
                # sends no request that would.
                self.simulation.force_awake(dest, now)
            self.ephemeral_names.add(name)
            self.vms_added += 1
            changed = True
        return changed


@dataclass
class CompiledRun:
    """One ready-to-run scenario simulation.

    ``simulation`` is the :class:`~repro.api.Simulation` façade;
    ``sim`` remains the underlying engine (compatibility: probes and
    tests that patch ``sim.hour_hooks`` keep working).
    """

    spec: ScenarioSpec
    seed: int
    simulator: str
    controller_name: str
    hours: int
    dc: DataCenter
    simulation: Simulation
    sim: object  # the engine: HourlySimulator | EventDrivenSimulation
    controller: object
    churn: ChurnInjector | None = None
    _result: object = field(default=None, repr=False)

    def run(self):
        """Run to the horizon; returns the unified
        :class:`~repro.api.RunResult`."""
        self._result = self.simulation.run(self.hours)
        return self._result


class ScenarioCompiler:
    """Compile a :class:`ScenarioSpec` for either simulator."""

    def __init__(self, spec: ScenarioSpec,
                 params: DrowsyParams = DEFAULT_PARAMS) -> None:
        self.spec = spec
        self.params = params

    # ------------------------------------------------------------------
    def build_datacenter(self, seed: int) -> tuple[DataCenter, set[str]]:
        """The scenario fleet with its initial placement.

        Hosts materialize class by class; VM traces are keyed by VM
        name; the VM list is shuffled by a seed-keyed RNG before a
        rotating first-fit placement — an idleness-oblivious initial
        state, like :func:`~repro.experiments.common.build_fleet`, but
        capacity-aware across heterogeneous host classes.  Returns the
        data center and the names of ephemeral VMs (churn candidates).
        """
        spec, params = self.spec, self.params
        hosts = [Host(f"{cls.name}-{i:03d}", cls.capacity, params)
                 for cls in spec.hosts for i in range(cls.count)]
        dc = DataCenter(hosts, params)

        horizon = spec.horizon_hours
        vms: list[VM] = []
        ephemeral: set[str] = set()
        ordinal = 0
        for cls in spec.vms:
            for i in range(cls.count):
                name = f"{cls.name}-{i:03d}"
                trace = cls.trace.build(name, ordinal, horizon, seed)
                vms.append(VM(name, trace, cls.resources, params=params,
                              interactive=cls.interactive))
                if cls.ephemeral:
                    ephemeral.add(name)
                ordinal += 1

        rng = np.random.default_rng(stable_seed(seed, "placement", spec.name))
        rng.shuffle(vms)
        ptr = 0
        n = len(hosts)
        for vm in vms:
            for probe in range(n):
                host = hosts[(ptr + probe) % n]
                if host.can_host(vm):
                    dc.place(vm, host)
                    ptr = (ptr + probe + 1) % n
                    break
            else:
                raise ValueError(
                    f"scenario {spec.name!r} does not fit: {vm.name} "
                    f"({vm.resources}) has no host with room")
        dc.check_invariants()
        return dc, ephemeral

    # ------------------------------------------------------------------
    def compile(self, controller: str = "drowsy", simulator: str = "hourly",
                seed: int = 0, hours: int | None = None,
                relocate_all: bool | None = None) -> CompiledRun:
        """Build the data center, controller and simulator for one run.

        ``relocate_all`` defaults to the E8 convention: Drowsy runs its
        periodic full-relocation evaluation mode, reactive baselines run
        their normal migration loop.
        """
        spec, params = self.spec, self.params
        if simulator not in ("hourly", "event"):
            raise ValueError(
                f"unknown simulator {simulator!r}; expected 'hourly' or "
                "'event'")
        hours = spec.horizon_hours if hours is None else hours
        if relocate_all is None:
            relocate_all = controller == "drowsy"
        dc, ephemeral = self.build_datacenter(seed)
        churn = (ChurnInjector(spec, dc, params, seed, start_hour=0,
                               ephemeral_names=ephemeral)
                 if spec.churn.enabled else None)
        # Chaos plans compile like everything else: a pure function of
        # (spec, seed), so fault matrices shard byte-identically.
        faults = (FaultInjector(spec.faults, seed)
                  if spec.faults is not None else None)

        if simulator == "hourly":
            config = HourlyConfig(relocate_all_mode=relocate_all)
        else:
            profile = RequestProfile(
                peak_rate_per_s=spec.request_peak_rate_per_s,
                shape=spec.arrivals)
            config = EventConfig(relocate_all_mode=relocate_all,
                                 request_profile=profile,
                                 seed=seed,
                                 request_streams="per-vm")
        observers = tuple(o for o in (churn, faults) if o is not None)
        simulation = Simulation(
            dc, controller, simulator, params=params, config=config,
            observers=observers)
        simulation.hours = hours
        simulation.churn = churn
        if churn is not None:
            churn.bind(simulation)
        return CompiledRun(spec=spec, seed=seed, simulator=simulator,
                           controller_name=controller, hours=hours,
                           dc=dc, simulation=simulation,
                           sim=simulation.engine,
                           controller=simulation.controller,
                           churn=churn)
