"""The public simulation API (DESIGN.md §13).

One façade — :class:`Simulation` — over the two engines, with
string-keyed extension registries and typed lifecycle observers:

* :class:`Simulation` owns construction, controller/backend resolution,
  observer wiring and the run loop; :meth:`Simulation.from_scenario`
  compiles declarative scenario specs onto either backend.
* :class:`RunResult` is the one result schema: the superset of both
  engines' native results, with backend-absent fields ``None`` and the
  derived metrics defined once.
* :data:`controllers` and :data:`backends` are the registries every
  entry point (CLI, sweeps, scenarios, experiments) resolves names
  through; register a new policy or engine once and it is reachable
  everywhere.
* :class:`Observer` / :func:`as_observer` type the hour hooks both
  engines used to take as bare callables.
"""

from ..core.result import RunResult
from ..obs import Telemetry, TelemetryConfig
from .backends import EventBackend, HourlyBackend, ShardedBackend, backends
from .controllers import SWEEP_CONTROLLERS, build_controller, controllers
from .observers import CallableObserver, Observer, as_observer
from .registry import Registry
from .sharded import ShardedConfig
from .simulation import Simulation

__all__ = [
    "CallableObserver",
    "EventBackend",
    "HourlyBackend",
    "Observer",
    "Registry",
    "RunResult",
    "SWEEP_CONTROLLERS",
    "ShardedBackend",
    "ShardedConfig",
    "Simulation",
    "Telemetry",
    "TelemetryConfig",
    "as_observer",
    "backends",
    "build_controller",
    "controllers",
]
