"""Virtual machine model.

A VM couples an identity (name, IP address), a resource flavor, a
workload trace and the runtime annotations the Drowsy-DC modules need:
its idleness model, service timers (for timer-driven workloads like the
backup service of section VI-A.3) and interactive-service flags used by
the false-positive analysis of section IV.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from ..core.calendar import slot_of_hour
from ..core.model import IdlenessModel
from ..core.params import DEFAULT_PARAMS, DrowsyParams
from ..traces.base import ActivityTrace, VMKind
from .resources import ResourceSpec, TESTBED_VM


def _default_ip(name: str) -> str:
    """The VM's default address: a stable digest of its name into
    ``10.0.0.1-250``.  Distinct names may share one; the data center
    renumbers the later VM on attach (DESIGN.md §10)."""
    digest = int.from_bytes(hashlib.blake2b(name.encode(), digest_size=4).digest(),
                            "big")
    return f"10.0.0.{digest % 250 + 1}"


@dataclass(frozen=True)
class ServiceTimer:
    """A periodic in-guest timer (e.g. the 2 am backup cron job).

    The suspending module reads their next fire times to compute the
    waking date (section V-B).  ``period_s`` must be finite and > 0.
    """

    name: str
    period_s: float
    first_fire_s: float = 0.0
    #: Timers of blacklisted processes are filtered out when computing
    #: the waking date (watchdogs, monitoring agents).
    process_name: str = "service"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.period_s) and self.period_s > 0):
            raise ValueError(f"timer {self.name!r}: period_s must be finite "
                             f"and > 0, got {self.period_s!r}")
        if not math.isfinite(self.first_fire_s):
            raise ValueError(f"timer {self.name!r}: first_fire_s must be "
                             f"finite, got {self.first_fire_s!r}")

    def next_fire(self, now: float) -> float:
        """Earliest fire time strictly after ``now``."""
        if now < self.first_fire_s:
            return self.first_fire_s
        k = int((now - self.first_fire_s) // self.period_s) + 1
        return self.first_fire_s + k * self.period_s


class VM:
    """One virtual machine and its Drowsy-DC-relevant state."""

    def __init__(
        self,
        name: str,
        trace: ActivityTrace,
        resources: ResourceSpec = TESTBED_VM,
        ip_address: str | None = None,
        params: DrowsyParams = DEFAULT_PARAMS,
        timers: tuple[ServiceTimer, ...] = (),
        interactive: bool = True,
    ) -> None:
        self.name = name
        self.trace = trace
        self.resources = resources
        # Stable digest, not the per-process-salted builtin hash():
        # sweep workers must derive identical addresses for the same VM.
        self.ip_address = ip_address or _default_ip(name)
        #: A caller-chosen address is never renumbered: a data center
        #: refuses it when another placed VM holds it.
        self.ip_explicit = bool(ip_address)
        self.params = params
        if len({(t.process_name, t.name) for t in timers}) != len(timers):
            raise ValueError(f"VM {name!r}: two timers share a "
                             "(process_name, name)")
        self.timers = timers
        #: Interactive services receive network requests; their activity
        #: is externally triggered so a suspended host adds wake latency.
        self.interactive = interactive
        #: The idleness model, built on first read of :attr:`model`: a
        #: fleet binding gives a never-read VM a fresh row directly.
        self._model = None
        #: A fleet binding's activity column and this VM's row in it
        #: (see :meth:`bind_activity`); ``None`` while unbound.
        self._activity_col = None
        self._activity_row = 0
        self._activity = 0.0
        self.migrations = 0
        self._blocked_io = False

    @property
    def model(self):
        """This VM's idleness model (a fresh
        :class:`~repro.core.model.IdlenessModel` until trained or bound)."""
        if self._model is None:
            self._model = IdlenessModel(self.params)
        return self._model

    @model.setter
    def model(self, value) -> None:
        self._model = value

    @property
    def current_activity(self) -> float:
        """Activity level of the current hour (set by the simulator).

        A VM bound to a fleet reads it from the binding's activity
        column, which the binding loads for the whole fleet at once.
        """
        col = self._activity_col
        if col is None:
            return self._activity
        return float(col[self._activity_row])

    @current_activity.setter
    def current_activity(self, value: float) -> None:
        col = self._activity_col
        if col is None:
            self._activity = value
        else:
            col[self._activity_row] = value

    def bind_activity(self, column, row: int) -> None:
        """Move this VM's activity into ``column[row]`` (fleet binding)."""
        column[row] = self.current_activity
        self._activity_col = column
        self._activity_row = row

    def unbind_activity(self) -> None:
        """Take the activity back from the fleet column (the VM leaves
        its binding: model detach, transfer to another process)."""
        self._activity = self.current_activity
        self._activity_col = None

    @property
    def blocked_io(self) -> bool:
        """Simulated uninterruptible I/O wait (``D`` state) for this VM's
        QEMU process — pending work that must veto suspension (§IV)."""
        return self._blocked_io

    @blocked_io.setter
    def blocked_io(self, value: bool) -> None:
        self._blocked_io = bool(value)
        # Mirror into the fleet's columnar blocked-I/O flags when bound,
        # so the batched suspend sweep sees the change without a rescan.
        model = self._model
        fleet = getattr(model, "fleet", None)
        if fleet is not None and hasattr(fleet, "set_blocked_io"):
            fleet.set_blocked_io(model.fleet_index, self._blocked_io)

    # ------------------------------------------------------------------
    @property
    def kind(self) -> VMKind:
        return self.trace.kind

    def activity_at(self, hour_index: int) -> float:
        """Trace activity for an absolute hour (periodic extension)."""
        return self.trace.activity(hour_index)

    @property
    def is_idle_now(self) -> bool:
        """Idle in the current hour (activity exactly zero)."""
        return self.current_activity == 0.0

    @property
    def dirty_page_rate(self) -> float:
        """Hypervisor-visible page-dirtying heuristic (section IV, [20]).

        Modelled as proportional to activity: pages/s normalized to
        [0, 1].  Zero when idle — the signal Oasis-style systems use.
        """
        return self.current_activity

    def raw_ip(self, hour_index: int) -> float:
        """Raw idleness probability for the given absolute hour."""
        return self.model.raw_ip(slot_of_hour(hour_index))

    def idleness_probability(self, hour_index: int) -> float:
        """Normalized idleness probability in [0, 1] for the given hour."""
        return self.model.idleness_probability(slot_of_hour(hour_index))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VM({self.name}, {self.kind.name}, {self.resources})"
