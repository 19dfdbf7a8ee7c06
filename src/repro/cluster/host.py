"""Physical host model: capacity, hosted VMs, power-state machine.

The host is a passive state machine — simulation drivers call the
transition methods at the right times; every transition first advances
the energy meter so each interval is charged at the operating point that
actually held during it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from ..core.params import DEFAULT_PARAMS, DrowsyParams
from .power import EnergyMeter, PowerModel, PowerState
from .resources import HostCapacity, ResourceSpec, TESTBED_HOST
from .vm import VM


class HostStateError(RuntimeError):
    """Raised on an illegal power-state transition."""


def _default_mac(name: str) -> str:
    """Deterministic locally-administered MAC derived from the host name.

    Uses a stable digest, not ``hash()``: the builtin is salted per
    process (PYTHONHASHSEED), which would give sweep workers different
    MACs for the same host and break WoL matching / run determinism.
    """
    h = hashlib.blake2b(name.encode(), digest_size=3).hexdigest()
    return f"52:54:00:{h[0:2]}:{h[2:4]}:{h[4:6]}"


@dataclass(frozen=True)
class Transition:
    """One recorded power-state change (for oscillation analysis)."""

    time: float
    from_state: PowerState
    to_state: PowerState


class Host:
    """A server in the data center."""

    def __init__(
        self,
        name: str,
        capacity: HostCapacity = TESTBED_HOST,
        params: DrowsyParams = DEFAULT_PARAMS,
        power_model: PowerModel | None = None,
        mac_address: str | None = None,
    ) -> None:
        self.name = name
        self.capacity = capacity
        self.params = params
        #: Back-reference to the owning DataCenter (set on registration);
        #: lets leaf policies reach the columnar host accounting.
        self._dc = None
        self.mac_address = mac_address or _default_mac(name)
        self.vms: list[VM] = []
        #: Energy meter: a row of the owning data center's meter bank,
        #: which also holds this host's state code and grace deadline.
        self.meter = EnergyMeter(power_model or PowerModel.from_params(params),
                                 name)
        self.state = PowerState.ON
        self.transitions: list[Transition] = []
        #: Resumes triggered so far (suspend/resume cycle counting).
        self.resume_count = 0
        self.suspend_count = 0
        #: Injected crashes survived so far (fault accounting).
        self.crash_count = 0

    # ------------------------------------------------------------------
    # resources
    # ------------------------------------------------------------------
    @property
    def used_resources(self) -> ResourceSpec:
        return ResourceSpec(
            cpus=sum(vm.resources.cpus for vm in self.vms),
            memory_mb=sum(vm.resources.memory_mb for vm in self.vms))

    def can_host(self, vm: VM) -> bool:
        """Capacity check for adding ``vm`` (memory + overcommitted CPU)."""
        used = self.used_resources
        return (used.cpus + vm.resources.cpus <= self.capacity.schedulable_cpus
                and used.memory_mb + vm.resources.memory_mb <= self.capacity.memory_mb)

    def add_vm(self, vm: VM) -> None:
        if vm in self.vms:
            raise ValueError(f"{vm.name} already on {self.name}")
        if not self.can_host(vm):
            raise ValueError(f"{vm.name} does not fit on {self.name}")
        self.vms.append(vm)

    def remove_vm(self, vm: VM) -> None:
        self.vms.remove(vm)

    # ------------------------------------------------------------------
    # load / idleness
    # ------------------------------------------------------------------
    @property
    def cpu_utilization(self) -> float:
        """Current CPU utilization in [0, 1] from hosted VM activities."""
        if not self.vms:
            return 0.0
        demand = sum(vm.current_activity * vm.resources.cpus for vm in self.vms)
        return min(demand / self.capacity.cpus, 1.0)

    @property
    def all_vms_idle(self) -> bool:
        """True iff every hosted VM is idle in the current hour."""
        return all(vm.is_idle_now for vm in self.vms)

    def mean_raw_ip(self, hour_index: int) -> float:
        """The host's IP: average of its VMs' raw IPs (section III).

        An empty host has no IP; we return 0.0 (undetermined), which
        makes empty hosts neutral targets for the IP weigher.
        """
        if not self.vms:
            return 0.0
        return sum(vm.raw_ip(hour_index) for vm in self.vms) / len(self.vms)

    def ip_range(self, hour_index: int) -> float:
        """Spread between most-idle and most-active VM IPs (section III-D)."""
        if len(self.vms) < 2:
            return 0.0
        ips = [vm.raw_ip(hour_index) for vm in self.vms]
        return max(ips) - min(ips)

    # ------------------------------------------------------------------
    # power-state machine
    # ------------------------------------------------------------------
    @property
    def state(self) -> PowerState:
        return self._state

    @state.setter
    def state(self, value: PowerState) -> None:
        # The one state writer: the meter bank's state column (read by
        # the columnar power step and meter charge) follows every write.
        self._state = value
        meter = self.meter
        meter._bank.state[meter._row] = value.code

    @property
    def grace_until(self) -> float:
        """End of the current grace period (no suspend before this time)."""
        meter = self.meter
        return float(meter._bank.grace_until[meter._row])

    @grace_until.setter
    def grace_until(self, value: float) -> None:
        meter = self.meter
        meter._bank.grace_until[meter._row] = value

    @property
    def is_available(self) -> bool:
        """Can the host execute VM work right now?"""
        return self.state is PowerState.ON

    @property
    def is_suspended(self) -> bool:
        return self.state is PowerState.SUSPENDED

    def _advance(self, now: float) -> None:
        state = self.state
        util = self.cpu_utilization if state is PowerState.ON else 0.0
        self.meter.advance(now, state, util)

    def _transition(self, now: float, allowed_from: tuple[PowerState, ...],
                    to_state: PowerState) -> None:
        if self.state not in allowed_from:
            raise HostStateError(
                f"{self.name}: illegal transition {self.state.name} -> {to_state.name}")
        self._advance(now)
        self.transitions.append(Transition(now, self.state, to_state))
        self.state = to_state

    def begin_suspend(self, now: float) -> None:
        """Enter S0->S3; the driver schedules :meth:`finish_suspend`."""
        self._transition(now, (PowerState.ON,), PowerState.SUSPENDING)
        self.suspend_count += 1

    def finish_suspend(self, now: float) -> None:
        self._transition(now, (PowerState.SUSPENDING,), PowerState.SUSPENDED)

    def begin_resume(self, now: float) -> None:
        """Enter S3->S0 (triggered by a WoL packet)."""
        self._transition(now, (PowerState.SUSPENDED,), PowerState.RESUMING)

    def finish_resume(self, now: float, grace_s: float = 0.0) -> None:
        """Back to S0; a grace period of ``grace_s`` starts now (section IV)."""
        self._transition(now, (PowerState.RESUMING,), PowerState.ON)
        self.resume_count += 1
        self.grace_until = max(self.grace_until, now + grace_s)

    def power_off(self, now: float) -> None:
        """S5 for empty hosts (classic consolidation's low-power state)."""
        if self.vms:
            raise HostStateError(f"{self.name}: cannot power off with VMs")
        self._transition(now, (PowerState.ON,), PowerState.OFF)

    def power_on(self, now: float) -> None:
        self._transition(now, (PowerState.OFF,), PowerState.ON)

    def crash(self, now: float) -> None:
        """Abrupt failure (fault injection): any live state drops to
        CRASHED.  VMs stay resident — the placement record stands, and
        shared storage restores them on :meth:`recover` — but the host
        serves nothing and draws off-state power until then."""
        self._transition(
            now,
            (PowerState.ON, PowerState.SUSPENDING, PowerState.SUSPENDED,
             PowerState.RESUMING),
            PowerState.CRASHED)
        self.crash_count += 1

    def recover(self, now: float) -> None:
        """Reboot a crashed host straight into S0 (no grace period)."""
        self._transition(now, (PowerState.CRASHED,), PowerState.ON)

    def sync_meter(self, now: float) -> None:
        """Charge energy up to ``now`` without changing state.

        Call before changing VM activities (utilization) and at the end
        of a simulation (a whole fleet: ``DataCenter.sync_meters``).
        """
        self._advance(now)

    def meter_time(self, now: float) -> float:
        """When an administrative action requested at ``now`` happens:
        ``now``, or the meter clock if that is already later.

        The hourly power step charges a transition a few seconds past
        the hour start; a migration, forced wake, power change, removal
        or crash at that hour start must never rewind the meter.
        """
        return max(now, self.meter.last_time)

    def in_grace(self, now: float) -> bool:
        """Within the post-resume grace period? (no suspend allowed)."""
        return now < self.grace_until

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Host({self.name}, {self.state.name}, vms={[v.name for v in self.vms]})"
