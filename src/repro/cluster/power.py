"""Host power states and energy accounting (paper sections IV, VI-A.2).

The power model is the standard linear-in-utilization server model with
the paper's measured constants: a suspended (ACPI S3) host draws about
5 W, roughly 10 % of its S0-idle draw.  State transitions (suspending /
resuming) are modelled with the S0 power draw for their (short)
duration, which is conservative for the energy results.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ..core.params import DEFAULT_PARAMS, DrowsyParams


class PowerState(enum.Enum):
    """ACPI-flavoured host power states."""

    ON = "S0"              # running (idle or busy)
    SUSPENDING = "S0->S3"  # transition into suspend-to-RAM
    SUSPENDED = "S3"       # suspend-to-RAM ("drowsy")
    RESUMING = "S3->S0"    # waking up
    OFF = "S5"             # powered off (empty host, classic consolidation)
    CRASHED = "fault"      # abruptly down (fault injection); draws off_w


@dataclass(frozen=True)
class PowerModel:
    """Linear utilization power model with S3/off floors."""

    idle_w: float = DEFAULT_PARAMS.idle_power_w
    max_w: float = DEFAULT_PARAMS.max_power_w
    suspend_w: float = DEFAULT_PARAMS.suspend_power_w
    off_w: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.suspend_w <= self.idle_w <= self.max_w:
            raise ValueError("power model must satisfy 0 <= S3 <= idle <= max")

    def power(self, state: PowerState, utilization: float) -> float:
        """Instantaneous draw (W) for a state and CPU utilization in [0,1]."""
        if not 0.0 <= utilization <= 1.0:
            raise ValueError(f"utilization must be in [0, 1], got {utilization}")
        if state is PowerState.SUSPENDED:
            return self.suspend_w
        if state is PowerState.OFF or state is PowerState.CRASHED:
            return self.off_w
        # ON and both transitions draw S0 power.
        return self.s0_power(utilization)

    def s0_power(self, utilization):
        """S0 draw at ``utilization`` (a float or an array of them)."""
        return self.idle_w + (self.max_w - self.idle_w) * utilization

    @classmethod
    def from_params(cls, params: DrowsyParams) -> "PowerModel":
        return cls(idle_w=params.idle_power_w, max_w=params.max_power_w,
                   suspend_w=params.suspend_power_w)


#: Power states in column order: ``state.code``, a state's value in
#: :class:`MeterBank`'s ``state`` column, is its index here (an attribute,
#: not a dict lookup: the enum's hash is Python code).
POWER_STATES: tuple[PowerState, ...] = tuple(PowerState)
for _code, _state in enumerate(POWER_STATES):
    _state.code = _code
ON_CODE = PowerState.ON.code
SUSPENDED_CODE = PowerState.SUSPENDED.code
OFF_CODE = PowerState.OFF.code
CRASHED_CODE = PowerState.CRASHED.code


class MeterBank:
    """Per-host power columns: the energy meters of a whole fleet.

    One row per host (``DataCenter`` order): accumulated energy, the
    meter clock, the power-state code, seconds per state, the
    post-resume grace deadline and the host's :class:`PowerModel`
    constants.  :class:`EnergyMeter` is a row view; :meth:`charge`
    advances every row at once with the same elementwise IEEE
    operations as the scalar :meth:`EnergyMeter.advance`, so a host's
    floats do not depend on which of the two charged it (DESIGN.md §7).
    """

    def __init__(self, models: list[PowerModel], names: list[str]) -> None:
        n = len(models)
        self.models = list(models)
        self.names = list(names)
        self.idle_w = np.array([m.idle_w for m in models], dtype=np.float64)
        self.max_w = np.array([m.max_w for m in models], dtype=np.float64)
        self.suspend_w = np.array([m.suspend_w for m in models],
                                  dtype=np.float64)
        self.off_w = np.array([m.off_w for m in models], dtype=np.float64)
        self.energy_j = np.zeros(n)
        self.last_time = np.zeros(n)
        self.state = np.full(n, ON_CODE, dtype=np.int8)
        self.state_seconds = np.zeros((n, len(POWER_STATES)))
        self.grace_until = np.zeros(n)

    @classmethod
    def gather(cls, meters: list["EnergyMeter"],
               names: list[str]) -> "MeterBank":
        """A bank holding ``meters``' current rows; each meter is
        re-seated onto its row of the new bank (same meter objects)."""
        bank = cls([m.model for m in meters], names)
        for k, m in enumerate(meters):
            old, r = m._bank, m._row
            bank.energy_j[k] = old.energy_j[r]
            bank.last_time[k] = old.last_time[r]
            bank.state[k] = old.state[r]
            bank.state_seconds[k] = old.state_seconds[r]
            bank.grace_until[k] = old.grace_until[r]
            m._bank, m._row = bank, k
        return bank

    def _rewind_error(self, row: int, now: float) -> ValueError:
        return ValueError(f"{self.names[row]}: time went backwards: "
                          f"{float(self.last_time[row])} -> {now}")

    def charge(self, now: float, utilizations) -> None:
        """Charge every row's interval [last_time, now] at its current
        state and utilization (non-ON rows at utilization 0).

        Rows whose clock is already at or past ``now`` are left alone,
        exactly like :meth:`EnergyMeter.advance`; a clock more than
        1 ns past ``now`` raises.
        """
        dt = now - self.last_time
        back = dt < -1e-9
        if back.any():
            raise self._rewind_error(int(np.argmax(back)), now)
        due = dt > 0
        if not due.any():
            return
        state = self.state
        util = np.where(state == ON_CODE,
                        np.asarray(utilizations, dtype=np.float64), 0.0)
        bad = due & ~((util >= 0.0) & (util <= 1.0))
        if bad.any():
            k = int(np.argmax(bad))
            raise ValueError(
                f"utilization must be in [0, 1], got {float(util[k])}")
        power = self.idle_w + (self.max_w - self.idle_w) * util
        power = np.where(state == SUSPENDED_CODE, self.suspend_w, power)
        power = np.where((state == OFF_CODE) | (state == CRASHED_CODE),
                         self.off_w, power)
        rows = np.flatnonzero(due)
        step = dt[rows]
        self.energy_j[rows] += power[rows] * step
        self.state_seconds[rows, state[rows]] += step
        self.last_time[rows] = now


class EnergyMeter:
    """Piecewise-constant energy integrator for one host: a row of a
    :class:`MeterBank`.

    Callers must invoke :meth:`advance` *before* changing the host's
    state or utilization so the elapsed interval is charged at the old
    operating point.  Also tracks wall time per power state, which is
    what Table I reports.  A meter built on its own gets a private
    one-row bank; a :class:`~repro.cluster.datacenter.DataCenter`
    re-seats its hosts' meters onto one shared bank.
    """

    __slots__ = ("_bank", "_row")

    def __init__(self, model: PowerModel | None = None,
                 name: str = "meter") -> None:
        self._bank = MeterBank([model or PowerModel()], [name])
        self._row = 0

    @property
    def model(self) -> PowerModel:
        return self._bank.models[self._row]

    @property
    def last_time(self) -> float:
        return float(self._bank.last_time[self._row])

    @property
    def energy_j(self) -> float:
        return float(self._bank.energy_j[self._row])

    @property
    def state_seconds(self) -> dict[PowerState, float]:
        """Seconds metered per state (a snapshot, in state order)."""
        return dict(zip(POWER_STATES,
                        self._bank.state_seconds[self._row].tolist()))

    def advance(self, now: float, state: PowerState, utilization: float) -> None:
        """Charge the interval [last_time, now] at (state, utilization)."""
        bank, r = self._bank, self._row
        last = float(bank.last_time[r])
        dt = now - last
        if dt < -1e-9:
            raise bank._rewind_error(r, now)
        if dt > 0:
            bank.energy_j[r] = (float(bank.energy_j[r])
                                + bank.models[r].power(state, utilization) * dt)
            bank.state_seconds[r, state.code] += dt
            bank.last_time[r] = now

    @property
    def energy_kwh(self) -> float:
        return self.energy_j / 3.6e6

    @property
    def total_seconds(self) -> float:
        return sum(self._bank.state_seconds[self._row].tolist())

    def fraction_in(self, *states: PowerState) -> float:
        """Fraction of metered time spent in the given states."""
        total = self.total_seconds
        if total == 0.0:
            return 0.0
        seconds = self.state_seconds
        return sum(seconds[s] for s in states) / total

    @property
    def suspended_fraction(self) -> float:
        """Fraction of time in S3 — the Table I metric."""
        return self.fraction_in(PowerState.SUSPENDED)
