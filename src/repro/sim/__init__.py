"""Simulation drivers: analytic hourly loop and event-driven full stack."""

from .event_driven import EventConfig, EventDrivenSimulation
from .hourly import HourlyConfig, HourlySimulator
from .suspend_sweep import SuspendSweepScheduler
from .sweep import SweepCell, SweepRow, SweepRunner, SweepTable, grid, run_cell

__all__ = [
    "EventConfig",
    "EventDrivenSimulation",
    "HourlyConfig",
    "HourlySimulator",
    "SweepCell",
    "SweepRow",
    "SweepRunner",
    "SuspendSweepScheduler",
    "SweepTable",
    "grid",
    "run_cell",
]
