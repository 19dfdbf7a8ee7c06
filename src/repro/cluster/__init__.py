"""Data-center substrate: hosts, VMs, power, events, migrations."""

from .accounting import HostAccounting, ScalarHostView, host_view
from .datacenter import DataCenter, PlacementError
from .events import Event, EventSimulator
from .host import Host, HostStateError, Transition
from .migration import MigrationModel, MigrationRecord
from .power import EnergyMeter, PowerModel, PowerState
from .resources import TESTBED_HOST, TESTBED_VM, HostCapacity, ResourceSpec
from .vm import VM, ServiceTimer

__all__ = [
    "DataCenter",
    "EnergyMeter",
    "HostAccounting",
    "ScalarHostView",
    "host_view",
    "Event",
    "EventSimulator",
    "Host",
    "HostCapacity",
    "HostStateError",
    "MigrationModel",
    "MigrationRecord",
    "PlacementError",
    "PowerModel",
    "PowerState",
    "ResourceSpec",
    "ServiceTimer",
    "TESTBED_HOST",
    "TESTBED_VM",
    "Transition",
    "VM",
]
