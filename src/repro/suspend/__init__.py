"""Host suspension subsystem: idleness detection, grace, timers."""

from .columnar import classify_hosts, module_is_columnar
from .grace import grace_from_raw_ip, grace_time_s
from .heuristics import (
    CombinedHeuristic,
    DirtyRateHeuristic,
    IdlenessHeuristic,
    ResourceFractionHeuristic,
)
from .module import SuspendDecision, SuspendingModule, SuspendVerdict
from .process import (
    DEFAULT_BLACKLIST,
    Process,
    ProcState,
    host_process_table,
    is_host_idle,
    vm_process_name,
)
from .timers import TimerEntry, TimerRegistry, compute_waking_date

__all__ = [
    "CombinedHeuristic",
    "DEFAULT_BLACKLIST",
    "DirtyRateHeuristic",
    "IdlenessHeuristic",
    "ProcState",
    "ResourceFractionHeuristic",
    "Process",
    "SuspendDecision",
    "SuspendVerdict",
    "SuspendingModule",
    "TimerEntry",
    "TimerRegistry",
    "classify_hosts",
    "compute_waking_date",
    "grace_from_raw_ip",
    "grace_time_s",
    "host_process_table",
    "is_host_idle",
    "module_is_columnar",
    "vm_process_name",
]
