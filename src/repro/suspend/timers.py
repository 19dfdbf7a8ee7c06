"""Waking date and the hrtimer registry (paper section V-B).

In the kernel, every sleeping process that set a wakeup has a timer in
the hrtimer red-black tree, and on suspension the suspending module
walks that tree for the earliest timer of a non-blacklisted process —
that is the waking date.  If no valid timer exists, the host "can remain
suspended indefinitely until the waking module wakes it up because of an
external request".

The simulator keeps no kernel between suspends: a host's pending timers
are a pure function of its VMs' :class:`~repro.cluster.vm.ServiceTimer`
periods and the daemons' fixed tick.  So :func:`compute_waking_date`
reads them straight off the host and takes their minimum, which is the
tree walk's answer without building a tree per suspend.
:class:`TimerRegistry` models the kernel structure itself for the
section VI-A.4 evaluation (E7), which measures the walk.
"""

from __future__ import annotations

from bisect import bisect_left, insort_right
from dataclasses import dataclass
from operator import attrgetter

from ..cluster.host import Host
from .process import DEFAULT_BLACKLIST

#: Period of each host daemon's own timer (watchdogs, monitoring
#: agents): the section V-B "false positives" the blacklist filters out.
DAEMON_PERIOD_S = 60.0

_fire_time = attrgetter("fire_time_s")


@dataclass(frozen=True)
class TimerEntry:
    """One registered hrtimer."""

    fire_time_s: float
    process_name: str
    timer_name: str
    vm_name: str | None = None


class TimerRegistry:
    """Pending timers in expiry order with process-based filtering.

    Entries with equal fire times keep their registration order (a
    re-armed timer moves behind its ties), as in the kernel's tree.
    """

    def __init__(self) -> None:
        self._entries: list[TimerEntry] = []
        self._armed: dict[tuple[str, str], TimerEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def register(self, entry: TimerEntry) -> None:
        """Register (or re-arm) a timer; re-arming replaces the old expiry."""
        key = (entry.process_name, entry.timer_name)
        old = self._armed.pop(key, None)
        if old is not None:
            self._remove(old)
        insort_right(self._entries, entry, key=_fire_time)
        self._armed[key] = entry

    def cancel(self, process_name: str, timer_name: str) -> bool:
        """Cancel a timer; returns False if it was not registered."""
        entry = self._armed.pop((process_name, timer_name), None)
        if entry is None:
            return False
        self._remove(entry)
        return True

    def _remove(self, entry: TimerEntry) -> None:
        entries = self._entries
        i = bisect_left(entries, entry.fire_time_s, key=_fire_time)
        while entries[i] is not entry:
            i += 1
        del entries[i]

    def earliest_valid(self, blacklist: frozenset[str] = DEFAULT_BLACKLIST) -> TimerEntry | None:
        """Earliest timer of a non-blacklisted process (the waking date).

        This is the section V-B walk: timers registered by the same
        processes the idleness check ignores are filtered out, so a
        watchdog's periodic timer cannot wake the host.
        """
        for entry in self._entries:
            if entry.process_name not in blacklist:
                return entry
        return None

    def entries(self) -> list[TimerEntry]:
        """All pending timers in expiry order."""
        return list(self._entries)


def compute_waking_date(host: Host, now: float,
                        blacklist: frozenset[str] = DEFAULT_BLACKLIST) -> float | None:
    """The waking date for a host about to suspend, or None.

    The earliest fire time over the host's valid timers: each daemon's
    next tick unless the daemon is blacklisted, and each VM service
    timer's next fire unless its process is.  None means no work of
    interest is scheduled: the host may sleep until an external request
    arrives (section V-B).
    """
    dates = [timer.next_fire(now) for vm in host.vms for timer in vm.timers
             if timer.process_name not in blacklist]
    if any(daemon not in blacklist for daemon in DEFAULT_BLACKLIST):
        dates.append(now + DAEMON_PERIOD_S)
    return min(dates, default=None)
