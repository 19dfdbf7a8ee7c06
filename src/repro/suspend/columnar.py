"""Columnar suspend verdicts: fleet-wide idleness checks (DESIGN.md §10).

The scalar :class:`~repro.suspend.module.SuspendingModule` renders a
host's process table and walks it per evaluation — exact, but ~50 µs of
Python per host per check, and the event-driven simulator performs one
check per host every ``suspend_check_period_s``.  This module derives
the same verdicts for *every* host at once from the columnar state the
fleet binding already maintains:

* runnable mask — a VM's QEMU process is RUNNING iff its activity this
  hour is positive; host daemons always run but are all blacklisted, so
  "some non-blacklisted process runnable" reduces to "not
  :meth:`~repro.cluster.accounting.HostAccounting.all_idle`";
* blocked-I/O mask — the fleet's ``blocked_io`` column (mirrored by the
  ``VM.blocked_io`` property) reduced per host;
* emptiness — the accounting's VM counts.

Grace windows and the final waking-date computation stay scalar: grace
is one float comparison per due host, and waking dates are only needed
for hosts that actually suspend.

Equivalence contract: for a module with the default blacklist and no
heuristic, :func:`classify_hosts`'s code (plus the caller's grace check)
maps to exactly the decision :meth:`SuspendingModule._evaluate` returns
for an ON host, in the same priority order (blocked-I/O before active,
active before grace).  Hosts whose module deviates — custom blacklist,
attached heuristic — are excluded via :func:`module_is_columnar` and
evaluated scalar by the sweep.  The per-host event path remains the
parity oracle (``PerHostEventSimulation`` in ``tests/oracles.py``).
"""

from __future__ import annotations

import numpy as np

from .module import SuspendDecision, SuspendingModule
from .process import DEFAULT_BLACKLIST

#: Host classification codes of :func:`classify_hosts`.  CANDIDATE means
#: "idle and unblocked: suspend unless within grace" — the only code
#: whose final decision needs per-host, per-sweep state (the grace
#: window against the current clock).
CODE_CANDIDATE = 0
CODE_EMPTY = 1
CODE_BLOCKED_IO = 2
CODE_ACTIVE = 3

#: Decision a non-candidate code maps to (candidates resolve to either
#: IN_GRACE or SUSPEND at sweep time).
DECISION_OF_CODE = {
    CODE_EMPTY: SuspendDecision.EMPTY,
    CODE_BLOCKED_IO: SuspendDecision.BLOCKED_IO,
    CODE_ACTIVE: SuspendDecision.ACTIVE,
}


def module_is_columnar(module: SuspendingModule) -> bool:
    """Can this module's verdicts come from the columnar pass?

    Deviations — a resource heuristic, a non-default blacklist — change
    the decision logic in ways the fleet-wide masks don't model, so such
    hosts fall back to the scalar :meth:`SuspendingModule.evaluate`.
    """
    if module.heuristic is not None:
        return False
    bl = module.blacklist
    return bl is DEFAULT_BLACKLIST or bl == DEFAULT_BLACKLIST


def classify_hosts(accounting, hour_index: int) -> np.ndarray:
    """(n_hosts,) classification codes for one simulated hour.

    One vectorized pass over the accounting's cached per-hour columns;
    priority mirrors the scalar walk: emptiness, then blocked I/O, then
    runnable processes, leaving CANDIDATE for hosts that may suspend
    (subject to the caller's grace check).
    """
    counts = accounting.vm_counts()
    blocked = accounting.any_blocked_io()
    idle = accounting.all_idle(hour_index)
    return np.where(
        counts == 0, CODE_EMPTY,
        np.where(blocked, CODE_BLOCKED_IO,
                 np.where(~idle, CODE_ACTIVE, CODE_CANDIDATE)))
