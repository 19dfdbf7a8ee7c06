"""E7 — §VI-A.4: evaluation of the suspending module.

The source scan loses part of this section; its three announced axes
survive and are reproduced here:

1. **effectiveness** — detection of idle states (precision/recall of the
   suspend verdicts against ground-truth idleness), prevention of power-
   state oscillations (suspend/resume cycles with vs without grace on a
   flapping workload), and calculation of the next waking date (timer
   scenarios, including blacklist filtering);
2. **overhead** — wall-clock cost of one idleness evaluation and of one
   waking-date computation;
3. **scalability** — evaluation cost as the number of processes/timers
   on the host grows (the module scans the process table and walks the
   expiry-ordered hrtimers to the first valid one).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..cluster.datacenter import DataCenter
from ..cluster.host import Host
from ..cluster.resources import HostCapacity, ResourceSpec
from ..cluster.vm import VM, ServiceTimer
from ..core.params import DEFAULT_PARAMS, DrowsyParams
from ..suspend.module import SuspendingModule
from ..suspend.timers import TimerEntry, TimerRegistry, compute_waking_date
from ..traces.base import ActivityTrace
from ..traces.synthetic import daily_backup_trace


@dataclass
class DetectionStats:
    true_suspend: int = 0
    false_suspend: int = 0
    true_awake: int = 0
    false_awake: int = 0

    @property
    def precision(self) -> float:
        d = self.true_suspend + self.false_suspend
        return self.true_suspend / d if d else float("nan")

    @property
    def recall(self) -> float:
        d = self.true_suspend + self.false_awake
        return self.true_suspend / d if d else float("nan")


@dataclass
class SuspendingEvalData:
    detection: DetectionStats
    cycles_with_grace: int
    cycles_without_grace: int
    waking_date_ok: bool
    blacklist_filtered: bool
    eval_cost_us: float
    waking_date_cost_us: dict[int, float]

    def render(self) -> str:
        lines = [
            "§VI-A.4 — suspending module evaluation",
            f"idle detection precision  {self.detection.precision:.3f}",
            f"idle detection recall     {self.detection.recall:.3f}",
            f"oscillation cycles        {self.cycles_without_grace} without grace "
            f"-> {self.cycles_with_grace} with grace",
            f"waking date correctness   {'OK' if self.waking_date_ok else 'FAILED'}",
            f"blacklist timer filtering {'OK' if self.blacklist_filtered else 'FAILED'}",
            f"one evaluation costs      {self.eval_cost_us:.1f} us",
            "waking-date cost vs #timers:",
        ]
        for n, us in sorted(self.waking_date_cost_us.items()):
            lines.append(f"  {n:>6} timers: {us:10.1f} us")
        return "\n".join(lines)


def _mini_host(params: DrowsyParams, trace: ActivityTrace,
               timers: tuple[ServiceTimer, ...] = ()) -> tuple[Host, VM]:
    host = Host("eval-host", HostCapacity(cpus=8, memory_mb=16384), params)
    vm = VM("eval-vm", trace, ResourceSpec(cpus=2, memory_mb=4096), params=params,
            timers=(ServiceTimer("backup", period_s=24 * 3600.0,
                                 first_fire_s=2 * 3600.0),) + timers)
    DataCenter([host], params).place(vm, host)
    return host, vm


def detection_effectiveness(params: DrowsyParams = DEFAULT_PARAMS,
                            days: int = 14, seed: int = 3) -> DetectionStats:
    """Hourly suspend verdicts vs ground-truth idleness."""
    from ..traces.production import production_trace

    trace = production_trace(1, days=days, seed=seed)
    host, vm = _mini_host(params, trace)
    module = SuspendingModule(host, params)
    stats = DetectionStats()
    for t in range(days * 24):
        vm.current_activity = trace.activities[t]
        verdict = module.evaluate(now=t * 3600.0 + 10.0)
        idle = trace.activities[t] == 0.0
        if verdict.should_suspend and idle:
            stats.true_suspend += 1
        elif verdict.should_suspend and not idle:
            stats.false_suspend += 1
        elif not verdict.should_suspend and not idle:
            stats.true_awake += 1
        else:
            stats.false_awake += 1
    return stats


def oscillation_cycles(params: DrowsyParams, flap_period_s: float = 10.0,
                       duration_s: float = 1800.0) -> int:
    """Suspend/resume cycles under a flapping workload.

    The workload alternates idle/active every ``flap_period_s``; without
    grace every idle dip triggers a suspend (then an immediate resume),
    with grace the host rides the dips out.
    """
    from ..traces.synthetic import always_idle_trace

    host, vm = _mini_host(params, always_idle_trace(max(1, int(duration_s // 3600) + 1)))
    module = SuspendingModule(host, params)
    now = 0.0
    step = params.suspend_check_period_s
    while now < duration_s:
        phase = int(now // flap_period_s) % 2
        vm.current_activity = 0.0 if phase == 0 else 0.5
        if host.is_suspended:
            if vm.current_activity > 0.0:
                host.begin_resume(now)
                host.finish_resume(now + params.resume_latency_s,
                                   module.grace_for_resume(now, 0))
        else:
            verdict = module.evaluate(now)
            if verdict.should_suspend:
                host.begin_suspend(now)
                host.finish_suspend(now + params.suspend_latency_s)
        now += step
    return host.suspend_count


def waking_date_correctness(params: DrowsyParams = DEFAULT_PARAMS) -> tuple[bool, bool]:
    """The computed waking date is the earliest *valid* timer, and a
    blacklisted process's earlier timer does not move it."""
    host, vm = _mini_host(params, daily_backup_trace(days=2))
    vm.current_activity = 0.0
    now = 10 * 3600.0  # 10 am, next backup tomorrow 2 am
    date = compute_waking_date(host, now)
    expected = (24 + 2) * 3600.0
    ok = date is not None and abs(date - expected) < 1e-6
    # A watchdog's timer fires much earlier but must be ignored, unless
    # nothing is blacklisted.
    watchdog = ServiceTimer("tick", period_s=60.0, first_fire_s=now + 60.0,
                            process_name="watchdogd")
    host, _ = _mini_host(params, daily_backup_trace(days=2), (watchdog,))
    filtered = (compute_waking_date(host, now) == date
                and compute_waking_date(host, now, frozenset()) == now + 60.0)
    return ok, filtered


def evaluation_overhead_us(params: DrowsyParams = DEFAULT_PARAMS,
                           iterations: int = 2000) -> float:
    host, vm = _mini_host(params, daily_backup_trace(days=1))
    module = SuspendingModule(host, params)
    t0 = time.perf_counter()
    for i in range(iterations):
        module.evaluate(float(i))
    return 1e6 * (time.perf_counter() - t0) / iterations


def waking_date_scalability(sizes: tuple[int, ...] = (100, 1000, 10000),
                            seed: int = 5) -> dict[int, float]:
    """Cost of earliest-valid-timer over growing hrtimer registries."""
    rng = np.random.default_rng(seed)
    out = {}
    for n in sizes:
        registry = TimerRegistry()
        fire = rng.uniform(0.0, 1e6, size=n)
        for i in range(n):
            registry.register(TimerEntry(float(fire[i]), f"proc-{i}", f"t{i}"))
        reps = max(2000 // max(n // 100, 1), 10)
        t0 = time.perf_counter()
        for _ in range(reps):
            registry.earliest_valid()
        out[n] = 1e6 * (time.perf_counter() - t0) / reps
    return out


def run(params: DrowsyParams = DEFAULT_PARAMS) -> SuspendingEvalData:
    detection = detection_effectiveness(params)
    with_grace = oscillation_cycles(params)
    without_grace = oscillation_cycles(params.replace(use_grace=False))
    ok, filtered = waking_date_correctness(params)
    return SuspendingEvalData(
        detection=detection,
        cycles_with_grace=with_grace,
        cycles_without_grace=without_grace,
        waking_date_ok=ok,
        blacklist_filtered=filtered,
        eval_cost_us=evaluation_overhead_us(params),
        waking_date_cost_us=waking_date_scalability(),
    )


if __name__ == "__main__":
    from ..obs.log import console

    console(run().render())
