"""SLA analysis (paper §VI-A.3).

The CloudSuite Web Search SLA requires more than 99 % of requests within
200 ms; requests that trigger a host wake may take up to the resume
latency (~1500 ms baseline, ~800 ms with the quick-resume optimization)
but remain a minority, so the overall SLA holds.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.params import SLA_LATENCY_S
from ..network.requests import RequestLog


@dataclass(frozen=True)
class SLAReport:
    """SLA verdict over a request log."""

    total_requests: int
    sla_fraction: float
    p50_s: float
    p99_s: float
    max_s: float
    wake_requests: int
    max_wake_latency_s: float
    sla_bound_s: float = SLA_LATENCY_S

    @property
    def sla_met(self) -> bool:
        """The paper's bar: >99 % of requests within the bound."""
        return self.sla_fraction > 0.99

    @property
    def wake_fraction(self) -> float:
        return self.wake_requests / self.total_requests if self.total_requests else 0.0

    def render(self) -> str:
        return "\n".join([
            f"requests                {self.total_requests}",
            f"within {1000 * self.sla_bound_s:.0f} ms            {100 * self.sla_fraction:.2f} %",
            f"p50 / p99 / max         {1000 * self.p50_s:.0f} / {1000 * self.p99_s:.0f} / {1000 * self.max_s:.0f} ms",
            f"wake-triggered          {self.wake_requests} ({100 * self.wake_fraction:.2f} %)",
            f"max wake latency        {1000 * self.max_wake_latency_s:.0f} ms",
            f"SLA (>99% in bound)     {'MET' if self.sla_met else 'VIOLATED'}",
        ])


def sla_report(log: RequestLog, bound_s: float = SLA_LATENCY_S) -> SLAReport:
    """Every statistic from one latency array (:meth:`RequestLog.summary`)."""
    s = log.summary(bound_s)
    return SLAReport(
        total_requests=int(s["requests"]),
        sla_fraction=s["sla_fraction"],
        p50_s=s["p50_s"],
        p99_s=s["p99_s"],
        max_s=s["max_s"],
        wake_requests=int(s["wake_requests"]),
        max_wake_latency_s=s["max_wake_latency_s"],
        sla_bound_s=bound_s,
    )
