"""Idleness-model evaluation harness (paper Fig. 4, Tables II-III).

Feeds traces to idleness models with the online protocol (predict the
hour, then learn it) and produces cumulative metric curves.  Multiple
traces are evaluated in one vectorized pass through
:class:`~repro.core.fleet.FleetIdlenessModel`.
"""

from __future__ import annotations

from dataclasses import dataclass


from ..core.fleet import FleetIdlenessModel
from ..core.metrics import MetricCurves, cumulative_curves
from ..core.params import DEFAULT_PARAMS, DrowsyParams
from ..traces.base import ActivityTrace, activity_matrix


@dataclass(frozen=True)
class TraceEvaluation:
    """Evaluation artefacts for one trace."""

    trace_name: str
    curves: MetricCurves

    @property
    def final_f_measure(self) -> float:
        return self.curves.final()["f_measure"]

    @property
    def final_specificity(self) -> float:
        return self.curves.final()["specificity"]


def evaluate_traces(traces: list[ActivityTrace],
                    params: DrowsyParams = DEFAULT_PARAMS,
                    hours: int | None = None,
                    sample_every: int = 24,
                    start_hour: int = 0) -> list[TraceEvaluation]:
    """Run the Fig. 4 protocol over several traces in one fleet pass.

    ``hours`` defaults to the longest trace; shorter traces extend
    periodically (the paper extends one-week traces to three years).
    """
    if not traces:
        raise ValueError("need at least one trace")
    T = hours if hours is not None else max(t.hours for t in traces)
    activities = activity_matrix(traces, T)
    fleet = FleetIdlenessModel(len(traces), params)
    predictions, actuals = fleet.run_trace_matrix(activities, start_hour=start_hour)
    out = []
    for i, trace in enumerate(traces):
        curves = cumulative_curves(predictions[i], actuals[i], sample_every)
        out.append(TraceEvaluation(trace.name, curves))
    return out


def evaluation_table(evaluations: list[TraceEvaluation]) -> str:
    """Render final metrics as an aligned ASCII table."""
    header = f"{'trace':<22} {'recall':>7} {'precision':>9} {'f-measure':>9} {'specificity':>11}"
    lines = [header, "-" * len(header)]
    for ev in evaluations:
        f = ev.curves.final()
        lines.append(
            f"{ev.trace_name:<22} {f['recall']:>7.3f} {f['precision']:>9.3f} "
            f"{f['f_measure']:>9.3f} {f['specificity']:>11.3f}")
    return "\n".join(lines)
