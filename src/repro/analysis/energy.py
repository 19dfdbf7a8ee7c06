"""Energy and suspended-time reporting (paper Table I and §VI-A.3).

Renders per-host suspended-time fractions and kWh totals for a set of
runs, and computes the improvement factors the paper quotes (Drowsy vs
Neat+S3, Drowsy vs Neat-without-suspension).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class RunSummary:
    """The numbers one simulation run contributes to the comparison."""

    label: str
    energy_kwh: float
    suspended_fraction_by_host: dict[str, float]

    @property
    def global_suspended_fraction(self) -> float:
        vals = list(self.suspended_fraction_by_host.values())
        return sum(vals) / len(vals) if vals else 0.0


def summarize(label: str, result) -> RunSummary:
    """Build a RunSummary from a :class:`~repro.api.RunResult`."""
    return RunSummary(
        label=label,
        energy_kwh=result.total_energy_kwh,
        suspended_fraction_by_host=dict(result.suspended_fraction_by_host),
    )


def improvement_pct(baseline: float, improved: float) -> float:
    """Relative saving of ``improved`` vs ``baseline``, in percent."""
    if baseline <= 0:
        raise ValueError("baseline must be positive")
    return 100.0 * (baseline - improved) / baseline


def suspension_table(runs: list[RunSummary], host_names: list[str]) -> str:
    """Table I layout: per-host suspended-time percentage + global."""
    header = f"{'Algorithm':<14}" + "".join(f"{h:>8}" for h in host_names) + f"{'Global':>8}"
    lines = [header, "-" * len(header)]
    for run in runs:
        cells = "".join(
            f"{100 * run.suspended_fraction_by_host.get(h, 0.0):>8.0f}"
            for h in host_names)
        lines.append(f"{run.label:<14}{cells}{100 * run.global_suspended_fraction:>8.0f}")
    return "\n".join(lines)


def energy_table(runs: list[RunSummary]) -> str:
    """kWh totals with savings relative to the first (baseline) run."""
    base = runs[0].energy_kwh
    header = f"{'Configuration':<26}{'kWh':>8}{'saving':>9}"
    lines = [header, "-" * len(header)]
    for run in runs:
        saving = improvement_pct(base, run.energy_kwh)
        lines.append(f"{run.label:<26}{run.energy_kwh:>8.2f}{saving:>8.1f}%")
    return "\n".join(lines)
