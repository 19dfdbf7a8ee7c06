"""Workload trace generation: synthetic, production-like and Google-like."""

from .base import ActivityTrace, VMKind, activity_matrix
from .google import google_llmu_fleet, google_llmu_trace
from .noise import (
    DEFAULT_MIN_QUANTUM_S,
    QuantaSample,
    filter_activity,
    observed_activity,
    synthesize_quanta,
)
from .planetlab import planetlab_fleet, planetlab_like_trace
from .replay import read_hourly_column, trace_from_csv
from .production import (
    PRODUCTION_SPECS,
    fig1_traces,
    production_trace,
    testbed_llmi_traces,
)
from .synthetic import (
    always_idle_trace,
    build_trace,
    comic_strips_trace,
    daily_backup_trace,
    llmu_trace,
    seasonal_results_trace,
    slmu_trace,
    weekly_pattern_trace,
)

__all__ = [
    "ActivityTrace",
    "DEFAULT_MIN_QUANTUM_S",
    "activity_matrix",
    "PRODUCTION_SPECS",
    "QuantaSample",
    "VMKind",
    "always_idle_trace",
    "build_trace",
    "comic_strips_trace",
    "daily_backup_trace",
    "fig1_traces",
    "filter_activity",
    "google_llmu_fleet",
    "google_llmu_trace",
    "llmu_trace",
    "observed_activity",
    "planetlab_fleet",
    "planetlab_like_trace",
    "production_trace",
    "read_hourly_column",
    "seasonal_results_trace",
    "slmu_trace",
    "synthesize_quanta",
    "testbed_llmi_traces",
    "trace_from_csv",
    "weekly_pattern_trace",
]
