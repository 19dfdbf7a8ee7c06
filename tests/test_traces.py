"""Tests for trace generation and the quanta noise filter."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.traces import (
    ActivityTrace,
    QuantaSample,
    VMKind,
    activity_matrix,
    always_idle_trace,
    build_trace,
    comic_strips_trace,
    daily_backup_trace,
    fig1_traces,
    filter_activity,
    google_llmu_fleet,
    google_llmu_trace,
    llmu_trace,
    observed_activity,
    production_trace,
    seasonal_results_trace,
    slmu_trace,
    synthesize_quanta,
    weekly_pattern_trace,
)
from repro.traces.base import trace_rows
# Aliased so pytest does not collect the imported helper as a test.
from repro.traces import testbed_llmi_traces as make_testbed_llmi_traces


class TestActivityTrace:
    def test_validation_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ActivityTrace("bad", np.array([0.5, 1.2]))

    def test_validation_rejects_empty(self):
        with pytest.raises(ValueError):
            ActivityTrace("bad", np.array([]))

    def test_validation_rejects_2d(self):
        with pytest.raises(ValueError):
            ActivityTrace("bad", np.zeros((2, 2)))

    @pytest.mark.parametrize("level", (np.nan, np.inf, -np.inf))
    def test_validation_rejects_non_finite(self, level):
        with pytest.raises(ValueError, match="finite"):
            ActivityTrace("bad", [0.1, level, 0.0])

    @pytest.mark.parametrize("level", (np.nan, np.inf, -np.inf))
    def test_matrix_validation_rejects_non_finite(self, level):
        matrix = np.full((3, 4), 0.5)
        matrix[2, 1] = level
        with pytest.raises(ValueError, match="finite"):
            trace_rows(matrix, "abc", [VMKind.LLMI] * 3)

    def test_trace_rows_are_read_only_views(self):
        matrix = np.array([[0.0, 0.5, 1.0], [0.25, 0.0, 0.0]])
        a, b = trace_rows(matrix, ["a", "b"], [VMKind.LLMI, VMKind.LLMU],
                          lengths=[3, 2])
        assert (a.name, a.kind, a.hours) == ("a", VMKind.LLMI, 3)
        assert (b.name, b.kind, b.hours) == ("b", VMKind.LLMU, 2)
        assert a.activities.base is matrix and b.activities.base is matrix
        assert not matrix.flags.writeable
        assert b.activities.tolist() == [0.25, 0.0]
        with pytest.raises(ValueError):
            a.activities[0] = 0.5

    def test_idle_fraction(self):
        tr = ActivityTrace("t", np.array([0.0, 0.0, 0.5, 0.5]))
        assert tr.idle_fraction == 0.5
        assert tr.mean_active_level == 0.5

    def test_periodic_extension(self):
        tr = ActivityTrace("t", np.array([0.1, 0.0]))
        assert tr.activity(0) == pytest.approx(0.1)
        assert tr.activity(2) == pytest.approx(0.1)
        assert tr.activity(5) == pytest.approx(0.0)

    def test_window_wraps(self):
        tr = ActivityTrace("t", np.array([0.1, 0.2, 0.3]))
        np.testing.assert_allclose(tr.window(2, 3), [0.3, 0.1, 0.2])

    def test_tiled_length(self):
        tr = daily_backup_trace(days=2)
        assert tr.tiled(100).hours == 100

    def test_trace_matrix_shape(self):
        traces = [daily_backup_trace(days=2), always_idle_trace(24)]
        M = activity_matrix(traces, 72)
        assert M.shape == (2, 72)


class TestSyntheticTraces:
    def test_daily_backup_active_only_at_backup_hour(self):
        tr = daily_backup_trace(days=10, backup_hour=2)
        A = tr.activities.reshape(10, 24)
        assert np.all(A[:, 2] > 0)
        mask = np.ones(24, bool)
        mask[2] = False
        assert np.all(A[:, mask] == 0)

    def test_comic_strips_holiday_months_idle(self):
        tr = comic_strips_trace(years=1)
        from repro.core.calendar import slots_of_hours

        h, dw, dm, m, doy = slots_of_hours(np.arange(tr.hours))
        in_holidays = np.isin(m, (6, 7))
        assert np.all(tr.activities[in_holidays] == 0)
        # Publications happen on Mon/Wed/Fri mornings outside holidays.
        pub = np.isin(dw, (0, 2, 4)) & np.isin(h, (8, 9, 10)) & ~in_holidays
        assert np.all(tr.activities[pub] > 0)

    def test_seasonal_results_one_day_per_year(self):
        tr = seasonal_results_trace(years=1)
        active_hours = np.nonzero(tr.activities)[0]
        assert len(active_hours) == 2  # two hours, one day per year
        from repro.core.calendar import slot_of_hour

        s = slot_of_hour(int(active_hours[0]))
        assert s.month == 6 and s.day_of_month == 19

    def test_llmu_never_idle(self):
        tr = llmu_trace(hours=24 * 30)
        assert tr.idle_fraction == 0.0
        assert tr.kind is VMKind.LLMU

    def test_slmu_shape(self):
        tr = slmu_trace(lifetime_hours=5, total_hours=10)
        assert np.all(tr.activities[:5] > 0)
        assert np.all(tr.activities[5:] == 0)
        assert tr.kind is VMKind.SLMU

    def test_slmu_lifetime_validation(self):
        with pytest.raises(ValueError):
            slmu_trace(lifetime_hours=5, total_hours=3)

    def test_weekly_pattern(self):
        tr = weekly_pattern_trace("w", {0: (9, 10)}, weeks=2)
        A = tr.activities.reshape(14, 24)
        assert np.all(A[0, [9, 10]] > 0)  # Monday
        assert np.all(A[1] == 0)          # Tuesday

    def test_build_trace_requires_rng_for_stochastic(self):
        with pytest.raises(ValueError):
            build_trace("x", 24, lambda h, dw, dm, m, doy: h == 0, p_extra=0.1)

    def test_build_trace_rejects_bad_mask(self):
        with pytest.raises(ValueError):
            build_trace("x", 24, lambda h, dw, dm, m, doy: np.ones(5, bool))


class TestProductionTraces:
    def test_deterministic_with_seed(self):
        a = production_trace(1, days=7, seed=5)
        b = production_trace(1, days=7, seed=5)
        np.testing.assert_array_equal(a.activities, b.activities)

    def test_different_indices_differ(self):
        a = production_trace(1, days=7, seed=5)
        b = production_trace(2, days=7, seed=5)
        assert not np.array_equal(a.activities, b.activities)

    def test_index_range(self):
        with pytest.raises(ValueError):
            production_trace(0)
        with pytest.raises(ValueError):
            production_trace(6)

    def test_llmi_mostly_idle(self):
        for i in range(1, 6):
            tr = production_trace(i, days=28)
            assert tr.idle_fraction > 0.7, tr.name
            assert tr.kind is VMKind.LLMI

    def test_fig1_vm3_vm4_identical(self):
        traces = fig1_traces(days=6)
        np.testing.assert_array_equal(traces["VM3"].activities,
                                      traces["VM4"].activities)
        assert not np.array_equal(traces["VM3"].activities,
                                  traces["VM6"].activities)

    def test_testbed_suite(self):
        suite = make_testbed_llmi_traces(days=7)
        assert [t.name for t in suite] == ["V3", "V4", "V5", "V6", "V7", "V8"]
        np.testing.assert_array_equal(suite[0].activities, suite[1].activities)

    def test_end_of_month_activity(self):
        tr = production_trace(5, days=62, seed=1)
        from repro.core.calendar import slots_of_hours

        h, dw, dm, m, doy = slots_of_hours(np.arange(tr.hours))
        eom = (dm >= 27) & (h >= 9) & (h <= 17)
        # End-of-month hours are mostly active regardless of weekday.
        assert tr.activities[eom].mean() > 0.1


class TestGoogleTraces:
    def test_always_active(self):
        tr = google_llmu_trace(hours=24 * 14, seed=1)
        assert tr.idle_fraction == 0.0

    def test_fleet_size_and_determinism(self):
        fleet = google_llmu_fleet(5, hours=48, seed=2)
        fleet2 = google_llmu_fleet(5, hours=48, seed=2)
        assert len(fleet) == 5
        for a, b in zip(fleet, fleet2):
            np.testing.assert_array_equal(a.activities, b.activities)

    def test_ar_coeff_validation(self):
        with pytest.raises(ValueError):
            google_llmu_trace(hours=10, ar_coeff=1.0)

    def test_diurnal_structure(self):
        """Afternoon load exceeds pre-dawn load on average."""
        tr = google_llmu_trace(hours=24 * 60, seed=3)
        A = tr.activities.reshape(60, 24)
        assert A[:, 14].mean() > A[:, 2].mean()


class TestQuantaNoise:
    def test_filter_drops_short_quanta(self):
        sample = QuantaSample(np.array([30.0, 0.001, 0.002, 60.0]))
        assert filter_activity(sample) == pytest.approx(90.0 / 3600.0)

    def test_raw_activity_counts_everything(self):
        sample = QuantaSample(np.array([30.0, 0.001]))
        assert sample.raw_activity == pytest.approx(30.001 / 3600.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            QuantaSample(np.array([-1.0]))
        with pytest.raises(ValueError):
            QuantaSample(np.array([3601.0]))

    def test_idle_hour_with_noise_reads_zero(self):
        """The paper's core requirement: noise does not mask idleness."""
        rng = np.random.default_rng(0)
        assert observed_activity(0.0, rng) == 0.0

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=1e-4, max_value=1.0))
    def test_roundtrip_preserves_activity(self, activity):
        # Activities below the noise quantum (~0.05 s of work per hour)
        # are indistinguishable from noise by design, so start above it.
        rng = np.random.default_rng(42)
        sample = synthesize_quanta(activity, rng)
        recovered = filter_activity(sample)
        assert recovered == pytest.approx(activity, abs=1e-6)

    def test_subnoise_work_reads_idle(self):
        """Work below the noise quantum is filtered — by design."""
        rng = np.random.default_rng(42)
        assert filter_activity(synthesize_quanta(1e-6, rng)) == 0.0

    def test_synthesize_rejects_bad_activity(self):
        with pytest.raises(ValueError):
            synthesize_quanta(1.5, np.random.default_rng(0))
