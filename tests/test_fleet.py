"""Tests for the vectorized fleet model, incl. scalar equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.calendar import slot_of_hour
from repro.core.fleet import FleetIdlenessModel
from repro.core.params import DEFAULT_PARAMS
from tests.oracles import ReferenceIdlenessModel, assert_bits_equal


class TestBasics:
    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            FleetIdlenessModel(0)

    def test_rejects_bad_shapes(self):
        fleet = FleetIdlenessModel(3)
        with pytest.raises(ValueError):
            fleet.observe(0, np.zeros(2))

    def test_rejects_out_of_range(self):
        fleet = FleetIdlenessModel(2)
        with pytest.raises(ValueError):
            fleet.observe(0, np.array([0.5, 1.5]))

    def test_initial_probability(self):
        fleet = FleetIdlenessModel(4)
        np.testing.assert_allclose(fleet.idleness_probability(0), 0.5)

    def test_predictions_start_active(self):
        fleet = FleetIdlenessModel(4)
        assert not fleet.predict_idle(0).any()


activity_matrix = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(
        st.lists(st.sampled_from([0.0, 0.25, 0.7, 1.0]), min_size=30, max_size=60),
        min_size=n, max_size=n,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)


#: Parameter sets the kernel-agreement cases run under: the paper's
#: defaults, learning off, descent on every row, and a masked scale.
KERNEL_PARAMS = {
    "default": DEFAULT_PARAMS,
    "no-learning": DEFAULT_PARAMS.replace(learn_weights=False),
    "descend-always": DEFAULT_PARAMS.replace(weight_update_on_error_only=False),
    "no-monthly": DEFAULT_PARAMS.replace(use_monthly_scale=False),
}

FLEET_STATE = ("sid", "siw", "sim", "siy", "weights", "_activity_sum",
               "_active_hours", "row_hours")


def continuous_activities(seed, n, T, idle_fraction):
    """An ``(n, T)`` matrix: idle hours (0.0) and uniform activities."""
    rng = np.random.default_rng(seed)
    return np.where(rng.random((n, T)) < idle_fraction, 0.0,
                    rng.random((n, T)))


class TestScalarEquivalence:
    """Every way of running the hourly update must agree bit for bit
    with the scalar reference of ``tests/oracles.py``."""

    @settings(max_examples=15, deadline=None)
    @given(activity_matrix)
    def test_exact_equivalence(self, rows):
        A = np.array(rows)
        n, T = A.shape
        fleet = FleetIdlenessModel(n)
        scalars = [ReferenceIdlenessModel() for _ in range(n)]
        fleet.run_trace_matrix(A)
        for i, m in enumerate(scalars):
            for t in range(T):
                m.observe(t, float(A[i, t]))
            assert_bits_equal(fleet.sid[i], m.sid, "sid")
            assert_bits_equal(fleet.siw[i], m.siw, "siw")
            assert_bits_equal(fleet.weights[i], m.weights, "weights")

    def test_predictions_match_scalar(self):
        rng = np.random.default_rng(3)
        A = np.where(rng.random((3, 120)) < 0.6, 0.0, 0.4)
        fleet = FleetIdlenessModel(3)
        preds, actual = fleet.run_trace_matrix(A)
        for i in range(3):
            m = ReferenceIdlenessModel()
            expected = []
            for t in range(120):
                p, _ = m.predict_and_observe(t, float(A[i, t]))
                expected.append(p)
            np.testing.assert_array_equal(preds[i], expected)

    @pytest.mark.parametrize("params", KERNEL_PARAMS.values(),
                             ids=KERNEL_PARAMS.keys())
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5),
           T=st.integers(24, 96), start=st.integers(0, 2 * 365 * 24),
           idle_fraction=st.floats(0.1, 0.9))
    def test_kernels_agree(self, params, seed, n, T, start, idle_fraction):
        """``run_trace_matrix``, hour-by-hour ``observe``, a row-by-row
        ``observe_one`` loop and the scalar reference end in the same
        state and make the same predictions, on continuous activities."""
        A = continuous_activities(seed, n, T, idle_fraction)
        batch = FleetIdlenessModel(n, params)
        preds, _ = batch.run_trace_matrix(A, start_hour=start)
        hourly = FleetIdlenessModel(n, params)
        rowwise = FleetIdlenessModel(n, params)
        refs = [ReferenceIdlenessModel(params) for _ in range(n)]
        expected = np.empty((n, T), dtype=bool)
        for t in range(T):
            hourly.observe(start + t, A[:, t])
            for i in range(n):
                rowwise.observe_one(i, start + t, float(A[i, t]))
                expected[i, t], _ = refs[i].predict_and_observe(
                    start + t, float(A[i, t]))
        np.testing.assert_array_equal(preds, expected)
        for other in (hourly, rowwise):
            for name in FLEET_STATE:
                assert_bits_equal(getattr(other, name), getattr(batch, name), name)
        for i, ref in enumerate(refs):
            for name in ("sid", "siw", "sim", "siy", "weights"):
                assert_bits_equal(getattr(batch, name)[i], getattr(ref, name), name)
            assert_bits_equal(batch._activity_sum[i], ref._activity_sum,
                              "_activity_sum")
            assert batch._active_hours[i] == ref._active_hours
            assert batch.row_hours[i] == ref.hours_observed

        # One raw-IP expression: every query agrees with the scalar w @ si.
        for h in range(start + T, start + T + 48):
            slot = slot_of_hour(h)
            scalar = np.array([ref.raw_ip(slot) for ref in refs])
            assert_bits_equal(batch.raw_ip(h), scalar, "raw_ip")
            assert_bits_equal(batch.raw_ip_column(slot), scalar, "raw_ip_column")
            np.testing.assert_array_equal(
                batch.predict_idle(h), [ref.predict_idle(slot) for ref in refs])

    def test_mean_active_activity_matches(self):
        A = np.array([[0.5, 0.0, 0.3, 0.0], [0.0, 0.0, 0.0, 0.0]])
        fleet = FleetIdlenessModel(2)
        fleet.run_trace_matrix(A)
        assert fleet.mean_active_activity[0] == pytest.approx(0.4)
        # Never-active VM falls back to default_activity.
        assert fleet.mean_active_activity[1] == pytest.approx(
            DEFAULT_PARAMS.default_activity)


class TestRunTraceMatrix:
    def test_output_shapes(self):
        fleet = FleetIdlenessModel(2)
        A = np.zeros((2, 48))
        preds, actual = fleet.run_trace_matrix(A)
        assert preds.shape == (2, 48)
        assert actual.shape == (2, 48)
        assert actual.all()

    def test_shape_validation(self):
        fleet = FleetIdlenessModel(2)
        with pytest.raises(ValueError):
            fleet.run_trace_matrix(np.zeros((3, 10)))

    def test_start_hour_offset(self):
        """Starting mid-calendar indexes different slots."""
        A = np.tile(np.array([[0.0] * 3 + [0.5] * 21]), (1, 10))
        f0 = FleetIdlenessModel(1)
        f0.run_trace_matrix(A)
        f1 = FleetIdlenessModel(1)
        f1.run_trace_matrix(A, start_hour=12)
        assert not np.allclose(f0.sid[0], f1.sid[0])


class TestFleetScaleAblation:
    def test_masked_scales_zero(self):
        params = DEFAULT_PARAMS.replace(use_yearly_scale=False)
        fleet = FleetIdlenessModel(2, params)
        fleet.observe(0, np.array([0.0, 0.5]))
        assert np.all(fleet.siy == 0)
        assert np.all(fleet.weights[:, 3] == 0)
