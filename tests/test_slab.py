"""Touched-day slabs (``repro.core.slab``): storage semantics, parity
with the dense-table fleet model of ``tests/oracles.py``, and exact
memory footprints."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import Simulation
from repro.cluster import TESTBED_VM, VM
from repro.core.binding import FleetBinding, FleetVMView
from repro.core.fleet import FleetIdlenessModel
from repro.core.model import IdlenessModel
from repro.core.params import DEFAULT_PARAMS
from repro.core.slab import DaySlab
from repro.experiments.common import build_fleet
from repro.traces.synthetic import always_idle_trace

from tests.oracles import DenseFleetIdlenessModel, assert_bits_equal

#: Bytes of one stored day: n VMs x 24 hours of float64.
DAY_BYTES = 24 * 8


def assert_same_state(fleet, dense):
    for name in ("sid", "siw", "sim", "siy", "weights", "_activity_sum"):
        assert_bits_equal(getattr(fleet, name), getattr(dense, name))
    np.testing.assert_array_equal(fleet._active_hours, dense._active_hours)
    np.testing.assert_array_equal(fleet.row_hours, dense.row_hours)


class TestDaySlab:
    def test_unwritten_days_read_zero_and_hold_nothing(self):
        slab = DaySlab(365, (3,))
        assert slab.read(100, 5) == 0.0
        assert slab.nbytes == 0
        assert_bits_equal(slab.dense(), np.zeros((3, 365, 24)))

    def test_growth_keeps_earlier_rows(self):
        slab = DaySlab(31, (2,))
        ref = np.zeros((2, 31, 24))
        for k, day in enumerate([4, 30, 0, 7, 12]):
            slab.write(day, k, np.array([k + 0.5, -k - 0.5]))
            ref[:, day, k] = [k + 0.5, -k - 0.5]
        assert_bits_equal(slab.dense(), ref)
        # Internal layout (day-major), not a result: 1 -> 2 -> 4 -> 8 rows.
        assert slab.data.shape == (8, 2, 24)

    def test_growth_copies_written_rows_and_leaves_spare_rows_zero(self):
        slab = DaySlab(365, (3,))
        days = [100, 5, 364, 0, 42]
        for k, day in enumerate(days):
            slab.write(day, 23 - k, np.array([k - 0.5, -0.0, k + 0.25]))
            kept = slab.data[:k + 1]
            for j in range(k + 1):  # every earlier row survives each growth
                assert_bits_equal(kept[j, :, 23 - j],
                                  np.array([j - 0.5, -0.0, j + 0.25]))
                assert np.count_nonzero(kept[j]) == 2
        assert slab.data.shape == (8, 3, 24)
        spare = slab.data[len(days):]
        assert_bits_equal(spare, np.zeros_like(spare))  # +0.0, never written
        assert_bits_equal(slab.written_rows(),
                          slab.dense()[:, days, :])

    def test_capacity_capped_at_days(self):
        slab = DaySlab(5)
        for day in range(5):
            slab.write(day, 0, 1.0)
        assert slab.data.shape == (5, 24)

    def test_written_negative_zero_survives(self):
        slab = DaySlab(365)
        slab.write(9, 3, -0.0)
        assert np.signbit(slab.read(9, 3))
        assert np.signbit(slab.dense()[9, 3])
        assert np.signbit(DaySlab.from_dense(slab.dense()).read(9, 3))

    def test_from_dense_keeps_only_touched_days(self):
        table = np.zeros((2, 365, 24))
        table[1, 200, 4] = 0.25
        table[0, 3, 0] = -0.0
        slab = DaySlab.from_dense(table)
        assert sorted(slab.index) == [3, 200]
        assert_bits_equal(slab.dense(), table)

    def test_row_read_is_one_vm(self):
        slab = DaySlab(365, (3,))
        slab.write(40, 2, np.array([1.0, 2.0, 3.0]))
        row = slab.dense(1)
        assert row.shape == (365, 24)
        assert row[40, 2] == 2.0 and np.count_nonzero(row) == 1

    def test_import_row_copies_written_days(self):
        src = IdlenessModel()
        for h in range(50):
            src.observe(h, 0.0 if h % 3 else 0.4)
        dst = DaySlab(365, (4,))
        dst.import_row(2, src._siy)
        assert_bits_equal(dst.dense(2), src.siy)
        assert sorted(dst.index) == [0, 1, 2]


# ----------------------------------------------------------------------
# parity with the dense-table fleet model
# ----------------------------------------------------------------------
PARAMS = [
    DEFAULT_PARAMS,
    DEFAULT_PARAMS.replace(use_monthly_scale=False),
    DEFAULT_PARAMS.replace(use_yearly_scale=False),
    DEFAULT_PARAMS.replace(use_monthly_scale=False, use_yearly_scale=False),
]
#: Start hours: epoch, mid-day, the last day of the year (the run
#: crosses day 364 -> 0), a month boundary, and anywhere in 3 years.
START_HOURS = (st.sampled_from([0, 13, 364 * 24, 364 * 24 + 19, 31 * 24 - 2])
               | st.integers(0, 3 * 365 * 24))
LEVELS = np.array([0.0, 0.0, 0.2, 0.7, 1.0])


@st.composite
def schedules(draw):
    """(n, params, start hour, steps, rng seed).  A step is a batched
    ``observe`` hour, a ``run_trace_matrix`` block, or one hour observed
    row by row through ``observe_one`` (some rows only)."""
    n = draw(st.integers(1, 3))
    steps = draw(st.lists(
        st.one_of(st.just(("batch", 1)),
                  st.tuples(st.just("trace"), st.integers(1, 30)),
                  st.tuples(st.just("one"), st.integers(1, 2 ** n - 1))),
        min_size=1, max_size=25))
    return (n, draw(st.sampled_from(PARAMS)), draw(START_HOURS), steps,
            draw(st.integers(0, 2 ** 16)))


def drive(models, n, start, steps, seed):
    """Feed every model the same schedule; returns each model's outputs."""
    rng = np.random.default_rng(seed)
    outputs = [[] for _ in models]
    t = start
    for kind, arg in steps:
        T = arg if kind == "trace" else 1
        A = LEVELS[rng.integers(0, len(LEVELS), size=(n, T))]
        for model, out in zip(models, outputs):
            if kind == "batch":
                model.observe(t, A[:, 0])
            elif kind == "trace":
                out.append(model.run_trace_matrix(A, start_hour=t)[0])
            else:
                for i in range(n):
                    if arg >> i & 1:
                        out.append(model.observe_one(i, t, float(A[i, 0])))
            out.append(model.raw_ip(t + T))
        t += T
    return outputs


class TestDenseParity:
    @settings(max_examples=40, deadline=None)
    @given(schedules())
    def test_slab_matches_dense_tables(self, schedule):
        n, params, start, steps, seed = schedule
        fleet = FleetIdlenessModel(n, params)
        dense = DenseFleetIdlenessModel(n, params)
        got, want = drive([fleet, dense], n, start, steps, seed)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            if isinstance(g, np.ndarray) and g.dtype == np.float64:
                assert_bits_equal(g, w)
            else:
                np.testing.assert_array_equal(g, w)
        assert_same_state(fleet, dense)
        assert dense._sim.nbytes == dense._siy.nbytes == 0
        if not params.use_monthly_scale:
            assert fleet._sim.nbytes == 0
        if not params.use_yearly_scale:
            assert fleet._siy.nbytes == 0

    def test_horizon_over_a_year_reuses_rows(self):
        A = LEVELS[np.random.default_rng(5).integers(0, 5, (2, 367 * 24))]
        fleet = FleetIdlenessModel(2)
        dense = DenseFleetIdlenessModel(2)
        p1, _ = fleet.run_trace_matrix(A, start_hour=300 * 24 + 7)
        p2, _ = dense.run_trace_matrix(A, start_hour=300 * 24 + 7)
        np.testing.assert_array_equal(p1, p2)
        assert_same_state(fleet, dense)
        assert len(fleet._siy.index) == 365
        assert fleet._siy.data.shape == (365, 2, 24)  # internal layout
        assert len(fleet._sim.index) == 31

    def test_raw_ip_column_matches(self):
        from repro.core.calendar import slot_of_hour

        A = LEVELS[np.random.default_rng(2).integers(0, 5, (3, 100))]
        fleet, dense = FleetIdlenessModel(3), DenseFleetIdlenessModel(3)
        fleet.run_trace_matrix(A, start_hour=364 * 24)
        dense.run_trace_matrix(A, start_hour=364 * 24)
        for hour in (0, 5, 364 * 24 + 5, 365 * 24 + 30, 500 * 24):
            slot = slot_of_hour(hour)
            assert_bits_equal(fleet.raw_ip_column(slot),
                              dense.raw_ip_column(slot))


# ----------------------------------------------------------------------
# deterministic memory footprints (byte counts, not RSS)
# ----------------------------------------------------------------------
class TestMemory:
    def test_fresh_vm_holds_no_month_or_year_array(self):
        vm = VM("v", always_idle_trace(48), TESTBED_VM)
        for slab in (vm.model._sim, vm.model._siy):
            assert slab.data is None and slab.nbytes == 0
        assert vm.model.siy.shape == (365, 24)  # reads stay dense
        with pytest.raises(ValueError, match="read-only"):
            vm.model.siy[0, 0] = 1.0  # a copy: the write would be lost

    def test_built_fleet_allocates_no_calendar_tables(self, monkeypatch):
        """Building, binding and running a fleet never constructs a
        scalar model: the binding's fresh rows stand for them."""
        built = []
        init = IdlenessModel.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(IdlenessModel, "__init__", counting_init)
        dc = build_fleet(4, 16, 0.5, 168, seed=3)
        sim = Simulation(dc, "drowsy", "hourly")
        sim.run(1)
        assert type(dc.vms[0].model) is FleetVMView
        assert built == []

    def test_week_run_stores_at_most_eight_days_per_scale(self):
        dc = build_fleet(4, 16, 0.5, 168, seed=3)
        Simulation(dc, "drowsy", "hourly").run(168)
        fleet = dc._fleet_binding.fleet
        n = fleet.n
        assert sorted(fleet._siy.index) == list(range(7))
        assert sorted(fleet._sim.index) == list(range(7))
        assert fleet._sim.nbytes == 8 * n * DAY_BYTES
        assert fleet._siy.nbytes == 8 * n * DAY_BYTES

    def test_view_reads_one_row(self):
        dc = build_fleet(2, 6, 0.5, 48, seed=1)
        binding = FleetBinding.try_bind(dc, DEFAULT_PARAMS)
        binding.ensure_horizon(0, 30)
        for t in range(30):
            binding.observe(t, binding.load_hour(t))
        fleet = binding.fleet
        for i, vm in enumerate(binding.vms):
            assert_bits_equal(vm.model.siy, fleet.siy[i])
            assert_bits_equal(vm.model.sim, fleet.sim[i])

    def test_rebinding_imports_written_days_only(self):
        dc = build_fleet(2, 6, 0.5, 48, seed=1)
        first = FleetBinding.try_bind(dc, DEFAULT_PARAMS)
        first.ensure_horizon(0, 30)
        for t in range(30):
            first.observe(t, first.load_hour(t))
        second = FleetBinding(dc.vms, DEFAULT_PARAMS)
        assert_same_state(second.fleet, first.fleet)
        assert second.fleet._siy.nbytes == 2 * 6 * DAY_BYTES  # 2 days


def test_scalar_model_reads_like_dense_after_a_year():
    m = IdlenessModel()
    for h in range(0, 400 * 24, 7):
        m.observe(h, 0.0 if h % 5 else 0.3)
    assert len(m._siy.index) == 365 and m._siy.data.shape == (365, 24)
    fleet = FleetIdlenessModel(1)
    fleet._siy.import_row(0, m._siy)
    assert_bits_equal(fleet.siy[0], m.siy)


@pytest.mark.parametrize("hour", [0, 23, 364 * 24 + 23, 365 * 24])
def test_unwritten_slot_predicts_undetermined(hour):
    fleet = FleetIdlenessModel(2)
    assert np.all(fleet.raw_ip(hour) == 0.0)


@pytest.mark.parametrize("days, rows", [
    ([3, 3], np.zeros((2, 24))),     # a day twice
    ([400], np.zeros((1, 24))),      # past the scale's last day
    ([1, 2], np.zeros((3, 24))),     # row count disagrees
])
def test_from_rows_rejects_malformed_archives(days, rows):
    with pytest.raises(ValueError, match="malformed day slab"):
        DaySlab.from_rows(365, days, rows)
