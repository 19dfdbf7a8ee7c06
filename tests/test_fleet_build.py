"""Fleet construction parity: the behaviour freeze for ``build_fleet``.

``build_fleet`` and the trace generators build every trace as a row of
one activity matrix; :mod:`tests.oracles` keeps the per-VM generators
and the per-trace build.  Names, placement, kinds and every activity
bit must match.
"""

import pickle

import numpy as np
import pytest

from repro.core.binding import FleetBinding
from repro.experiments.common import build_fleet
from repro.traces import ActivityTrace, google_llmu_fleet, google_llmu_trace, production_trace
from tests.oracles import (
    assert_bits_equal,
    reference_build_fleet,
    reference_google_llmu_fleet,
    reference_google_llmu_trace,
    reference_production_trace,
)


def assert_traces_equal(got: ActivityTrace, want: ActivityTrace):
    assert got.name == want.name
    assert got.kind is want.kind
    assert got.activities.dtype == want.activities.dtype
    assert got.activities.shape == want.activities.shape
    assert got.activities.tobytes() == want.activities.tobytes()


@pytest.mark.parametrize("seed", (7, 11))
@pytest.mark.parametrize("hours", (24, 30, 168))
@pytest.mark.parametrize("llmi_fraction", (0.0, 0.5, 1.0))
@pytest.mark.parametrize("n_hosts,n_vms", ((7, 25), (64, 256)))
def test_build_fleet_matches_per_vm_build(n_hosts, n_vms, llmi_fraction,
                                          hours, seed):
    dc = build_fleet(n_hosts, n_vms, llmi_fraction, hours, seed=seed)
    ref = reference_build_fleet(n_hosts, n_vms, llmi_fraction, hours,
                                seed=seed)
    assert [h.name for h in dc.hosts] == [h.name for h in ref.hosts]
    assert [vm.name for vm in dc.vms] == [vm.name for vm in ref.vms]
    for vm, want in zip(dc.vms, ref.vms):
        assert dc.host_of(vm).name == ref.host_of(want).name
        assert_traces_equal(vm.trace, want.trace)


@pytest.mark.parametrize("index", range(1, 6))
@pytest.mark.parametrize("days,seed", ((1, 0), (7, None), (31, 12345)))
def test_production_trace_matches_oracle(index, days, seed):
    assert_traces_equal(production_trace(index, days=days, seed=seed),
                        reference_production_trace(index, days=days,
                                                   seed=seed))


@pytest.mark.parametrize("kwargs", (
    dict(hours=24, seed=0),
    dict(hours=30, seed=3, base_level=0.4, diurnal_amplitude=0.25),
    dict(hours=168, seed=2**31 - 1, ar_coeff=0.0, noise_std=0.2,
         spike_prob=0.5, floor=0.1),
))
def test_google_llmu_trace_matches_oracle(kwargs):
    assert_traces_equal(google_llmu_trace(**kwargs),
                        reference_google_llmu_trace(**kwargs))


def test_google_llmu_fleet_matches_oracle():
    got = google_llmu_fleet(9, 50, seed=4)
    want = reference_google_llmu_fleet(9, 50, seed=4)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert_traces_equal(g, w)


def test_bad_production_index_rejected():
    with pytest.raises(ValueError, match="trace index"):
        production_trace(6)


def test_bad_ar_coeff_rejected():
    with pytest.raises(ValueError, match="ar_coeff"):
        google_llmu_trace(24, ar_coeff=1.0)


def test_zero_hosts_rejected():
    with pytest.raises(ValueError, match="n_hosts"):
        build_fleet(0, 4, 0.5, 24)


def test_fleet_traces_are_read_only_rows():
    dc = build_fleet(4, 12, 0.5, 24, seed=3)
    base = dc.vms[0].trace.activities.base
    for vm in dc.vms:
        arr = vm.trace.activities
        assert not arr.flags.writeable
        assert arr.base is base
    with pytest.raises(ValueError):
        dc.vms[0].trace.activities[0] = 0.5


@pytest.mark.parametrize("hours,start,n_hours,in_place", (
    (24, 0, 24, True),
    (24, 5, 12, True),
    (24, 20, 10, False),    # past the traces' end: periodic extension
    (30, 0, 30, False),     # LLMU traces shorter than the LLMI rows
))
def test_fleet_binding_reads_the_matrix_in_place(hours, start, n_hours,
                                                 in_place):
    dc = build_fleet(4, 12, 0.5, hours, seed=3)
    binding = FleetBinding.try_bind(dc, dc.params)
    binding.ensure_horizon(start, n_hours)
    shared = np.shares_memory(binding._matrix, dc.vms[0].trace.activities)
    assert shared is in_place
    for t in range(start, start + n_hours):
        assert_bits_equal(binding.activities(t),
                          [vm.activity_at(t) for vm in dc.vms])


def test_unpickled_fleet_binds_by_stacking():
    """Pickled rows come back as separate arrays (a checkpoint's fleet):
    the binding stacks them and reads the same activities."""
    dc = build_fleet(4, 12, 0.5, 24, seed=3)
    restored = pickle.loads(pickle.dumps(dc, protocol=pickle.HIGHEST_PROTOCOL))
    binding = FleetBinding.try_bind(restored, restored.params)
    binding.ensure_horizon(0, 24)
    assert not np.shares_memory(binding._matrix,
                                restored.vms[0].trace.activities)
    assert_bits_equal(binding._matrix,
                      np.stack([vm.trace.activities for vm in dc.vms]))
