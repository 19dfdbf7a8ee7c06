"""Request generation: the hour's traffic drawn in one pass.

:meth:`RequestProfile.hour_block` draws each active VM's hour with two
calls (a Poisson count, one ``random`` block for its arrivals and
leading request) and merges the hour once.  These tests hold it, and
the event engine's hour of traffic, to the per-VM generator
(:func:`tests.oracles.reference_hourly_arrivals`) on a 40-VM fleet:
byte-equal arrival times, owners and service times, and the same
generator states afterwards, so later hours stay aligned.  Also here:
the construction-time checks of :class:`RequestProfile` and
:class:`ArrivalShape`.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.consolidation.drowsy import DrowsyController
from repro.core.calendar import slot_of_hour, time_of_hour
from repro.experiments.common import build_fleet
from repro.network import ArrivalShape, PerVMRequestStreams, RequestProfile
from repro.scenarios import ScenarioCompiler, get_scenario, list_scenarios
from repro.sim.event_driven import EventConfig, EventDrivenSimulation
from tests.oracles import assert_bits_equal, reference_hourly_arrivals

N_VMS = 40
SEED = 5
#: A Saturday of the simulation calendar (day 5 of week 0).
WEEKEND_HOUR = 130
FLASH = ArrivalShape(kind="flash", burst_period_h=47, burst_len_h=2,
                     burst_factor=8.0)

#: (profile, hour) cases; every one is run on both stream layouts.
CASES = {
    "unshaped": (RequestProfile(peak_rate_per_s=0.05), 9),
    "constant": (RequestProfile(peak_rate_per_s=0.05,
                                shape=ArrivalShape(scale=1.5)), 9),
    "flash-burst": (RequestProfile(peak_rate_per_s=0.05, shape=FLASH), 48),
    "flash-calm": (RequestProfile(peak_rate_per_s=0.05, shape=FLASH), 50),
    "weekly-weekend": (RequestProfile(
        peak_rate_per_s=0.05,
        shape=ArrivalShape(kind="weekly", weekend_factor=0.3)), WEEKEND_HOUR),
    "replay-zero": (RequestProfile(
        peak_rate_per_s=0.05,
        shape=ArrivalShape(kind="replay", factors=(0.0, 2.0))), 10),
    "replay-nonzero": (RequestProfile(
        peak_rate_per_s=0.05,
        shape=ArrivalShape(kind="replay", factors=(0.0, 2.0))), 11),
    "no-lead": (RequestProfile(peak_rate_per_s=0.05,
                               leading_request=False), 9),
    "zero-rate": (RequestProfile(peak_rate_per_s=0.0), 9),
    "zero-rate-no-lead": (RequestProfile(peak_rate_per_s=0.0,
                                         leading_request=False), 9),
}


def _activities(seed=SEED, n=N_VMS):
    """A fleet hour: about a third of the VMs idle, the rest in (0, 1]."""
    rng = np.random.default_rng(seed)
    acts = rng.uniform(0.0, 1.0, n)
    acts[rng.random(n) < 0.35] = 0.0
    acts[0] = 1.0
    return acts


def reference_hour_block(profile, rngs, now, activities, hour):
    """The hour merged the way the engine merged it VM by VM: each VM's
    sorted arrivals from :func:`reference_hourly_arrivals` concatenated
    in fleet order and stably sorted; service times from each VM's own
    generator after its arrivals, or from the shared one after the hour.
    """
    shared = isinstance(rngs, np.random.Generator)
    arrays, owners, services = [], [], []
    for i, activity in enumerate(activities):
        if activity > 0.0:
            rng = rngs if shared else rngs[i]
            arr = reference_hourly_arrivals(profile, rng, now, activity,
                                            hour_index=hour)
            if arr.size:
                arrays.append(arr)
                owners.append(i)
                if not shared:
                    services.append(
                        profile.sample_service_times(rng, arr.size))
    if not arrays:
        return np.empty(0), np.empty(0, dtype=np.intp), np.empty(0)
    times = np.concatenate(arrays)
    owner = np.repeat(owners, [a.size for a in arrays])
    order = np.argsort(times, kind="stable")
    if shared:
        svc = profile.sample_service_times(rngs, times.size)
    else:
        svc = np.concatenate(services)[order]
    return times[order], owner[order], svc


def _generators(layout, n=N_VMS):
    if layout == "shared":
        return np.random.default_rng(SEED), np.random.default_rng(SEED)
    streams = [PerVMRequestStreams(SEED) for _ in range(2)]
    return tuple([s.for_vm(f"vm{i}") for i in range(n)] for s in streams)


def _state(rng):
    """A generator's state, comparable with ``==`` (Philox keeps its
    counter and key as arrays)."""
    def plain(value):
        if isinstance(value, dict):
            return {k: plain(v) for k, v in value.items()}
        return value.tolist() if isinstance(value, np.ndarray) else value
    return plain(rng.bit_generator.state)


def _states(rngs):
    if isinstance(rngs, np.random.Generator):
        return [_state(rngs)]
    return [_state(g) for g in rngs]


def _assert_blocks_equal(got, want):
    times, owners, services = got
    ref_times, ref_owners, ref_services = want
    assert_bits_equal(times, ref_times, "times")
    assert owners.tolist() == ref_owners.tolist()
    assert_bits_equal(services, ref_services, "service times")


@pytest.mark.parametrize("layout", ["shared", "per-vm"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_hour_block_matches_per_vm_generator(case, layout):
    profile, hour = CASES[case]
    rngs, ref_rngs = _generators(layout)
    now = time_of_hour(hour)
    acts = _activities()
    got = profile.hour_block(rngs, now, acts, hour_index=hour)
    want = reference_hour_block(profile, ref_rngs, now, acts, hour)
    _assert_blocks_equal(got, want)
    assert _states(rngs) == _states(ref_rngs)
    if case.startswith(("replay-zero", "zero-rate-no")):
        assert got[0].size == 0
    elif case != "zero-rate":
        assert got[0].size > 10 * N_VMS
    # The next hour starts from the same generator states.
    again = profile.hour_block(rngs, now + 3600.0, acts, hour_index=hour + 1)
    _assert_blocks_equal(again, reference_hour_block(
        profile, ref_rngs, now + 3600.0, acts, hour + 1))


def test_cases_cover_the_shape_hours():
    assert slot_of_hour(WEEKEND_HOUR).day_of_week >= 5
    assert FLASH.rate_factor(48) == 8.0 and FLASH.rate_factor(50) == 1.0


@pytest.mark.parametrize("layout", ["shared", "per-vm"])
def test_hour_with_no_active_vm_draws_nothing(layout):
    profile = RequestProfile(peak_rate_per_s=0.05)
    rngs, _ = _generators(layout)
    before = _states(rngs)
    times, owners, services = profile.hour_block(
        rngs, 0.0, np.zeros(N_VMS), hour_index=0)
    assert times.size == owners.size == services.size == 0
    assert _states(rngs) == before


def test_hourly_arrivals_is_the_one_vm_block():
    profile, hour = CASES["weekly-weekend"]
    rng, ref = np.random.default_rng(1), np.random.default_rng(1)
    for activity in (0.0, 0.3, 1.0):
        assert_bits_equal(
            profile.hourly_arrivals(rng, 7.0, activity, hour_index=hour),
            reference_hourly_arrivals(profile, ref, 7.0, activity,
                                      hour_index=hour))
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("layout", ["shared", "per-vm"])
@pytest.mark.parametrize("case", ["unshaped", "flash-burst", "replay-zero",
                                  "no-lead"])
def test_engine_hour_matches_per_vm_generator(case, layout):
    """The engine's hour of traffic, as it enters the kernel's arrival
    stream, against the per-VM generator over the fleet in host → VM
    order, skipping idle and non-interactive VMs."""
    profile, hour = CASES[case]
    dc = build_fleet(n_hosts=10, n_vms=N_VMS, llmi_fraction=0.5, hours=24,
                     seed=SEED)
    engine = EventDrivenSimulation(
        dc, DrowsyController(dc),
        config=EventConfig(seed=SEED, request_profile=profile,
                           request_streams=layout))
    vms = [vm for host in dc.hosts for vm in host.vms]
    for vm, activity in zip(vms, _activities()):
        vm.current_activity = activity
    for vm in vms[1::7]:
        vm.interactive = False
    now = time_of_hour(hour)
    engine._current_hour = hour
    engine._generate_hour_requests(now, profile)

    acts = [vm.current_activity if vm.interactive else 0.0 for vm in vms]
    if layout == "shared":
        ref_rngs = np.random.default_rng(SEED)
    else:
        streams = PerVMRequestStreams(SEED)
        ref_rngs = [streams.for_vm(vm.name) for vm in vms]
    ref_times, ref_owners, ref_services = reference_hour_block(
        profile, ref_rngs, now, acts, hour)
    times, _, keys, services, _ = engine.sim._stream
    assert_bits_equal(times, ref_times, "times")
    assert [keys[i] for i in range(len(keys))] == [
        vms[i].name for i in ref_owners]
    assert_bits_equal(services, ref_services, "service times")
    if len(keys):  # an hour without traffic schedules no stream
        assert_bits_equal(keys.completions,
                          [t + s for t, s in zip(ref_times.tolist(),
                                                 ref_services.tolist())],
                          "completions")
    if layout == "shared":
        assert _states(engine.rng) == _states(ref_rngs)
    else:
        mine = engine._request_streams
        assert _states([mine.for_vm(vm.name) for vm in vms]) == _states(
            ref_rngs)


# ----------------------------------------------------------------------
# construction-time checks
# ----------------------------------------------------------------------

@pytest.mark.parametrize("field,value", [
    ("peak_rate_per_s", -0.01), ("peak_rate_per_s", float("nan")),
    ("peak_rate_per_s", float("inf")),
    ("service_median_s", -0.06), ("service_median_s", 0.0),
    ("service_median_s", float("nan")),
    ("service_sigma", -0.1), ("service_sigma", float("inf")),
])
def test_request_profile_rejects(field, value):
    with pytest.raises(ValueError, match=field):
        RequestProfile(**{field: value})


def test_request_profile_edges_accepted():
    RequestProfile(peak_rate_per_s=0.0, service_sigma=0.0)


def test_scenario_with_a_negative_rate_does_not_compile():
    spec = replace(get_scenario("steady-llmu"), request_peak_rate_per_s=-1.0)
    with pytest.raises(ValueError, match="peak_rate_per_s"):
        ScenarioCompiler(spec).compile(simulator="event", seed=0)


@pytest.mark.parametrize("kw", [
    dict(scale=float("nan")), dict(scale=float("inf")),
    dict(kind="diurnal", phase_h=float("inf")),
    dict(kind="flash", burst_factor=float("nan")),
    dict(kind="flash", burst_factor=-2.0),
    dict(kind="weekly", weekend_factor=float("nan")),
    dict(kind="weekly", weekend_factor=-0.5),
    dict(kind="replay", factors=(1.0, float("nan"))),
    dict(kind="replay", factors=(1.0, float("inf"))),
])
def test_arrival_shape_rejects(kw):
    field = next(k for k in kw if k != "kind")
    with pytest.raises(ValueError, match=field):
        ArrivalShape(**kw)


def test_arrival_shape_edges_accepted():
    ArrivalShape(kind="flash", burst_factor=0.0)
    ArrivalShape(kind="weekly", weekend_factor=0.0)
    ArrivalShape(kind="replay", factors=(0.0, 1.0))


@pytest.mark.parametrize("name", [s.name for s in list_scenarios()])
def test_builtin_scenarios_compile(name):
    run = ScenarioCompiler(get_scenario(name).scaled(0.25)).compile(
        simulator="event", seed=0)
    assert run.sim.config.request_profile.shape == get_scenario(name).arrivals
