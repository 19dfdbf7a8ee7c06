"""Relocation-search bench: ``DrowsyController.relocate_all``, the
paper's "relocate all" evaluation mode (§VI-A.1), on a trained
scenario-sized fleet (8 hosts, about 24 VMs of mixed flavors, bound to
one fleet model as in a simulation).

Each round re-places the fleet once an hour for a simulated day, the
way ``maintenance-with-crashes`` drives it.  The placement and the
migration count must equal the per-candidate oracle's
(``tests/test_relocate_all.py::reference_relocate_all``).  No wall-clock
floor: the per-call time is recorded in ``extra_info`` for the
BENCH_PR.json trajectory, and speed claims go through the perf ledger.
"""

import time

from repro.consolidation import DrowsyController
from repro.core.binding import FleetBinding
from repro.core.params import DEFAULT_PARAMS
from tests.test_relocate_all import (
    TRAINED_HOURS,
    build_fleet,
    layout,
    reference_relocate_all,
)

HOURS = range(TRAINED_HOURS, TRAINED_HOURS + 24)
FLEET = {"seed": 10, "n_hosts": 8, "max_vms": 6}


def _relocate_day(dc, relocate) -> list[int]:
    controller = DrowsyController(dc)
    return [relocate(controller, t, t * 3600.0) for t in HOURS]


def test_relocate_all_day(benchmark):
    fleets = []

    def setup():
        dc = build_fleet(**FLEET)
        FleetBinding.try_bind(dc, DEFAULT_PARAMS)
        fleets.append(dc)
        return (dc, DrowsyController.relocate_all), {}

    t0 = time.perf_counter()
    moved = benchmark.pedantic(_relocate_day, setup=setup, rounds=5,
                               iterations=1, warmup_rounds=0)
    benchmark.extra_info["relocate_all_ms"] = (
        benchmark.stats.stats.min / len(HOURS) * 1e3)

    ref_dc = build_fleet(**FLEET)
    expected = _relocate_day(ref_dc, reference_relocate_all)
    assert moved == expected and sum(moved) > 0
    assert layout(fleets[-1]) == layout(ref_dc)
    benchmark.extra_info["vms"] = len(ref_dc.vms)
    benchmark.extra_info["migrations"] = sum(moved)
    benchmark.extra_info["bench_wall_s"] = time.perf_counter() - t0
