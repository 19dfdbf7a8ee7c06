"""Golden ``RunResult`` digests: the behaviour freeze for refactors.

One cell per (built-in scenario × controller × backend × seed) at
scale 0.25 over 24 h, plus the fleet-scale cells of ``FLEET_CELLS``
(``build_fleet`` shapes far above the grid's 16 VMs a cell).  Each cell stores one blake2b digest per
``RunResult`` field except ``telemetry``, hashed with the same ``repr``
rule as ``perfbench/workloads.py::digest`` (floats to their last bit,
dicts in fleet order), so a digest match means a field-by-field equal
result — ``events_processed`` included.

``tests/test_golden.py`` replays the grid against ``digests.json``;
``python -m tests.golden --regen`` rewrites the file and reports which
fields moved in which cell.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

DIGESTS = Path(__file__).with_name("digests.json")

CONTROLLERS = ("drowsy", "neat")
BACKENDS = ("hourly", "event")
SEEDS = (0, 1)
SCALE = 0.25
HOURS = 24
SKIP = ("telemetry",)

#: Fleet-scale cells, ``fleet-<hosts>x<vms>/controller/backend/seed``:
#: ``build_fleet(hosts, vms, 0.5, FLEET_TRACE_HOURS, seed=seed)`` run
#: for ``FLEET_RUN_HOURS`` with the simulation seeded alike.  At 512
#: VMs the waking plane's addresses collide, which no 16-VM grid cell
#: shows.
FLEET_CELLS = ("fleet-128x512/drowsy/event/7",)
FLEET_TRACE_HOURS = 24
FLEET_RUN_HOURS = 4


def cell_ids() -> list[str]:
    """Every grid cell as ``scenario/controller/backend/seed``, then the
    fleet-scale cells."""
    from repro.scenarios import list_scenarios

    return [f"{spec.name}/{c}/{b}/{s}"
            for spec in list_scenarios()
            for c in CONTROLLERS for b in BACKENDS for s in SEEDS
            ] + list(FLEET_CELLS)


def field_digests(result) -> dict[str, str]:
    """One digest per ``RunResult`` field (``SKIP`` excluded)."""
    out = {}
    for f in dataclasses.fields(result):
        if f.name in SKIP:
            continue
        h = hashlib.blake2b(digest_size=16)
        h.update(f"{f.name}={getattr(result, f.name)!r};".encode())
        out[f.name] = h.hexdigest()
    return out


def run_cell(cell_id: str) -> dict[str, str]:
    """Run one grid cell through the façade; its per-field digests."""
    from repro.api import Simulation

    scenario, controller, backend, seed = cell_id.split("/")
    if cell_id in FLEET_CELLS:
        from repro.experiments.common import build_fleet

        n_hosts, n_vms = map(int, scenario.removeprefix("fleet-").split("x"))
        dc = build_fleet(n_hosts, n_vms, 0.5, FLEET_TRACE_HOURS,
                         seed=int(seed))
        sim = Simulation(dc, controller, backend, seed=int(seed))
        return field_digests(sim.run(FLEET_RUN_HOURS))
    sim = Simulation.from_scenario(scenario, seed=int(seed),
                                   controller=controller, backend=backend,
                                   hours=HOURS, scale=SCALE)
    return field_digests(sim.run())


def load() -> dict[str, dict[str, str]]:
    return json.loads(DIGESTS.read_text())


def moved(old: dict, new: dict) -> dict[str, list[str]]:
    """``cell -> [field, ...]`` for every cell whose digests differ
    (cells present on one side only list ``"<cell>"``)."""
    out = {}
    for cell in sorted(set(old) | set(new)):
        a, b = old.get(cell), new.get(cell)
        if a is None or b is None:
            out[cell] = ["<cell>"]
            continue
        fields = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
        if fields:
            out[cell] = fields
    return out


def regen() -> dict[str, list[str]]:
    """Recompute every cell, rewrite ``digests.json``, return what
    moved against the previous file."""
    old = load() if DIGESTS.exists() else {}
    new = {cell: run_cell(cell) for cell in cell_ids()}
    DIGESTS.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    return moved(old, new)
