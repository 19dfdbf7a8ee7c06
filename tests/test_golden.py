"""Golden ``RunResult`` digests (see ``tests/golden/__init__.py``).

Every cell of the built-in scenario grid must reproduce its pinned
per-field digests bit for bit.  A refactor that is meant to move a
field re-pins with ``python -m tests.golden --regen`` and names the
moved cells in its change notes.
"""

import pytest

from tests.golden import cell_ids, field_digests, load, run_cell

GOLDEN = load()


def test_grid_matches_pinned_cells():
    assert sorted(cell_ids()) == sorted(GOLDEN)


@pytest.mark.parametrize("cell", cell_ids())
def test_cell_digests(cell):
    got = run_cell(cell)
    want = GOLDEN[cell]
    moved = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
    assert not moved, f"{cell}: fields moved: {', '.join(moved)}"


def test_digest_is_field_sensitive():
    from repro.core.result import RunResult

    base = RunResult(hours=1, controller_name="c", backend="hourly",
                     energy_kwh_by_host={"h0": 1.0},
                     suspended_fraction_by_host={"h0": 0.0},
                     suspend_cycles_by_host={"h0": 0}, migrations=0,
                     vm_migrations={})
    bumped = RunResult(hours=1, controller_name="c", backend="hourly",
                       energy_kwh_by_host={"h0": 1.0 + 2 ** -40},
                       suspended_fraction_by_host={"h0": 0.0},
                       suspend_cycles_by_host={"h0": 0}, migrations=0,
                       vm_migrations={})
    a, b = field_digests(base), field_digests(bumped)
    assert "telemetry" not in a
    assert [k for k in a if a[k] != b[k]] == ["energy_kwh_by_host"]
