"""``DrowsyController.relocate_all`` against its original per-candidate loop.

The controller's search (``repro.consolidation.drowsy.PairSearch``)
scores every unknown host pair of a pass in chunks, each from one
candidate table kept in a small LRU keyed by the chunk's group sizes,
and keeps each pair's result until a move changes either of its groups.
:func:`reference_relocate_all` below is the original implementation,
kept verbatim as the oracle: one ``dispersion`` reduction per candidate
group, every pair re-scored on every visit.  Both must produce the same
placement, in the same per-host VM order, and report the same migration
count.  The pinned examples each catch one wrong reuse of a result: a
pair visited earlier in the pass left settled after a move, a pass that
walks only the pairs unknown at its start, and a batched result used
after one of its hosts moved.  :class:`TestChunkTables` reuses tables:
after a one-way move reshapes a chunk, across hours whose chunks hold
other VMs, and over many small chunks.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cluster import VM, DataCenter, Host, HostCapacity, ResourceSpec
from repro.consolidation import DrowsyController, drowsy
from repro.consolidation.drowsy import group_dispersion, ip_profiles
from repro.consolidation.neat import MANAGED_STATES
from repro.core.binding import FleetBinding
from repro.core.calendar import slot_of_hour
from repro.core.params import DEFAULT_PARAMS
from repro.traces.synthetic import always_idle_trace


def reference_relocate_all(self, hour_index: int, now: float) -> int:
    """The per-candidate search, as it stood before batching."""
    hosts = [h for h in self.dc.hosts if h.state in MANAGED_STATES]
    vms = [vm for h in hosts for vm in h.vms]
    if not vms:
        return 0
    # Predicted raw IP of each VM over the next day of hourly slots
    # (models trained on the past only — no oracle).  A whole-day
    # profile separates patterns that a single slot cannot: two VMs
    # can tie at 3 am yet differ at 9 am.
    window = 24
    ips = {vm.name: np.array([vm.raw_ip(hour_index + k)
                              for k in range(window)]) for vm in vms}
    groups: dict[str, list[VM]] = {h.name: list(h.vms) for h in hosts}
    host_by_name = {h.name: h for h in hosts}

    def dispersion(group: list[VM]) -> float:
        """Summed per-slot IP spread of a host's VMs over the window."""
        if len(group) < 2:
            return 0.0
        vals = np.stack([ips[vm.name] for vm in group])
        mean = vals.mean(axis=0)
        return float(np.abs(vals - mean).sum())

    threshold = self.params.ip_distance_tolerance
    names = sorted(groups)
    for _ in range(len(vms)):  # convergence bound
        improved = False
        for i, n1 in enumerate(names):
            for n2 in names[i + 1:]:
                g1, g2 = groups[n1], groups[n2]
                h1, h2 = host_by_name[n1], host_by_name[n2]
                mem1 = sum(v.resources.memory_mb for v in g1)
                cpu1 = sum(v.resources.cpus for v in g1)
                mem2 = sum(v.resources.memory_mb for v in g2)
                cpu2 = sum(v.resources.cpus for v in g2)
                base = dispersion(g1) + dispersion(g2)
                best: tuple[float, VM | None, VM | None] | None = None
                # Swaps and one-way moves into genuinely free slots
                # (never onto an emptied host: splitting a group
                # onto idle metal is anti-consolidation).
                candidates: list[tuple[VM | None, VM | None]] = [
                    (a, b) for a in g1 for b in g2]
                if g2:
                    candidates += [(a, None) for a in g1]
                if g1:
                    candidates += [(None, b) for b in g2]
                for a, b in candidates:
                    am, ac = ((a.resources.memory_mb, a.resources.cpus)
                              if a is not None else (0, 0))
                    bm, bc = ((b.resources.memory_mb, b.resources.cpus)
                              if b is not None else (0, 0))
                    # Capacity is a hard constraint in *both*
                    # directions: with heterogeneous flavors (the
                    # scenario fleets) even a swap is not
                    # capacity-neutral.  O(1) deltas off the hoisted
                    # group sums; always true for uniform flavors,
                    # so the E8 search is unchanged.
                    if (mem1 - am + bm > h1.capacity.memory_mb
                            or cpu1 - ac + bc > h1.capacity.schedulable_cpus
                            or mem2 - bm + am > h2.capacity.memory_mb
                            or cpu2 - bc + ac > h2.capacity.schedulable_cpus):
                        continue
                    new1 = [v for v in g1 if v is not a] + ([b] if b else [])
                    new2 = [v for v in g2 if v is not b] + ([a] if a else [])
                    gain = base - (dispersion(new1) + dispersion(new2))
                    if gain > threshold and (best is None or gain > best[0]):
                        best = (gain, a, b)
                if best is not None:
                    _, a, b = best
                    groups[n1] = [v for v in g1 if v is not a] + ([b] if b else [])
                    groups[n2] = [v for v in g2 if v is not b] + ([a] if a else [])
                    improved = True
        if not improved:
            break

    assignment = {vm.name: host_by_name[hname]
                  for hname, group in groups.items() for vm in group}
    records = self.dc.apply_assignment(assignment, now)
    return len(records)


#: (cpus, memory_mb) flavors: mixed, so a swap can break capacity.
FLAVORS = ((1, 1024), (2, 2048), (2, 4096), (4, 6144), (1, 8192))
#: Two host classes; the small one fills up well before six VMs.
CAPACITIES = (HostCapacity(cpus=8, memory_mb=16384, cpu_overcommit=1.0),
              HostCapacity(cpus=16, memory_mb=32768, cpu_overcommit=1.0))
TRAINED_HOURS = 3 * 24


def build_fleet(seed: int, n_hosts: int, max_vms: int) -> DataCenter:
    """A trained fleet, a pure function of its arguments.

    Host names are a shuffled range, so the name order the search
    visits pairs in differs from the data center's host order.
    """
    rng = np.random.default_rng(seed)
    hosts = [Host(f"h{int(k)}", CAPACITIES[int(rng.integers(2))])
             for k in rng.permutation(n_hosts * 2)[:n_hosts]]
    dc = DataCenter(hosts)
    n = 0
    for host in hosts:
        for _ in range(int(rng.integers(0, max_vms + 1))):
            cpus, mem = FLAVORS[int(rng.integers(len(FLAVORS)))]
            vm = VM(f"v{n}", always_idle_trace(24), ResourceSpec(cpus, mem))
            n += 1
            if not host.can_host(vm):
                continue
            # Each VM is busy in its own daily window; some never are,
            # which leaves exact dispersion ties to break.
            start = int(rng.integers(0, 24))
            width = int(rng.integers(0, 9))
            level = float(rng.uniform(0.1, 0.9))
            for t in range(TRAINED_HOURS):
                busy = (t - start) % 24 < width
                vm.model.observe(t, level if busy else 0.0)
            dc.place(vm, host)
    return dc


def layout(dc: DataCenter) -> list[list[str]]:
    return [[vm.name for vm in h.vms] for h in dc.hosts]


fleets = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "n_hosts": st.integers(2, 10),
    "max_vms": st.integers(0, 6),
})


class TestMatchesReference:
    @settings(max_examples=60, deadline=None)
    # A pair visited earlier in the pass stays settled after a move.
    @example(fleet={"seed": 2253027920, "n_hosts": 10, "max_vms": 6},
             hour=313, tolerance=0.0, bound=False)
    # The pass walks only the pairs unknown at its start.
    @example(fleet={"seed": 4265854110, "n_hosts": 10, "max_vms": 3},
             hour=183, tolerance=DEFAULT_PARAMS.ip_distance_tolerance,
             bound=False)
    # A batched result is used after one of its hosts moved.
    @example(fleet={"seed": 2046968324, "n_hosts": 5, "max_vms": 4},
             hour=214, tolerance=DEFAULT_PARAMS.ip_distance_tolerance,
             bound=True)
    @given(fleet=fleets,
           hour=st.integers(TRAINED_HOURS, TRAINED_HOURS + 24 * 30),
           tolerance=st.sampled_from(
               (0.0, DEFAULT_PARAMS.ip_distance_tolerance)),
           bound=st.booleans())
    def test_same_placement_and_count(self, fleet, hour, tolerance, bound):
        params = DEFAULT_PARAMS.replace(ip_distance_tolerance=tolerance)
        ref_dc, new_dc = build_fleet(**fleet), build_fleet(**fleet)
        if bound:
            # Fleet-bound VMs read their profiles off the fleet columns.
            FleetBinding.try_bind(new_dc, DEFAULT_PARAMS)
        expected = reference_relocate_all(
            DrowsyController(ref_dc, params=params), hour, 1.0)
        moved = DrowsyController(new_dc, params=params).relocate_all(hour, 1.0)
        assert layout(new_dc) == layout(ref_dc)
        assert moved == expected

    def test_zero_gain_is_not_an_improvement(self):
        """Swapping two lone VMs gains exactly 0.0, which never beats a
        zero tolerance (an odd number of lone VMs keeps a ``>=`` search
        from swapping back into place)."""
        params = DEFAULT_PARAMS.replace(ip_distance_tolerance=0.0)
        dc = DataCenter([Host(f"h{k}", CAPACITIES[0]) for k in range(3)])
        for k, host in enumerate(dc.hosts):
            vm = VM(f"v{k}", always_idle_trace(24), ResourceSpec(1, 1024))
            for t in range(TRAINED_HOURS):
                vm.model.observe(t, 0.5 if t % 24 == 4 * k else 0.0)
            dc.place(vm, host)
        before = layout(dc)
        moved = DrowsyController(dc, params=params).relocate_all(
            TRAINED_HOURS, 1.0)
        assert (moved, layout(dc)) == (0, before)

    def test_pass_spans_several_chunks(self, monkeypatch):
        """A 40-host fleet's first pass is scored in more than one chunk."""
        chunks = []
        chunk = drowsy.PairSearch._chunk

        def logged(search, n):
            pairs = chunk(search, n)
            chunks.append((n, len(pairs), len(search.pairs)))
            return pairs

        monkeypatch.setattr(drowsy.PairSearch, "_chunk", logged)
        ref_dc, new_dc = build_fleet(2, 40, 6), build_fleet(2, 40, 6)
        FleetBinding.try_bind(new_dc, DEFAULT_PARAMS)
        expected = reference_relocate_all(
            DrowsyController(ref_dc), TRAINED_HOURS + 7, 1.0)
        moved = DrowsyController(new_dc).relocate_all(TRAINED_HOURS + 7, 1.0)
        assert layout(new_dc) == layout(ref_dc)
        assert moved == expected > 0
        n, scored, n_pairs = chunks[0]
        assert n == 0 and scored < n_pairs

    def test_fleet_profile_matches_per_vm_queries(self):
        """The fleet's window gather equals the per-VM queries and the
        per-slot columns, on windows that cross midnight, a month end
        (Jan 31 -> Feb 1) and the year wrap (day 364 -> day 0), on days
        never written, and with a masked scale."""
        windows = (TRAINED_HOURS + 5, 30 * 24 + 12, 364 * 24 + 12,
                   200 * 24 + 12)
        masked = DEFAULT_PARAMS.replace(use_monthly_scale=False)
        for params in (DEFAULT_PARAMS, masked):
            dc = calendar_fleet(params)
            vms = dc.vms
            scalar = [ip_profiles(vms, hour) for hour in windows]
            FleetBinding.try_bind(dc, params)
            assert all(vm.model.fleet is not None for vm in vms)
            fleet = vms[0].model.fleet
            rows = np.array([vm.model.fleet_index for vm in vms])
            for hour, expected in zip(windows, scalar):
                assert np.array_equal(ip_profiles(vms, hour), expected)
                columns = [fleet.raw_ip_column(slot_of_hour(hour + k))[rows]
                           for k in range(drowsy.PROFILE_HOURS)]
                assert np.array_equal(np.stack(columns, axis=1), expected)


def relocate_both(fleet: dict, hours):
    """Relocate a reference and a fleet-bound copy of ``fleet`` at each
    of ``hours`` in turn, yielding each hour's migration count; the
    layouts and counts must agree after every hour."""
    ref_dc, new_dc = build_fleet(**fleet), build_fleet(**fleet)
    FleetBinding.try_bind(new_dc, DEFAULT_PARAMS)
    ref, new = DrowsyController(ref_dc), DrowsyController(new_dc)
    for t in hours:
        expected = reference_relocate_all(ref, t, t * 3600.0)
        moved = new.relocate_all(t, t * 3600.0)
        assert layout(new_dc) == layout(ref_dc)
        assert moved == expected
        yield moved


@pytest.fixture
def scored(monkeypatch):
    """Log each scored chunk as ``(sizes, groups)``, from an empty LRU."""
    log = []
    score = drowsy.PairSearch._score

    def logged(search, pairs):
        g = search.groups
        log.append((tuple((len(g[i]), len(g[j])) for i, j in pairs),
                    [(tuple(g[i]), tuple(g[j])) for i, j in pairs]))
        score(search, pairs)

    monkeypatch.setattr(drowsy.PairSearch, "_score", logged)
    drowsy._chunk_table.cache_clear()
    return log


class TestChunkTables:
    def test_one_way_move_reshapes_a_scored_chunk(self, scored):
        """A one-way move in the first pass changes two group sizes, so
        the second pass scores the first chunk's pairs with another
        table than the one the LRU holds for them."""
        assert list(relocate_both({"seed": 4, "n_hosts": 3, "max_vms": 4},
                                  [TRAINED_HOURS])) == [4]
        first = scored[0][0]
        assert len(first) == 3  # all the pairs of three hosts
        assert any(len(sizes) == 3 and sizes != first
                   for sizes, _ in scored[1:])

    def test_next_hour_reuses_a_table_for_other_vms(self, scored):
        """Two hours on one fleet: the second hour's first chunk has the
        sizes of a chunk the first hour scored, so it reuses that table,
        but the first hour's moves put other VMs in its groups."""
        hours = relocate_both({"seed": 20, "n_hosts": 4, "max_vms": 4},
                              [TRAINED_HOURS + 3, TRAINED_HOURS + 4])
        assert next(hours) > 0
        n, hits = len(scored), drowsy._chunk_table.cache_info().hits
        next(hours)
        sizes, groups = scored[n]
        assert all(map(min, sizes))  # no empty host: the LRU key is sizes
        assert any(s == sizes and g != groups for s, g in scored[:n])
        assert drowsy._chunk_table.cache_info().hits > hits

    def test_small_chunks_share_tables(self, scored, monkeypatch):
        """Chunks of a few pairs of mixed widths, so most tables pad:
        many chunks per pass, more layouts than the LRU holds, and some
        chunks read from tables it kept."""
        monkeypatch.setattr(drowsy, "_CHUNK_ROWS", 200)
        moved = relocate_both({"seed": 3, "n_hosts": 8, "max_vms": 5},
                              range(TRAINED_HOURS, TRAINED_HOURS + 3))
        assert sum(moved) > 0
        info = drowsy._chunk_table.cache_info()
        assert len(scored) > 28
        assert info.hits > 0 and info.misses > info.maxsize


def calendar_fleet(params) -> DataCenter:
    """Six VMs trained on the first days of the year, around the end of
    January and around the year's end, so day-long profile windows read
    written monthly and yearly days on both sides of a day change."""
    rng = np.random.default_rng(3)
    dc = DataCenter([Host(f"h{k}", CAPACITIES[1]) for k in range(2)])
    hours = [*range(0, 5 * 24), *range(29 * 24, 33 * 24),
             *range(363 * 24, 367 * 24)]
    for k in range(6):
        vm = VM(f"v{k}", always_idle_trace(24), ResourceSpec(1, 1024),
                params=params)
        for t in hours:
            vm.model.observe(t, float(rng.uniform(0.1, 0.9))
                             if rng.random() < 0.4 else 0.0)
        dc.place(vm, dc.hosts[k % 2])
    return dc


class TestGroupDispersion:
    @pytest.mark.parametrize("k", range(9))
    def test_bit_identical_to_one_group_at_a_time(self, k):
        # Six or more VMs make a k * 24 block longer than numpy's
        # 128-element pairwise-sum block: any reordering shows there.
        # A wide dynamic range makes every rounding visible.
        rng = np.random.default_rng(k)
        profile = (rng.normal(size=(40, 24))
                   * 10.0 ** rng.uniform(-6, 6, size=(40, 24)))
        rows = rng.integers(0, 40, size=(40, k))
        batched = group_dispersion(profile, rows)
        for c, v in enumerate(profile[rows]):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # k == 0
                expected = float(np.abs(v - v.mean(0)).sum())
            assert batched[c] == expected

    @pytest.mark.parametrize("k", range(9))
    def test_no_groups(self, k):
        """``C = 0`` groups of any size give an empty float column."""
        out = group_dispersion(np.ones((3, 24)), np.zeros((0, k), dtype=np.intp))
        assert out.shape == (0,) and out.dtype == np.float64
