"""Tests for the ordered timer queue (the kernel's hrtimer red-black tree).

The kernel keeps pending hrtimers in a red-black tree ordered by expiry.
:class:`TimerRegistry` plays that role here on a sorted list; these
tests hold it to the tree's contract: entries come out in expiry order
and a timer can be removed by its handle, here its
``(process_name, timer_name)`` key.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.suspend import TimerEntry, TimerRegistry

NO_BLACKLIST = frozenset()


def fire_times(reg):
    return [e.fire_time_s for e in reg.entries()]


class TestBasics:
    def test_empty(self):
        reg = TimerRegistry()
        assert len(reg) == 0
        assert not reg
        assert reg.entries() == []
        assert reg.earliest_valid(NO_BLACKLIST) is None
        assert not reg.cancel("svc", "t")

    def test_insert_and_min(self):
        reg = TimerRegistry()
        reg.register(TimerEntry(5.0, "svc", "five"))
        reg.register(TimerEntry(3.0, "svc", "three"))
        reg.register(TimerEntry(7.0, "svc", "seven"))
        assert len(reg) == 3
        assert reg.earliest_valid(NO_BLACKLIST) == TimerEntry(3.0, "svc", "three")

    def test_remove_by_handle(self):
        reg = TimerRegistry()
        reg.register(TimerEntry(2.0, "svc", "x"))
        reg.register(TimerEntry(1.0, "svc", "y"))
        assert reg.cancel("svc", "x")
        assert [e.timer_name for e in reg.entries()] == ["y"]

    def test_items_in_order(self):
        reg = TimerRegistry()
        for k in (4, 2, 8, 6, 0):
            reg.register(TimerEntry(float(k), "svc", f"t{k}"))
        assert fire_times(reg) == [0.0, 2.0, 4.0, 6.0, 8.0]


class TestInvariants:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(min_value=0, max_value=1e9), max_size=150))
    def test_sorted_iteration_matches_sorted_list(self, keys):
        reg = TimerRegistry()
        for i, k in enumerate(keys):
            reg.register(TimerEntry(k, "svc", f"t{i}"))
        assert fire_times(reg) == sorted(keys)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.floats(min_value=0, max_value=1e6),
                              st.booleans()), max_size=120))
    def test_mixed_inserts_and_deletes(self, spec):
        """Reference-model test: the registry behaves like a sorted multiset."""
        reg = TimerRegistry()
        handles = []
        reference = []
        for i, (key, delete_one) in enumerate(spec):
            reg.register(TimerEntry(key, "svc", f"t{i}"))
            handles.append((key, f"t{i}"))
            reference.append(key)
            if delete_one and handles:
                k, name = handles.pop(len(handles) // 2)
                assert reg.cancel("svc", name)
                reference.remove(k)
        assert fire_times(reg) == sorted(reference)

    def test_heavy_randomized_churn(self):
        rng = np.random.default_rng(7)
        reg = TimerRegistry()
        live = []
        for step in range(2000):
            if live and rng.random() < 0.4:
                _, name = live.pop(int(rng.integers(len(live))))
                assert reg.cancel("svc", name)
            else:
                k = float(rng.uniform(0, 1e6))
                reg.register(TimerEntry(k, "svc", f"t{step}"))
                live.append((k, f"t{step}"))
        assert len(reg) == len(live)
        assert fire_times(reg) == sorted(k for k, _ in live)
