"""Tests for the discrete-event kernel."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.events import EventSimulator


class TestScheduling:
    def test_runs_in_time_order(self):
        sim = EventSimulator()
        order = []
        sim.schedule_at(5.0, order.append, "b")
        sim.schedule_at(1.0, order.append, "a")
        sim.schedule_at(9.0, order.append, "c")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_fifo_within_timestamp(self):
        sim = EventSimulator()
        order = []
        for tag in "abc":
            sim.schedule_at(1.0, order.append, tag)
        sim.run()
        assert order == ["a", "b", "c"]

    def test_clock_advances(self):
        sim = EventSimulator()
        seen = []
        sim.schedule_at(3.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [3.0]

    def test_schedule_in_relative(self):
        sim = EventSimulator(start_time=10.0)
        seen = []
        sim.schedule_in(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [15.0]

    def test_cannot_schedule_in_past(self):
        sim = EventSimulator(start_time=10.0)
        with pytest.raises(ValueError):
            sim.schedule_at(5.0, lambda: None)
        with pytest.raises(ValueError):
            sim.schedule_in(-1.0, lambda: None)

    def test_events_can_schedule_events(self):
        sim = EventSimulator()
        order = []

        def first():
            order.append("first")
            sim.schedule_in(1.0, lambda: order.append("second"))

        sim.schedule_at(1.0, first)
        sim.run()
        assert order == ["first", "second"]
        assert sim.now == 2.0


class TestCancellation:
    def test_cancelled_event_skipped(self):
        sim = EventSimulator()
        fired = []
        ev = sim.schedule_at(1.0, fired.append, "x")
        ev.cancel()
        sim.run()
        assert fired == []

    def test_pending_excludes_cancelled(self):
        sim = EventSimulator()
        ev = sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        assert sim.pending == 2
        ev.cancel()
        assert sim.pending == 1

    def test_peek_skips_cancelled(self):
        sim = EventSimulator()
        ev = sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        ev.cancel()
        assert sim.peek_time() == 2.0

    def test_double_cancel_counts_once(self):
        sim = EventSimulator()
        ev = sim.schedule_at(1.0, lambda: None)
        ev.cancel()
        ev.cancel()
        assert sim.pending == 0

    def test_cancel_after_execution_keeps_pending_consistent(self):
        """Modules keep Event handles around; cancelling a handle whose
        event already fired must not corrupt the live counter."""
        sim = EventSimulator()
        ev = sim.schedule_at(1.0, lambda: None)
        sim.run()
        assert sim.pending == 0
        ev.cancel()
        assert sim.pending == 0
        sim.schedule_at(2.0, lambda: None)
        assert sim.pending == 1


def _each(fn):
    """A stream consumer calling ``fn(key, value)`` for every entry of
    its slice (``fn`` must schedule nothing)."""
    def consume(times, keys, values, lo, hi):
        for i in range(lo, hi):
            fn(keys[i], values[i])
        return hi
    return consume


def _first(fn):
    """A stream consumer calling ``fn(key, value)`` for the first entry
    of its slice only (``fn`` may schedule)."""
    def consume(times, keys, values, lo, hi):
        fn(keys[lo], values[lo])
        return lo + 1
    return consume


def _stream(sim, times, sink):
    """Feed ``times`` as one block whose entry ``i`` appends ``(t, i)``."""
    sim.schedule_stream(list(times), _each(lambda t, i: sink.append((t, i))),
                        list(times), list(range(len(times))))


class TestScheduleBatch:
    """A whole block scheduled at once: the arrival stream
    (:meth:`EventSimulator.schedule_stream`)."""

    def test_matches_n_individual_pushes(self):
        """A block is behaviourally identical to N schedule_at calls:
        same processing order (incl. FIFO ties) and same clock stops."""
        times = [1.0, 1.0, 1.0, 3.0, 3.0, 5.0, 9.0]

        ref_sim, ref_order = EventSimulator(), []
        for i, t in enumerate(times):
            ref_sim.schedule_at(t, ref_order.append, (t, i))
        ref_sim.run()

        sim, order = EventSimulator(), []
        _stream(sim, times, order)
        assert not sim._heap  # the block stays off the heap
        sim.run()
        assert order == ref_order
        assert sim.events_processed == ref_sim.events_processed
        assert sim.now == ref_sim.now

    def test_interleaves_with_scheduled_events_by_seq(self):
        """Block entries get sequence numbers in entry order, after any
        previously scheduled events — ties at the same timestamp break
        exactly like individual pushes would."""
        for drain in (EventSimulator.run, lambda s: s.run_until(2.0)):
            sim, order = EventSimulator(), []
            sim.schedule_at(2.0, order.append, "pre")
            sim.schedule_stream([2.0, 2.0], _each(lambda k, v: order.append(k)),
                                ["b0", "b1"], [None, None])
            sim.schedule_at(2.0, order.append, "post")
            drain(sim)
            assert order == ["pre", "b0", "b1", "post"]

    def test_cancellation_and_live_counter_lockstep(self):
        """``pending`` counts the unconsumed entries beside the live heap
        events, in lockstep with cancellation and consumption."""
        sim, fired = EventSimulator(), []
        _stream(sim, [1.0, 2.0, 3.0], fired)
        ev = sim.schedule_at(1.5, fired.append, "x")
        assert sim.pending == 4
        ev.cancel()
        ev.cancel()  # double-cancel counts once
        assert sim.pending == 3
        sim.run_until(2.0)
        assert fired == [(1.0, 0), (2.0, 1)]
        assert sim.pending == 1
        sim.run()
        assert sim.pending == 0
        assert sim.events_processed == 3

    def test_rejects_past_times(self):
        sim = EventSimulator(start_time=10.0)
        with pytest.raises(ValueError):
            _stream(sim, [5.0, 11.0], [])
        assert sim.pending == 0

    def test_empty_batch(self):
        sim = EventSimulator()
        _stream(sim, [], [])
        assert sim.pending == 0
        assert sim.peek_time() is None

    def test_unsorted_batch_is_refused(self):
        """The cursor needs a sorted block; the engine sorts once."""
        sim = EventSimulator()
        with pytest.raises(ValueError):
            _stream(sim, [9.0, 1.0, 5.0], [])
        assert sim.pending == 0

    def test_count_coalesced(self):
        sim = EventSimulator()
        sim.schedule_at(1.0, lambda: sim.count_coalesced(4))
        sim.run()
        assert sim.events_processed == 5
        with pytest.raises(ValueError):
            sim.count_coalesced(-1)


class _Script:
    """Records every callback; entry ``key`` of ``plan`` schedules one
    follow-up per listed delay.  Picklable, so a run can be pickled and
    resumed mid-block."""

    def __init__(self, sim, plan):
        self.sim, self.plan, self.log = sim, plan, []

    def fire(self, key, value):
        self._fire_at(self.sim.now, key, value)

    def consume(self, times, keys, values, lo, hi):
        """The stream consumer: fires entries in order; an entry whose
        key schedules follow-ups must come first in its slice."""
        for i in range(lo, hi):
            key = keys[i]
            if self.plan.get(key):
                if i > lo:
                    return i
                self._fire_at(times[i], key, values[i])
                return i + 1
            self._fire_at(times[i], key, values[i])
        return hi

    def _fire_at(self, now, key, value):
        self.log.append((now, key, value))
        for delay in self.plan.get(key, ()):
            self.sim.schedule_in(delay, self.fire, f"{key}>", delay)


_GRID = st.sampled_from([0.5 * k for k in range(13)])


class TestArrivalStream:
    """The cursor merged with the heap against a plain-heap reference
    that pushes every stream entry with :meth:`schedule_at`."""

    @settings(max_examples=300, deadline=None)
    @given(first=st.lists(_GRID, max_size=12),
           second=st.lists(_GRID, max_size=6),
           pre=st.lists(_GRID, max_size=6),
           post=st.lists(_GRID, max_size=6),
           delays=st.dictionaries(
               st.integers(0, 17),
               st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.5]),
                        max_size=2)),
           cuts=st.lists(st.tuples(_GRID, st.booleans()), max_size=4))
    def test_matches_plain_heap_reference(self, first, second, pre, post,
                                          delays, cuts):
        """Heap events at exactly the stream's times, before and after
        the block; callbacks scheduling before, at and after the next
        entry; ``run_until`` bounds that cut the block; a pickle round
        trip mid-block; and a second block fed while the first is
        unconsumed."""
        first.sort()
        plan = {f"s{i}": d for i, d in delays.items()}

        def build(use_stream):
            sim = EventSimulator()
            script = _Script(sim, plan)
            for i, t in enumerate(pre):
                sim.schedule_at(t, script.fire, f"pre{i}", t)
            keys = [f"s{i}" for i in range(len(first))]
            if use_stream:
                sim.schedule_stream(first, script.consume, keys, first)
            else:
                for t, k in zip(first, keys):
                    sim.schedule_at(t, script.fire, k, t)
            for i, t in enumerate(post):
                sim.schedule_at(t, script.fire, f"post{i}", t)
            return sim, script

        def feed_second(sim, script, use_stream):
            times = sorted(sim.now + t for t in second)
            keys = [f"s{len(first) + i}" for i in range(len(times))]
            if use_stream:
                sim.schedule_stream(times, script.consume, keys, times)
            else:
                for t, k in zip(times, keys):
                    sim.schedule_at(t, script.fire, k, t)

        def play(use_stream):
            sim, script = build(use_stream)
            seen = []
            for n, (bound, round_trip) in enumerate(sorted(cuts)):
                sim.run_until(bound)
                seen.append((sim.now, sim.pending, sim.events_processed))
                if round_trip and use_stream:
                    sim, script = pickle.loads(pickle.dumps((sim, script)))
                if n == 0:
                    feed_second(sim, script, use_stream)
            if not cuts:
                feed_second(sim, script, use_stream)
            sim.run()
            seen.append((sim.now, sim.pending, sim.events_processed))
            return script.log, seen

        assert play(True) == play(False)

    def test_block_fed_while_one_is_unconsumed_moves_the_rest_to_the_heap(
            self):
        sim, order = EventSimulator(), []
        _stream(sim, [1.0, 4.0, 6.0], order)
        sim.run_until(2.0)
        sim.schedule_stream([4.0, 5.0],
                            _each(lambda t, i: order.append(("b", t))),
                            [4.0, 5.0], [0, 1])
        assert len(sim._heap) == 2  # the first block's unconsumed rest
        assert sim.pending == 4
        sim.run()
        assert order == [(1.0, 0), (4.0, 1), ("b", 4.0), ("b", 5.0),
                         (6.0, 2)]

    def test_callback_may_feed_the_next_block(self):
        sim, order = EventSimulator(), []

        def arrive(t, i):
            order.append(t)
            if i == 0:
                sim.schedule_stream([t, t + 1.0], _first(arrive),
                                    [t, t + 1.0], [1, 1])
        sim.schedule_stream([1.0, 3.0], _first(arrive), [1.0, 3.0], [0, 2])
        sim.run_until(10.0)
        assert order == [1.0, 1.0, 2.0, 3.0]
        assert sim.events_processed == 4

    def test_pickles_mid_block(self):
        sim = EventSimulator()
        script = _Script(sim, {})
        sim.schedule_stream([1.0, 2.0, 3.0], script.consume,
                            ["a", "b", "c"], [0, 1, 2])
        sim.run_until(1.5)
        sim, script = pickle.loads(pickle.dumps((sim, script)))
        assert sim.pending == 2
        sim.run()
        assert [k for _, k, _ in script.log] == ["a", "b", "c"]


class _Slices:
    """A stream consumer recording every slice it is offered (as keys)
    and the order entries and events run in.  The entry of a key in
    ``plan`` schedules an event at ``plan[key]``, so it must come first
    in its slice: the consumer stops before it, then returns after it."""

    def __init__(self, sim, plan=()):
        self.sim, self.plan = sim, dict(plan)
        self.offered, self.order = [], []

    def __call__(self, times, keys, values, lo, hi):
        self.offered.append(keys[lo:hi])
        for i in range(lo, hi):
            key = keys[i]
            if key in self.plan:
                if i > lo:
                    return i
                self.order.append(key)
                self.sim.schedule_at(self.plan[key], self.order.append,
                                     f"ev<{key}")
                return i + 1
            self.order.append(key)
        return hi


class TestArrivalSlices:
    """What :meth:`EventSimulator.run_until` hands the stream's consumer:
    each run of entries before the heap's top and the bound."""

    def test_slice_bound_at_equal_times(self):
        """A heap event at an entry's time goes first only if it was
        scheduled before the block."""
        sim = EventSimulator()
        s = _Slices(sim)
        sim.schedule_at(2.0, s.order.append, "pre")
        sim.schedule_stream([1.0, 2.0, 2.0, 3.0], s, list("abcd"), [0] * 4)
        sim.schedule_at(2.0, s.order.append, "post")
        sim.schedule_at(3.0, s.order.append, "late")
        sim.run_until(3.0)
        assert s.order == ["a", "pre", "b", "c", "post", "d", "late"]
        assert s.offered == [["a"], ["b", "c"], ["d"]]
        assert sim.events_processed == 7 and sim.heap_pops == 3

    def test_slice_stops_at_the_bound(self):
        sim = EventSimulator()
        s = _Slices(sim)
        sim.schedule_stream([1.0, 2.0, 2.0, 3.0], s, list("abcd"), [0] * 4)
        sim.run_until(2.0)
        assert s.offered == [["a", "b", "c"]]
        assert sim.now == 2.0 and sim.pending == 1
        sim.run()
        assert s.offered == [["a", "b", "c"], ["d"]]
        assert sim.now == 3.0

    def test_consumer_schedules_an_earlier_event_mid_slice(self):
        """The entry that schedules is handed back as the first of the
        next slice; after it the heap's top is re-read, so an event due
        before the next entry runs before it."""
        sim = EventSimulator()
        s = _Slices(sim, {"b": 2.5})
        sim.schedule_stream([1.0, 2.0, 3.0, 4.0], s, list("abcd"), [0] * 4)
        sim.run_until(10.0)
        assert s.order == ["a", "b", "ev<b", "c", "d"]
        assert s.offered == [list("abcd"), list("bcd"), list("cd")]
        assert sim.events_processed == 5 and sim.heap_pops == 1

    def test_event_scheduled_at_the_next_entry_time_runs_after_it(self):
        sim = EventSimulator()
        s = _Slices(sim, {"b": 3.0})
        sim.schedule_stream([1.0, 2.0, 3.0, 4.0], s, list("abcd"), [0] * 4)
        sim.run_until(10.0)
        assert s.order == ["a", "b", "c", "ev<b", "d"]
        assert s.offered == [list("abcd"), list("bcd"), ["c"], ["d"]]

    def test_step_takes_slices_of_one(self):
        sim = EventSimulator()
        s = _Slices(sim)
        sim.schedule_at(2.0, s.order.append, "pre")
        sim.schedule_stream([1.0, 2.0, 2.0], s, list("abc"), [0] * 3)
        while sim.step():
            pass
        assert s.order == ["a", "pre", "b", "c"]
        assert s.offered == [["a"], ["b"], ["c"]]
        assert sim.events_processed == 4 and sim.heap_pops == 1

    def test_spilled_block_runs_as_heap_slices_of_one(self):
        sim = EventSimulator()
        first, second = _Slices(sim), _Slices(sim)
        sim.schedule_stream([1.0, 4.0, 6.0], first, list("abc"), [0] * 3)
        sim.run_until(2.0)
        sim.schedule_stream([4.0, 5.0], second, list("xy"), [0] * 2)
        assert len(sim._heap) == 2
        sim.run_until(10.0)
        assert first.offered == [["a"], ["b"], ["c"]]
        assert second.offered == [["x", "y"]]
        assert first.order + second.order == list("abcxy")
        assert sim.events_processed == 5 and sim.heap_pops == 2


class TestRunUntil:
    def test_stops_at_boundary(self):
        sim = EventSimulator()
        fired = []
        sim.schedule_at(1.0, fired.append, 1)
        sim.schedule_at(5.0, fired.append, 5)
        sim.run_until(3.0)
        assert fired == [1]
        assert sim.now == 3.0

    def test_inclusive_boundary(self):
        sim = EventSimulator()
        fired = []
        sim.schedule_at(3.0, fired.append, 3)
        sim.run_until(3.0)
        assert fired == [3]

    def test_advances_clock_when_drained(self):
        sim = EventSimulator()
        sim.run_until(100.0)
        assert sim.now == 100.0

    def test_step_returns_false_when_empty(self):
        assert EventSimulator().step() is False


class TestPropertyOrdering:
    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1,
                    max_size=60))
    def test_never_processes_out_of_order(self, times):
        sim = EventSimulator()
        processed = []
        for t in times:
            sim.schedule_at(t, lambda t=t: processed.append(sim.now))
        sim.run()
        assert processed == sorted(processed)
        assert sim.events_processed == len(times)

    @given(st.lists(st.tuples(st.floats(min_value=0, max_value=100),
                              st.booleans()), max_size=40))
    def test_cancellation_is_exact(self, spec):
        sim = EventSimulator()
        fired = []
        expected = []
        for i, (t, keep) in enumerate(spec):
            ev = sim.schedule_at(t, fired.append, i)
            if keep:
                expected.append((t, i))
            else:
                ev.cancel()
        sim.run()
        assert sorted(fired) == sorted(i for _, i in expected)
