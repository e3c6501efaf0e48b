"""Discrete-event loop."""

import pytest

from repro.netem.engine import EventLoop


class TestScheduling:
    def test_runs_in_time_order(self, loop):
        seen = []
        loop.call_at(2.0, lambda: seen.append("b"))
        loop.call_at(1.0, lambda: seen.append("a"))
        loop.call_at(3.0, lambda: seen.append("c"))
        loop.run()
        assert seen == ["a", "b", "c"]

    def test_fifo_for_equal_times(self, loop):
        seen = []
        for tag in range(5):
            loop.call_at(1.0, lambda t=tag: seen.append(t))
        loop.run()
        assert seen == [0, 1, 2, 3, 4]

    def test_clock_advances(self, loop):
        times = []
        loop.call_at(0.5, lambda: times.append(loop.now))
        loop.call_at(1.5, lambda: times.append(loop.now))
        loop.run()
        assert times == [0.5, 1.5]

    def test_call_later_relative(self, loop):
        seen = []
        loop.call_at(1.0, lambda: loop.call_later(0.5, lambda: seen.append(loop.now)))
        loop.run()
        assert seen == [1.5]

    def test_scheduling_in_past_raises(self, loop):
        loop.call_at(1.0, lambda: None)
        loop.run()
        with pytest.raises(ValueError):
            loop.call_at(0.5, lambda: None)

    def test_negative_delay_raises(self, loop):
        with pytest.raises(ValueError):
            loop.call_later(-0.1, lambda: None)

    def test_events_processed_counter(self, loop):
        for _ in range(4):
            loop.call_later(0.1, lambda: None)
        loop.run()
        assert loop.events_processed == 4


class TestCancellation:
    def test_cancelled_event_skipped(self, loop):
        seen = []
        handle = loop.call_at(1.0, lambda: seen.append("x"))
        handle.cancel()
        loop.run()
        assert seen == []

    def test_cancel_idempotent(self, loop):
        handle = loop.call_at(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        loop.run()

    def test_peek_skips_cancelled(self, loop):
        first = loop.call_at(1.0, lambda: None)
        loop.call_at(2.0, lambda: None)
        first.cancel()
        assert loop.peek_time() == 2.0

    def test_cancel_after_run_is_not_a_heap_entry(self, loop):
        """A handle whose callback already ran has left the heap, so
        cancelling it must not count a dead entry."""
        handle = loop.call_at(1.0, lambda: None)
        loop.run()
        handle.cancel()
        assert loop.pending_events == 0
        loop.call_at(2.0, lambda: None)
        assert loop.pending_events == 1

    def test_cancel_own_handle_inside_callback(self, loop):
        handles = []
        handles.append(loop.call_at(1.0, lambda: handles[0].cancel()))
        loop.call_at(2.0, lambda: None)
        loop.step()
        assert loop.pending_events == 1

    def test_ran_handles_do_not_trigger_compaction(self, loop):
        ran = [loop.call_at(1.0, lambda: None) for _ in range(100)]
        loop.run()
        live = [loop.call_at(2.0 + i, lambda: None) for i in range(10)]
        for handle in ran:
            handle.cancel()
        assert loop.pending_events == len(live)
        assert len(loop._heap) == len(live)
        loop.run()
        assert loop.events_processed == len(ran) + len(live)


class TestHeapCompaction:
    def test_cancelled_entries_compacted(self, loop):
        """A churn of cancel+re-arm (the transport RTO pattern) must not
        leave a graveyard of dead entries in the heap."""
        loop.call_at(500.0, lambda: None)  # one live anchor event
        for i in range(1000):
            handle = loop.call_at(1000.0 + i, lambda: None)
            handle.cancel()
        assert len(loop._heap) < 300  # compaction kicked in
        assert loop.pending_events == 1

    def test_ordering_preserved_across_compaction(self, loop):
        seen = []
        for tag in range(10):
            loop.call_at(1.0 + tag * 0.125, lambda t=tag: seen.append(t))
        cancelled = [loop.call_at(2.0 + i, lambda: seen.append("dead"))
                     for i in range(500)]
        for handle in cancelled:
            handle.cancel()
        # FIFO among equal timestamps must also survive compaction.
        for tag in range(5):
            loop.call_at(1.0, lambda t=tag: seen.append(("tie", t)))
        loop.run()
        expected = [0] + [("tie", t) for t in range(5)] + list(range(1, 10))
        assert seen == expected

    def test_cancel_after_compaction_is_safe(self, loop):
        handles = [loop.call_at(10.0 + i, lambda: None) for i in range(200)]
        for handle in handles:
            handle.cancel()
        for handle in handles:  # idempotent, even once evicted
            handle.cancel()
        loop.run()
        assert loop.events_processed == 0

    def test_processed_counter_ignores_cancelled(self, loop):
        live = [loop.call_at(1.0, lambda: None) for _ in range(3)]
        dead = [loop.call_at(2.0, lambda: None) for _ in range(3)]
        for handle in dead:
            handle.cancel()
        loop.run()
        assert loop.events_processed == len(live)


class TestRunModes:
    def test_run_until_stops_before_later_events(self, loop):
        seen = []
        loop.call_at(1.0, lambda: seen.append(1))
        loop.call_at(5.0, lambda: seen.append(5))
        loop.run(until=2.0)
        assert seen == [1]
        assert loop.now == 2.0

    def test_run_until_idle_or_predicate(self, loop):
        state = {"count": 0}

        def tick():
            state["count"] += 1
            loop.call_later(0.1, tick)

        loop.call_later(0.1, tick)
        done = loop.run_until_idle_or(lambda: state["count"] >= 3, until=10.0)
        assert done
        assert state["count"] == 3

    def test_run_until_idle_or_drains(self, loop):
        loop.call_at(1.0, lambda: None)
        done = loop.run_until_idle_or(lambda: False, until=10.0)
        assert not done

    def test_livelock_guard(self, loop):
        def forever():
            loop.call_later(0.0001, forever)

        loop.call_later(0.0001, forever)
        with pytest.raises(RuntimeError):
            loop.run(max_events=1000)

    def test_step_returns_false_when_empty(self, loop):
        assert loop.step() is False
