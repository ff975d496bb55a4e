"""Virtual clock and discrete-event engine."""

import pytest

from repro.errors import SocError
from repro.soc.clock import ClockDomain, VirtualClock
from repro.units import MS, US
from tests.gpu.hwutil import poll_until


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now() == 0

    def test_advance_moves_time(self):
        clock = VirtualClock()
        clock.advance(100)
        clock.advance(50)
        assert clock.now() == 150

    def test_advance_negative_rejected(self):
        with pytest.raises(SocError):
            VirtualClock().advance(-1)

    def test_schedule_fires_at_due_time(self):
        clock = VirtualClock()
        seen = []
        clock.schedule(100, lambda: seen.append(clock.now()))
        clock.advance(99)
        assert seen == []
        clock.advance(1)
        assert seen == [100]

    def test_events_fire_in_due_order(self):
        clock = VirtualClock()
        order = []
        clock.schedule(300, lambda: order.append("c"))
        clock.schedule(100, lambda: order.append("a"))
        clock.schedule(200, lambda: order.append("b"))
        clock.advance(400)
        assert order == ["a", "b", "c"]

    def test_same_due_time_fires_in_schedule_order(self):
        clock = VirtualClock()
        order = []
        clock.schedule(100, lambda: order.append(1))
        clock.schedule(100, lambda: order.append(2))
        clock.advance(100)
        assert order == [1, 2]

    def test_callback_sees_due_time_as_now(self):
        clock = VirtualClock()
        seen = []
        clock.schedule(70, lambda: seen.append(clock.now()))
        clock.advance(500)
        assert seen == [70]
        assert clock.now() == 500

    def test_cancelled_event_does_not_fire(self):
        clock = VirtualClock()
        seen = []
        handle = clock.schedule(10, lambda: seen.append(1))
        handle.cancel()
        clock.advance(100)
        assert seen == []
        assert handle.cancelled

    def test_callback_may_schedule_more_events(self):
        clock = VirtualClock()
        seen = []

        def first():
            seen.append("first")
            clock.schedule(50, lambda: seen.append("second"))

        clock.schedule(100, first)
        clock.advance(200)
        assert seen == ["first", "second"]

    def test_callback_advancing_clock_keeps_monotonicity(self):
        clock = VirtualClock()

        def cb():
            clock.advance(500)  # e.g. an IRQ handler doing CPU work

        clock.schedule(100, cb)
        clock.advance(150)
        assert clock.now() >= 600

    def test_next_event_ns(self):
        clock = VirtualClock()
        assert clock.next_event_ns() is None
        clock.schedule(42, lambda: None)
        assert clock.next_event_ns() == 42

    def test_advance_to_next_event(self):
        clock = VirtualClock()
        seen = []
        clock.schedule(1000, lambda: seen.append(1))
        assert clock.advance_to_next_event() is True
        assert clock.now() == 1000
        assert seen == [1]

    def test_advance_to_next_event_respects_limit(self):
        clock = VirtualClock()
        clock.schedule(1000, lambda: None)
        assert clock.advance_to_next_event(limit_ns=500) is False
        assert clock.now() == 500

    def test_advance_to_next_event_without_events(self):
        clock = VirtualClock()
        assert clock.advance_to_next_event(limit_ns=100) is False
        assert clock.now() == 100

    def test_pending_count_skips_cancelled(self):
        clock = VirtualClock()
        h1 = clock.schedule(10, lambda: None)
        clock.schedule(20, lambda: None)
        h1.cancel()
        assert clock.pending_count() == 1

    def test_schedule_in_past_rejected(self):
        with pytest.raises(SocError):
            VirtualClock().schedule(-5, lambda: None)


class TestClockDomain:
    def test_cycles_to_ns(self):
        clock = VirtualClock()
        domain = ClockDomain("gpu", 1_000_000_000, clock)  # 1 GHz
        assert domain.cycles_to_ns(1000) == 1000

    def test_rate_change_slows_conversion(self):
        clock = VirtualClock()
        domain = ClockDomain("gpu", 1_000_000_000, clock)
        domain.set_rate(500_000_000)
        assert domain.cycles_to_ns(1000) == 2000

    def test_stabilization_window(self):
        clock = VirtualClock()
        domain = ClockDomain("gpu", 100_000_000, clock,
                             stabilize_ns=1 * MS)
        assert domain.is_stable()
        domain.set_rate(200_000_000)
        assert not domain.is_stable()
        clock.advance(1 * MS)
        assert domain.is_stable()

    def test_zero_rate_rejected(self):
        clock = VirtualClock()
        with pytest.raises(SocError):
            ClockDomain("bad", 0, clock)
        domain = ClockDomain("gpu", 100, clock)
        with pytest.raises(SocError):
            domain.set_rate(0)


class TestPollUntil:
    def test_immediate_success_one_poll(self):
        clock = VirtualClock()
        ok, polls = poll_until(clock, lambda: True, 10 * US, 1 * MS)
        assert ok and polls == 1
        assert clock.now() == 0

    def test_polls_until_event_sets_condition(self):
        clock = VirtualClock()
        flag = []
        clock.schedule(95 * US, lambda: flag.append(1))
        ok, polls = poll_until(clock, lambda: bool(flag), 10 * US, 1 * MS)
        assert ok
        assert polls == 11  # 0, 10, ..., 100 us

    def test_timeout(self):
        clock = VirtualClock()
        ok, _polls = poll_until(clock, lambda: False, 10 * US, 200 * US)
        assert not ok
        assert clock.now() == 200 * US
