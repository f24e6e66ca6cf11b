"""Tests for repro.llm.ratelimit."""

import pytest

from repro.errors import RateLimitError
from repro.llm.ratelimit import LaneClock, RateLimit, RateLimiter


class TestLaneClock:
    def test_needs_a_lane(self):
        with pytest.raises(ValueError):
            LaneClock(0)

    def test_occupy_advances_one_lane(self):
        clock = LaneClock(2)
        finished = clock.occupy(0, 0.0, 10.0)
        assert finished == 10.0
        assert clock.available_at(0) == 10.0
        assert clock.available_at(1) == 0.0
        assert clock.makespan == 10.0
        assert clock.min_available == 0.0

    def test_earliest_lane_ties_break_low(self):
        clock = LaneClock(3)
        assert clock.earliest_lane() == 0
        clock.occupy(0, 0.0, 5.0)
        assert clock.earliest_lane() == 1

    def test_earliest_lane_honors_floors(self):
        clock = LaneClock(2)
        clock.occupy(0, 0.0, 5.0)
        # Lane 1 is free but held closed until t=100 (e.g. a breaker).
        assert clock.earliest_lane(not_before=[0.0, 100.0]) == 0

    def test_no_time_travel(self):
        clock = LaneClock(1)
        clock.occupy(0, 0.0, 10.0)
        with pytest.raises(ValueError):
            clock.occupy(0, 5.0, 1.0)
        with pytest.raises(ValueError):
            clock.occupy(0, 20.0, -1.0)

    def test_idle_gap_not_busy(self):
        clock = LaneClock(1)
        clock.occupy(0, 50.0, 10.0)
        assert clock.busy_seconds(0) == 10.0
        assert clock.makespan == 60.0
        assert clock.utilization(0) == pytest.approx(10.0 / 60.0)

    def test_idle_until_never_rewinds(self):
        clock = LaneClock(1)
        clock.occupy(0, 0.0, 10.0)
        clock.idle_until(0, 5.0)
        assert clock.available_at(0) == 10.0
        clock.idle_until(0, 30.0)
        assert clock.available_at(0) == 30.0


class TestRateLimiter:
    def test_request_budget(self):
        limiter = RateLimiter(RateLimit(2, 10_000))
        limiter.check(10, now=0.0)
        limiter.check(10, now=0.0)
        with pytest.raises(RateLimitError):
            limiter.check(10, now=0.0)

    def test_token_budget(self):
        limiter = RateLimiter(RateLimit(100, 50))
        limiter.check(40, now=0.0)
        with pytest.raises(RateLimitError):
            limiter.check(40, now=0.0)

    def test_window_slides(self):
        limiter = RateLimiter(RateLimit(1, 10_000))
        limiter.check(1, now=0.0)
        limiter.check(1, now=61.0)  # old event expired

    def test_validation(self):
        with pytest.raises(ValueError):
            RateLimit(0, 10)

    def test_explicit_now_without_clock(self):
        limiter = RateLimiter(RateLimit(1, 10_000))
        limiter.check(1, now=0.0)
        with pytest.raises(RateLimitError):
            limiter.check(1, now=30.0)
        limiter.check(1, now=61.0)

    def test_budget_shared_across_lane_times(self):
        # Two lanes at different virtual times share one window: the
        # budget is per account, not per lane.
        limiter = RateLimiter(RateLimit(2, 10_000))
        limiter.check(1, now=0.0)    # lane A
        limiter.check(1, now=10.0)   # lane B
        with pytest.raises(RateLimitError) as excinfo:
            limiter.check(1, now=20.0)  # either lane: window holds 2
        # Window clears when the oldest event expires at t=60.
        assert excinfo.value.retry_after == pytest.approx(40.0)

    def test_future_events_invisible_to_lagging_lane(self):
        limiter = RateLimiter(RateLimit(1, 10_000))
        limiter.check(1, now=100.0)  # a lane far ahead
        # A lagging lane checks at t=20; the t=100 event is in its future.
        limiter.check(1, now=20.0, floor=20.0)

    def test_floor_preserves_events_for_lagging_lanes(self):
        limiter = RateLimiter(RateLimit(1, 10_000))
        limiter.check(1, now=10.0)
        # A lane far ahead checks (and would prune t<=40 without a floor).
        limiter.check(1, now=100.0, floor=15.0)
        # The lagging lane still sees the t=10 event in its window.
        with pytest.raises(RateLimitError):
            limiter.check(1, now=20.0, floor=15.0)
