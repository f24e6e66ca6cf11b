"""Unit tests for the batch coalescer (no service, no executor).

The coalescer is pure arrival-clock bookkeeping: these tests pin the
flush triggers (eager full, deadline), the whole-group release, the
deterministic ordering of simultaneous flushes, and the drain semantics.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ServingError
from repro.serving import (
    BatchCoalescer,
    CoalescePolicy,
    PendingEntry,
    ServeRequest,
)
from repro.serving.scheduler import FLUSH_REASONS


def _entry(key, arrival, *, target="city", max_wait=2.0, request_id=None):
    identifier = request_id if request_id is not None else int(arrival * 100)
    return PendingEntry(
        key=key,
        instance=None,  # the coalescer never touches the instance
        target=target,
        arrival_s=arrival,
        deadline_s=arrival + max_wait,
        waiters=[ServeRequest(identifier, "tenant", arrival, None)],
    )


class TestPolicy:
    def test_validation(self):
        with pytest.raises(ServingError):
            CoalescePolicy(max_batch=0)
        with pytest.raises(ServingError):
            CoalescePolicy(max_wait_s=-0.1)
        with pytest.raises(ServingError):
            CoalescePolicy(mode="bogus")

    def test_defaults(self):
        policy = CoalescePolicy()
        assert policy.max_batch == 8
        assert policy.max_wait_s == 2.0
        assert policy.mode == "window"


class TestEagerMode:
    def test_flushes_the_moment_a_group_fills(self):
        coalescer = BatchCoalescer(CoalescePolicy(max_batch=3, mode="eager"))
        first = _entry("k1", 0.0)
        second = _entry("k2", 0.5)
        assert coalescer.add(first) is None
        assert coalescer.add(second) is None
        assert coalescer.n_pending == 2

        third = _entry("k3", 1.0)
        flush = coalescer.add(third)
        assert flush is not None
        assert flush.reason == "full"
        assert flush.reason in FLUSH_REASONS
        assert flush.at == 1.0  # the arrival that filled the group
        assert flush.entries == (first, second, third)
        assert coalescer.n_pending == 0

    def test_groups_fill_per_target(self):
        coalescer = BatchCoalescer(CoalescePolicy(max_batch=2, mode="eager"))
        assert coalescer.add(_entry("k1", 0.0, target="city")) is None
        assert coalescer.add(_entry("k2", 0.1, target="income")) is None
        flush = coalescer.add(_entry("k3", 0.2, target="city"))
        assert flush is not None
        assert flush.target == "city"
        assert coalescer.n_pending == 1  # the income entry still waits


class TestWindowMode:
    def test_add_never_flushes_even_past_max_batch(self):
        coalescer = BatchCoalescer(CoalescePolicy(max_batch=2, mode="window"))
        for index in range(5):
            assert coalescer.add(_entry(f"k{index}", index * 0.1)) is None
        assert coalescer.n_pending == 5

    def test_due_respects_the_oldest_deadline(self):
        coalescer = BatchCoalescer(CoalescePolicy(max_wait_s=2.0))
        oldest = _entry("k1", 1.0)   # deadline 3.0
        younger = _entry("k2", 2.5)  # deadline 4.5
        coalescer.add(oldest)
        coalescer.add(younger)
        assert coalescer.due(2.9) == []

        [flush] = coalescer.due(3.0)
        assert flush.reason == "deadline"
        assert flush.at == 3.0  # the oldest deadline, not `now`
        # the whole group releases: the younger entry never waits alone
        assert flush.entries == (oldest, younger)
        assert coalescer.n_pending == 0

    def test_simultaneous_deadlines_order_by_first_request_id(self):
        coalescer = BatchCoalescer(CoalescePolicy(max_wait_s=1.0))
        coalescer.add(_entry("k1", 0.0, target="b", request_id=7))
        coalescer.add(_entry("k2", 0.0, target="a", request_id=3))
        first, second = coalescer.due(10.0)
        assert first.target == "a"   # request 3 beats request 7
        assert second.target == "b"

    def test_distinct_deadlines_order_by_deadline(self):
        coalescer = BatchCoalescer(CoalescePolicy(max_wait_s=1.0))
        coalescer.add(_entry("k1", 5.0, target="late", max_wait=1.0))
        coalescer.add(_entry("k2", 1.0, target="early", max_wait=1.0))
        first, second = coalescer.due(10.0)
        assert [first.target, second.target] == ["early", "late"]
        assert [first.at, second.at] == [2.0, 6.0]


class TestDrain:
    def test_drain_releases_everything_in_deadline_order(self):
        coalescer = BatchCoalescer(CoalescePolicy(max_wait_s=1.0))
        coalescer.add(_entry("k1", 3.0, target="b"))
        coalescer.add(_entry("k2", 0.0, target="a"))
        coalescer.add(_entry("k3", 0.5, target="a"))
        flushes = coalescer.drain()
        assert [f.target for f in flushes] == ["a", "b"]
        assert all(f.reason == "deadline" for f in flushes)
        assert coalescer.n_pending == 0
        assert coalescer.drain() == []


def test_tie_break_without_waiters_is_sentinel():
    entry = _entry("k", 0.0)
    entry.waiters.clear()
    assert entry.tie_break == -1


#: one step of a coalescer workload: start a question (target, arrival,
#: max wait), ask what is due at a time, or drain
_STEPS = st.one_of(
    st.tuples(
        st.just("add"),
        st.sampled_from(["a", "b", "c", None]),
        st.integers(0, 12),
        st.integers(0, 4),
    ),
    st.tuples(st.just("due"), st.integers(0, 20)),
    st.tuples(st.just("drain")),
)


@settings(max_examples=150, deadline=None)
@given(
    mode=st.sampled_from(["eager", "window"]),
    max_batch=st.integers(1, 4),
    steps=st.lists(_STEPS, max_size=40),
)
def test_due_matches_a_model_of_every_group(mode, max_batch, steps):
    """Against a plain model of the groups, ``due(now)`` releases exactly
    the groups whose head deadline is <= ``now``, whole, in (deadline,
    first request id) order — whatever the deadline watermark skipped."""
    coalescer = BatchCoalescer(CoalescePolicy(max_batch=max_batch, mode=mode))
    model: dict = {}  # target -> entries, in arrival order
    next_id = 0

    def release(target):
        entries = tuple(model.pop(target))
        return (entries[0].deadline_s, target, entries)

    def seen(flushes):
        return [(f.at, f.target, f.entries) for f in flushes]

    for step in steps:
        if step[0] == "add":
            __, target, arrival, wait = step
            entry = _entry(
                f"k{next_id}", float(arrival), target=target,
                max_wait=float(wait), request_id=next_id,
            )
            next_id += 1
            model.setdefault(target, []).append(entry)
            flush = coalescer.add(entry)
            if mode == "eager" and len(model[target]) >= max_batch:
                assert flush is not None and flush.reason == "full"
                assert (flush.target, flush.entries) == (
                    target, tuple(model.pop(target))
                )
                assert flush.at == entry.arrival_s
            else:
                assert flush is None
        elif step[0] == "due":
            now = float(step[1])
            ripe = sorted(
                (group[0].deadline_s, group[0].tie_break, target)
                for target, group in model.items()
                if group[0].deadline_s <= now
            )
            flushes = coalescer.due(now)
            assert all(f.reason == "deadline" for f in flushes)
            assert seen(flushes) == [release(t) for __, __, t in ripe]
        else:
            order = sorted(
                (group[0].deadline_s, group[0].tie_break, target)
                for target, group in model.items()
            )
            assert seen(coalescer.drain()) == [
                release(t) for __, __, t in order
            ]
        assert coalescer.n_pending == sum(len(g) for g in model.values())

