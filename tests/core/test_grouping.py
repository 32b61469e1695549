"""Unit tests for the TG merge process (§IV.D.1)."""

import pytest

from repro.core import Backlog, GroupingAction, GroupingMode, merge_next_group
from repro.workload import Priority, Task


def task(tid, slack, arrival=0.0, size=5000.0, act=10.0):
    return Task(
        tid=tid,
        size_mi=size,
        arrival_time=arrival,
        act=act,
        deadline=arrival + act * (1 + slack),
    )


class TestBacklog:
    def test_maintains_edf_order(self):
        b = Backlog()
        b.add(task(1, slack=1.0))
        b.add(task(2, slack=0.1))
        b.add(task(3, slack=0.5))
        assert [t.tid for t in b] == [2, 3, 1]

    def test_peek_does_not_remove(self):
        b = Backlog()
        b.add(task(1, slack=0.5))
        assert len(b.peek_edf(1)) == 1
        assert len(b) == 1

    def test_take_removes_exact_tasks(self):
        b = Backlog()
        t1, t2 = task(1, 0.1), task(2, 0.5)
        b.add(t1)
        b.add(t2)
        b.take([t1])
        assert list(b) == [t2]

    def test_take_missing_raises(self):
        b = Backlog()
        with pytest.raises(ValueError):
            b.take([task(1, 0.5)])

    def test_by_priority_filters(self):
        b = Backlog()
        b.add(task(1, slack=0.05))  # high
        b.add(task(2, slack=0.5))   # medium
        b.add(task(3, slack=1.2))   # low
        assert [t.tid for t in b.by_priority(Priority.HIGH)] == [1]
        assert [t.tid for t in b.by_priority(Priority.LOW)] == [3]

    def test_oldest_arrival(self):
        b = Backlog()
        assert b.oldest_arrival is None
        b.add(task(1, 0.5, arrival=7.0))
        b.add(task(2, 0.5, arrival=3.0))
        assert b.oldest_arrival == 3.0

    def test_take_matches_by_identity(self):
        b = Backlog()
        t1 = task(1, 0.5)
        b.add(t1)
        twin = task(1, 0.5)
        assert twin == t1
        with pytest.raises(ValueError):
            b.take([twin])
        assert list(b) == [t1]

    def test_adding_a_pending_task_twice_raises(self):
        b = Backlog()
        t1 = task(1, 0.5)
        b.add(t1)
        with pytest.raises(ValueError):
            b.add(t1)
        assert len(b) == 1

    def test_arrival_heap_compacts_under_churn(self):
        """One long-lived task pins the heap top while others cycle: dead
        arrival records must be compacted, not accumulated."""
        b = Backlog()
        b.add(task(0, 0.5, arrival=0.0))
        peak = 0
        for i in range(1, 2001):
            batch = [task(i * 10 + j, 0.5, arrival=float(i)) for j in range(3)]
            for t in batch:
                b.add(t)
            peak = max(peak, len(b._arrivals) / len(b))
            b.take(batch)
            peak = max(peak, len(b._arrivals) / len(b))
        assert len(b) == 1
        assert peak <= 3
        assert b.oldest_arrival == 0.0


class TestMergeMixed:
    def test_takes_opnum_earliest_deadlines(self):
        b = Backlog()
        for i, slack in enumerate((1.0, 0.1, 0.5, 0.3)):
            b.add(task(i, slack))
        action = GroupingAction(GroupingMode.MIXED, 2)
        g = merge_next_group(b, action, now=0.0, allow_undersized=False)
        assert g is not None
        assert sorted(t.tid for t in g) == [1, 3]  # slack 0.1 and 0.3
        assert len(b) == 2

    def test_mixed_can_span_priorities(self):
        b = Backlog()
        b.add(task(1, slack=0.05))  # high
        b.add(task(2, slack=1.2))   # low
        action = GroupingAction(GroupingMode.MIXED, 2)
        g = merge_next_group(b, action, now=0.0, allow_undersized=False)
        assert g is not None and not g.is_identical_priority

    def test_undersized_blocked_without_flag(self):
        b = Backlog()
        b.add(task(1, 0.5))
        action = GroupingAction(GroupingMode.MIXED, 4)
        assert merge_next_group(b, action, 0.0, allow_undersized=False) is None
        assert len(b) == 1

    def test_undersized_allowed_with_flag(self):
        b = Backlog()
        b.add(task(1, 0.5))
        action = GroupingAction(GroupingMode.MIXED, 4)
        g = merge_next_group(b, action, 0.0, allow_undersized=True)
        assert g is not None and len(g) == 1
        assert len(b) == 0

    def test_empty_backlog_returns_none(self):
        action = GroupingAction(GroupingMode.MIXED, 2)
        assert merge_next_group(Backlog(), action, 0.0, True) is None


class TestMergeIdentical:
    def test_groups_most_urgent_class_first(self):
        b = Backlog()
        b.add(task(1, slack=1.2))   # low
        b.add(task(2, slack=0.05))  # high
        b.add(task(3, slack=0.1))   # high
        action = GroupingAction(GroupingMode.IDENTICAL, 2)
        g = merge_next_group(b, action, 0.0, allow_undersized=False)
        assert g is not None
        assert sorted(t.tid for t in g) == [2, 3]
        assert g.is_identical_priority
        assert g.priority is Priority.HIGH

    def test_single_class_group_even_when_undersized(self):
        b = Backlog()
        b.add(task(1, slack=0.05))  # high, only one
        b.add(task(2, slack=1.2))   # low
        action = GroupingAction(GroupingMode.IDENTICAL, 2)
        g = merge_next_group(b, action, 0.0, allow_undersized=True)
        assert g is not None
        assert [t.tid for t in g] == [1]

    def test_mode_recorded_on_group(self):
        b = Backlog()
        b.add(task(1, 0.5))
        action = GroupingAction(GroupingMode.IDENTICAL, 1)
        g = merge_next_group(b, action, 0.0, True)
        assert g is not None and g.mode == "identical"

    def test_tasks_within_group_edf_sorted(self):
        b = Backlog()
        b.add(task(1, slack=0.18))
        b.add(task(2, slack=0.02))
        action = GroupingAction(GroupingMode.IDENTICAL, 2)
        g = merge_next_group(b, action, 0.0, False)
        assert g is not None
        assert [t.tid for t in g.edf_order()] == [2, 1]
