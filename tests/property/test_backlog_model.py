"""The indexed :class:`~repro.core.Backlog` against its sorted-list model.

Random sequences of ``add`` / ``take`` / reads drive both the indexed
backlog and :class:`~tests.property.backlog_model.ListBacklog` (the
original one-list implementation) and require identical results after
every step: the same task objects in the same order from ``iter``,
``peek_edf`` and ``by_priority``, the same ``oldest_arrival`` and
``len``.  Deadlines and arrivals come from small grids so ties are
common, taken tasks are re-added with their original arrival times (as
crash resubmission does), and takes of missing tasks must raise
``ValueError`` in both after removing the same prefix.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core import Backlog
from repro.workload import Priority, Task

from .backlog_model import ListBacklog

times = st.integers(min_value=0, max_value=6).map(float)


class BacklogVersusModel(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.backlog = Backlog()
        self.model = ListBacklog()
        self.present: list[Task] = []
        self.absent: list[Task] = []
        self.next_tid = 0

    def _new_task(self, arrival: float, window: float, priority) -> Task:
        tid = self.next_tid
        self.next_tid += 1
        return Task(
            tid=tid,
            size_mi=1000.0,
            arrival_time=arrival,
            act=1.0,
            deadline=arrival + window,
            priority=priority,
        )

    def _add(self, task: Task) -> None:
        self.backlog.add(task)
        self.model.add(task)
        self.present.append(task)

    @rule(arrival=times, window=times, priority=st.sampled_from(Priority))
    def add_new(self, arrival, window, priority):
        self._add(self._new_task(arrival, window, priority))

    @rule(data=st.data())
    def resubmit(self, data):
        """Re-add a taken task: its arrival may predate every pending one."""
        if not self.absent:
            return
        task = self.absent.pop(data.draw(st.integers(0, len(self.absent) - 1)))
        self._add(task)

    @rule(data=st.data())
    def take_subset(self, data):
        if not self.present:
            return
        chosen = data.draw(
            st.lists(
                st.sampled_from(self.present), unique_by=id, max_size=6
            )
        )
        self.backlog.take(chosen)
        self.model.take(chosen)
        self._mark_taken(chosen)

    @rule(data=st.data(), fresh=st.booleans())
    def take_with_missing(self, data, fresh):
        """A missing task raises after the tasks before it are removed."""
        if fresh or not self.absent:
            missing = self._new_task(0.0, 1.0, Priority.HIGH)
        else:
            missing = data.draw(st.sampled_from(self.absent))
        prefix = []
        if self.present:
            prefix = data.draw(
                st.lists(
                    st.sampled_from(self.present), unique_by=id, max_size=3
                )
            )
        batch = prefix + [missing]
        with pytest.raises(ValueError):
            self.backlog.take(batch)
        with pytest.raises(ValueError):
            self.model.take(batch)
        self._mark_taken(prefix)

    def _mark_taken(self, tasks) -> None:
        for task in tasks:
            self.present.remove(task)
            self.absent.append(task)

    @rule(k=st.integers(min_value=0, max_value=8))
    def peek(self, k):
        assert _ids(self.backlog.peek_edf(k)) == _ids(self.model.peek_edf(k))

    @rule(priority=st.sampled_from(Priority))
    def by_priority(self, priority):
        got = self.backlog.by_priority(priority)
        assert _ids(got) == _ids(self.model.by_priority(priority))

    @invariant()
    def same_state(self):
        assert len(self.backlog) == len(self.model) == len(self.present)
        assert _ids(self.backlog) == _ids(self.model)
        assert self.backlog.oldest_arrival == self.model.oldest_arrival


def _ids(tasks) -> list[int]:
    return [id(t) for t in tasks]


BacklogVersusModel.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)
TestBacklogVersusModel = BacklogVersusModel.TestCase
