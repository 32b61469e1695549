"""Reference model of :class:`repro.core.Backlog`: one EDF-sorted list.

This is the original sorted-list implementation, kept only as a test
oracle for the indexed backlog: insertion scans for the first strictly
later deadline (so equal deadlines stay in insertion order), ``take``
uses ``list.remove``, and ``oldest_arrival`` is a full ``min()``.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.workload.priorities import Priority
from repro.workload.task import Task


class ListBacklog:
    """Pending tasks in one list, kept in EDF order."""

    def __init__(self) -> None:
        self._tasks: list[Task] = []

    def add(self, task: Task) -> None:
        deadline = task.deadline
        for i, existing in enumerate(self._tasks):
            if deadline < existing.deadline:
                self._tasks.insert(i, task)
                return
        self._tasks.append(task)

    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self):
        return iter(self._tasks)

    @property
    def oldest_arrival(self) -> Optional[float]:
        if not self._tasks:
            return None
        return min(t.arrival_time for t in self._tasks)

    def peek_edf(self, k: int) -> list[Task]:
        return self._tasks[:k]

    def take(self, tasks: Iterable[Task]) -> None:
        for t in tasks:
            self._tasks.remove(t)

    def by_priority(self, priority: Priority) -> list[Task]:
        return [t for t in self._tasks if t.priority == priority]
