"""The adaptive task-grouping (TG) merge process (paper §IV.D.1).

The merge process turns a backlog of pending tasks into
:class:`~repro.cluster.taskgroup.TaskGroup` bundles according to the
current grouping action:

- **mixed-priority**: the ``opnum`` earliest-deadline tasks form a group,
  regardless of priority ("tasks with different priorities are mixed and
  merged into the same group … sorted by their deadline");
- **identical-priority**: tasks are partitioned by priority class and the
  ``opnum`` earliest-deadline tasks of the most urgent non-empty class
  form a group ("tasks are grouped separately according to their
  priorities … still applies EDF").

The split process (§IV.D.2) is platform-level — idle processors steal
EDF-ordered tasks from the group at the head of the node queue — and is
implemented by :class:`~repro.cluster.node.ComputeNode`.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from heapq import heapify, heappop, heappush, merge
from itertools import islice
from typing import Iterable, Iterator, Optional

from ..cluster.taskgroup import TaskGroup
from ..workload.priorities import Priority
from ..workload.task import Task
from .actions import GroupingAction, GroupingMode

__all__ = ["Backlog", "merge_next_group"]


class Backlog:
    """Pending tasks awaiting grouping, kept in EDF order.

    Layout (costs in ``docs/architecture.md``, "The agent backlog"):

    - one sorted list per priority class of ``(deadline, seq, task)``
      entries, where ``seq`` counts insertions, so equal deadlines stay
      in insertion order and the global EDF order is a k-way merge of
      the class lists;
    - ``id(task) -> (class list, entry, arrival record)``, so ``take``
      removes by identity with a bisect instead of an equality scan;
    - a min-heap of ``[arrival_time, seq, live]`` records for
      :attr:`oldest_arrival`.  Removed tasks are only marked dead and
      popped when they reach the top; the heap is rebuilt once dead
      records outnumber live ones.  Arrivals are *not* FIFO: crash
      resubmission re-adds tasks with their original arrival times.
    """

    def __init__(self) -> None:
        self._classes: tuple[list, ...] = tuple([] for _ in Priority)
        self._where: dict[int, tuple[list, tuple, list]] = {}
        self._arrivals: list[list] = []
        self._dead = 0
        self._seq = 0

    def add(self, task: Task) -> None:
        """Insert *task*, preserving EDF order (ties: insertion order)."""
        if id(task) in self._where:
            raise ValueError(f"task {task.tid} is already in the backlog")
        seq = self._seq
        self._seq = seq + 1
        klass = self._classes[task.priority]
        entry = (float(task.deadline), seq, task)
        insort(klass, entry)
        arrival = [task.arrival_time, seq, True]
        heappush(self._arrivals, arrival)
        self._where[id(task)] = (klass, entry, arrival)

    def __len__(self) -> int:
        return len(self._where)

    def __iter__(self) -> Iterator[Task]:
        return iter([entry[2] for entry in merge(*self._classes)])

    @property
    def oldest_arrival(self) -> Optional[float]:
        """Earliest arrival time among pending tasks (None when empty)."""
        if not self._where:
            return None
        heap = self._arrivals
        while not heap[0][2]:
            heappop(heap)
            self._dead -= 1
        return heap[0][0]

    def peek_edf(self, k: int) -> list[Task]:
        """The *k* earliest-deadline tasks without removing them."""
        heads = [klass[:k] for klass in self._classes if klass]
        if len(heads) == 1:
            return [entry[2] for entry in heads[0]]
        return [entry[2] for entry in islice(merge(*heads), k)]

    def take(self, tasks: Iterable[Task]) -> None:
        """Remove *tasks* (matched by identity) from the backlog.

        Raises ValueError at the first task that is not present; the
        tasks before it stay removed.
        """
        where = self._where
        for task in tasks:
            try:
                klass, entry, arrival = where.pop(id(task))
            except KeyError:
                raise ValueError(f"{task!r} is not in the backlog") from None
            del klass[bisect_left(klass, entry)]
            arrival[2] = False
            self._dead += 1
        if not where:
            self._arrivals.clear()
            self._dead = 0
        elif self._dead > len(where):
            self._arrivals = [a for a in self._arrivals if a[2]]
            heapify(self._arrivals)
            self._dead = 0

    def by_priority(self, priority: Priority) -> list[Task]:
        """Pending tasks of one priority class, EDF-ordered."""
        return [entry[2] for entry in self._classes[priority]]


def merge_next_group(
    backlog: Backlog,
    action: GroupingAction,
    now: float,
    allow_undersized: bool,
) -> Optional[TaskGroup]:
    """Form (and remove from *backlog*) the next task group, if any.

    Parameters
    ----------
    backlog:
        Pending tasks; selected tasks are removed.
    action:
        Current grouping action (mode + target ``opnum``).
    now:
        Current simulated time (frozen into the group's ``pw``).
    allow_undersized:
        When True, a group smaller than ``opnum`` may be formed (used
        when processors are idle or the backlog has aged); when False,
        only full groups are released.

    Returns
    -------
    The merged group, or ``None`` if no admissible group exists.
    """
    if len(backlog) == 0:
        return None

    if action.mode == GroupingMode.MIXED:
        candidates = backlog.peek_edf(action.opnum)
    else:
        candidates = []
        # Class lists are indexed by Priority: HIGH first, most urgent
        # class first.  Read only the head a group can use.
        for klass in backlog._classes:
            if klass:
                candidates = [entry[2] for entry in klass[: action.opnum]]
                break

    if not candidates:
        return None
    if len(candidates) < action.opnum and not allow_undersized:
        return None

    backlog.take(candidates)
    return TaskGroup(candidates, created_at=now, mode=action.mode)
