"""The task model ``Ti = {si, di}`` (paper §III.A, Eq. 1).

A :class:`Task` carries its immutable specification (size, arrival time,
deadline, priority) plus a mutable execution record filled in by the
simulator (start/finish times, the processor that ran it).

Since the struct-of-arrays refactor a task owns no fields: it is a
2-slot ``(store, row)`` view over a :class:`~repro.workload.taskstore.
TaskStore`, whose columns hold one field across many tasks.  The
constructor still builds a standalone task (allocating a row in a
module-level scratch store), the bulk paths (workload generator, trace
replay) fill whole columns at once, and every property, method, and
error message below is unchanged from the per-object implementation.
"""

from __future__ import annotations

from typing import Optional

from .priorities import Priority, classify_slack
from .taskstore import TaskStore

__all__ = ["Task"]

#: Backing store for standalone ``Task(...)`` constructions.  Bulk
#: producers (the workload generator) use their own per-run stores; this
#: one only grows with tasks built one at a time (tests, trace replay,
#: journal recovery).
_SCRATCH = TaskStore()

#: NaN marker used by the execution-record columns ("not yet").
_NAN = float("nan")

#: Priority members by stored code.  Read on every backlog insertion; a
#: dict hit is ~8x cheaper than the enum call, which stays the fallback
#: so an invalid code still raises the enum's ValueError.
_PRIORITY_BY_CODE = {int(p): p for p in Priority}


class Task:
    """A single independent, compute-intensive task.

    Parameters
    ----------
    tid:
        Unique task id.
    size_mi:
        Computational size ``si`` in millions of instructions (MI).
    arrival_time:
        Simulated time at which the task enters the system.
    act:
        Expected execution time on the reference (slowest) resource:
        ``ACTi = si / sp_slowest``.
    deadline:
        Absolute completion deadline ``arrival_time + ACTi + add_t``.
    priority:
        Optional explicit :class:`Priority`; derived from the deadline
        slack when omitted.
    """

    __slots__ = ("_store", "_row")

    def __init__(
        self,
        tid: int,
        size_mi: float,
        arrival_time: float,
        act: float,
        deadline: float,
        priority: Optional[Priority] = None,
        start_time: Optional[float] = None,
        finish_time: Optional[float] = None,
        processor_id: Optional[str] = None,
        site_id: Optional[str] = None,
    ) -> None:
        if size_mi <= 0:
            raise ValueError(f"task {tid}: size must be positive")
        if act <= 0:
            raise ValueError(f"task {tid}: ACT must be positive")
        if deadline < arrival_time:
            raise ValueError(f"task {tid}: deadline precedes arrival")
        if priority is None:
            priority = classify_slack(((deadline - arrival_time) - act) / act)
        store = _SCRATCH
        row = store.append(
            tid, size_mi, arrival_time, act, deadline, int(priority)
        )
        self._store = store
        self._row = row
        if start_time is not None or finish_time is not None:
            with store.lock:
                if start_time is not None:
                    store.start_time.data[row] = start_time
                    store.processor_ids[row] = processor_id
                    store.site_ids[row] = site_id
                if finish_time is not None:
                    store.finish_time.data[row] = finish_time

    @classmethod
    def _view(cls, store: TaskStore, row: int) -> "Task":
        """Wrap an existing store row (bulk construction path)."""
        task = cls.__new__(cls)
        task._store = store
        task._row = row
        return task

    # -- spec fields (columnar reads) ------------------------------------
    @property
    def tid(self) -> int:
        return self._store.tids[self._row]

    @property
    def size_mi(self) -> float:
        return self._store.size_mi.data[self._row]

    @property
    def arrival_time(self) -> float:
        return self._store.arrival_time.data[self._row]

    @property
    def act(self) -> float:
        return self._store.act.data[self._row]

    @property
    def deadline(self) -> float:
        return self._store.deadline.data[self._row]

    @property
    def priority(self) -> Priority:
        code = self._store.prio_code.data[self._row]
        priority = _PRIORITY_BY_CODE.get(code)
        return Priority(int(code)) if priority is None else priority

    # -- derived spec properties ----------------------------------------
    @property
    def relative_deadline(self) -> float:
        """Time from arrival to deadline (``ACT + add_t``)."""
        return self.deadline - self.arrival_time

    @property
    def slack_fraction(self) -> float:
        """``add_t / ACT`` — deadline slack as a fraction of ``ACT``."""
        return (self.relative_deadline - self.act) / self.act

    def execution_time_on(self, speed_mips: float) -> float:
        """Execution time ``ET(i, c) = si / spj`` on a processor (Eq. 3)."""
        if speed_mips <= 0:
            raise ValueError("processor speed must be positive")
        return self.size_mi / speed_mips

    # -- execution-record properties --------------------------------------
    @property
    def start_time(self) -> Optional[float]:
        v = self._store.start_time.data[self._row]
        return None if v != v else v

    @property
    def finish_time(self) -> Optional[float]:
        v = self._store.finish_time.data[self._row]
        return None if v != v else v

    @property
    def processor_id(self) -> Optional[str]:
        return self._store.processor_ids[self._row]

    @property
    def site_id(self) -> Optional[str]:
        return self._store.site_ids[self._row]

    @site_id.setter
    def site_id(self, value: Optional[str]) -> None:
        # Schedulers tag the chosen site before dispatch.  A list cell
        # write is atomic and stable across growth — no lock needed.
        self._store.site_ids[self._row] = value

    @property
    def completed(self) -> bool:
        """True once the task has finished executing."""
        v = self._store.finish_time.data[self._row]
        return bool(v == v)

    @property
    def waiting_time(self) -> float:
        """Queueing delay from arrival to execution start."""
        start = self._store.start_time.data[self._row]
        if start != start:
            raise ValueError(f"task {self.tid} has not started")
        return start - self._store.arrival_time.data[self._row]

    @property
    def response_time(self) -> float:
        """Total time in system: waiting time plus execution time."""
        finish = self._store.finish_time.data[self._row]
        if finish != finish:
            raise ValueError(f"task {self.tid} has not finished")
        return finish - self._store.arrival_time.data[self._row]

    @property
    def met_deadline(self) -> bool:
        """True if the task finished at or before its deadline (Eq. 8)."""
        finish = self._store.finish_time.data[self._row]
        if finish != finish:
            raise ValueError(f"task {self.tid} has not finished")
        return bool(finish <= self._store.deadline.data[self._row])

    def mark_started(self, time: float, processor_id: str, site_id: str) -> None:
        """Record execution start (simulator hook)."""
        store, row = self._store, self._row
        start = store.start_time.data[row]
        if start == start:
            raise RuntimeError(f"task {self.tid} started twice")
        if time < store.arrival_time.data[row]:
            raise ValueError(f"task {self.tid} started before arrival")
        with store.lock:  # vs. concurrent column growth
            store.start_time.data[row] = time
            store.processor_ids[row] = processor_id
            store.site_ids[row] = site_id

    def reset_execution(self) -> None:
        """Clear the execution record so the task can run again.

        Used by failure injection: a node crash abandons its in-flight
        tasks, which are then resubmitted.  A completed task cannot be
        reset.  Idempotent on never-started tasks.
        """
        store, row = self._store, self._row
        finish = store.finish_time.data[row]
        if finish == finish:
            raise RuntimeError(f"task {self.tid} already completed")
        with store.lock:  # vs. concurrent column growth
            store.start_time.data[row] = _NAN
            store.processor_ids[row] = None
            store.site_ids[row] = None

    def mark_finished(self, time: float) -> None:
        """Record execution completion (simulator hook)."""
        store, row = self._store, self._row
        start = store.start_time.data[row]
        if start != start:
            raise RuntimeError(f"task {self.tid} finished without starting")
        finish = store.finish_time.data[row]
        if finish == finish:
            raise RuntimeError(f"task {self.tid} finished twice")
        if time < start:
            raise ValueError(f"task {self.tid} finished before it started")
        with store.lock:  # vs. concurrent column growth
            store.finish_time.data[row] = time

    # -- value semantics (dataclass parity) -------------------------------
    def __eq__(self, other: object) -> bool:
        """Spec-field equality, matching the pre-refactor dataclass
        (execution-record fields never compared)."""
        if other.__class__ is not Task:
            return NotImplemented
        return bool(
            self.tid == other.tid
            and self.size_mi == other.size_mi
            and self.arrival_time == other.arrival_time
            and self.act == other.act
            and self.deadline == other.deadline
            and self.priority == other.priority
        )

    __hash__ = None  # mutable value type, like the dataclass it replaces

    def __reduce__(self):
        return (
            _rebuild,
            (
                self.tid,
                float(self.size_mi),
                float(self.arrival_time),
                float(self.act),
                float(self.deadline),
                self.priority,
                self.start_time,
                self.finish_time,
                self.processor_id,
                self.site_id,
            ),
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Task(tid={self.tid}, size={self.size_mi:.0f}MI, "
            f"arr={self.arrival_time:.2f}, dl={self.deadline:.2f}, "
            f"prio={self.priority.label})"
        )


def _rebuild(
    tid, size_mi, arrival_time, act, deadline, priority,
    start_time, finish_time, processor_id, site_id,
) -> Task:
    """Unpickle hook: rebuild a task in the local scratch store."""
    return Task(
        tid, size_mi, arrival_time, act, deadline, priority,
        start_time, finish_time, processor_id, site_id,
    )
