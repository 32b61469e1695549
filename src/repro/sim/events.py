"""Event primitives for the discrete-event simulation kernel.

The design follows the classic simpy architecture: an :class:`Event` is a
one-shot synchronization point that processes can wait on.  An event is
first *triggered* (scheduled with a value at a point in simulated time) and
later *processed* (its callbacks run, at which point waiting processes
resume).  Composite events (:class:`AnyOf`, :class:`AllOf`) build fan-in
synchronization from these primitives.

Hot-path notes
--------------
Every class here declares ``__slots__`` — events are the kernel's unit of
allocation and a per-instance ``__dict__`` costs both memory and attribute-
lookup time.  Triggering (``succeed``/``fail``/``trigger``/``Timeout``)
writes directly into the environment's scheduling structures: zero-delay
entries go to the FIFO ring for the matching priority, delayed entries to
the time-keyed calendar bucket.  Both paths produce exactly the same
``(time, priority,
insertion-order)`` total order as routing through
:meth:`Environment.schedule` — see :mod:`repro.sim.core` for the ordering
contract.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Callable, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .core import Environment

__all__ = [
    "PENDING",
    "URGENT",
    "NORMAL",
    "Event",
    "Timeout",
    "ConditionValue",
    "Condition",
    "AnyOf",
    "AllOf",
]

#: Scheduling priority for urgent events (interrupts, process init).
URGENT = 0
#: Scheduling priority for ordinary events.
NORMAL = 1


class _Pending:
    """Sentinel for the value of an event that has not been triggered."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<PENDING>"


#: Unique sentinel marking an untriggered event's value slot.
PENDING = _Pending()


class Event:
    """A one-shot event that processes may wait on.

    Lifecycle::

        e = Event(env)        # pending
        e.succeed(value)      # triggered (ok) -> scheduled
        ...                   # kernel pops it -> processed, callbacks run

    Events may also fail (:meth:`fail`), in which case the exception is
    re-raised inside every waiting process.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: object = PENDING
        self._ok: bool = True
        # _defused: set when a failure's exception was delivered to at
        # least one waiter (or explicitly acknowledged via `defused`).
        self._defused: bool = False

    # -- inspection ----------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled with a value."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._value is PENDING:
            raise AttributeError("value of event is not yet available")
        return self._ok

    @property
    def value(self) -> object:
        """The event's value (or the exception for failed events)."""
        if self._value is PENDING:
            raise AttributeError("value of event is not yet available")
        return self._value

    @property
    def defused(self) -> bool:
        """True if a failed event's exception has been handled."""
        return self._defused

    @defused.setter
    def defused(self, value: bool) -> None:
        self._defused = bool(value)

    # -- triggering ----------------------------------------------------
    def trigger(self, event: "Event") -> None:
        """Trigger with the state (ok/value) copied from *event*.

        Used as a callback target so that one event can re-fire another.
        """
        self._ok = event._ok
        self._value = event._value
        env = self.env
        env._normal.append((env._now, NORMAL, next(env._eid), self))

    def succeed(self, value: object = None) -> "Event":
        """Trigger the event successfully with *value*."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        env = self.env
        env._normal.append((env._now, NORMAL, next(env._eid), self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with *exception*."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        self._ok = False
        self._value = exception
        env = self.env
        env._normal.append((env._now, NORMAL, next(env._eid), self))
        return self

    # -- composition ---------------------------------------------------
    def __or__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.any_events, [self, other])

    def __and__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.all_events, [self, other])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = (
            "processed"
            if self.processed
            else "triggered"
            if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed simulated-time delay."""

    __slots__ = ("_delay",)

    def __init__(self, env: "Environment", delay: float, value: object = None) -> None:
        if not delay >= 0:  # also rejects NaN
            raise ValueError(f"negative delay {delay}")
        # Inlined Event.__init__ + Environment.schedule: timeouts are the
        # single most-allocated object in a simulation run.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._defused = False
        self._delay = delay
        if delay == 0:
            env._normal.append((env._now, NORMAL, next(env._eid), self))
        else:
            at = env._now + delay
            bucket = env._buckets.get(at)
            if bucket is None:
                env._buckets[at] = [(at, NORMAL, next(env._eid), self)]
                heappush(env._times, at)
            else:
                bucket.append((at, NORMAL, next(env._eid), self))

    @property
    def delay(self) -> float:
        return self._delay

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Timeout delay={self._delay} at {id(self):#x}>"


class ConditionValue:
    """Ordered mapping of triggered events collected by a condition."""

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: list[Event] = []

    def __getitem__(self, key: Event) -> object:
        if key not in self.events:
            raise KeyError(str(key))
        return key.value

    def __contains__(self, key: Event) -> bool:
        return key in self.events

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ConditionValue):
            return self.todict() == other.todict()
        if isinstance(other, dict):
            return self.todict() == other
        return NotImplemented

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def keys(self):
        return iter(self.events)

    def values(self):
        return (e.value for e in self.events)

    def items(self):
        return ((e, e.value) for e in self.events)

    def todict(self) -> dict[Event, object]:
        return {e: e.value for e in self.events}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ConditionValue {self.todict()!r}>"


class Condition(Event):
    """Fan-in over multiple events with a pluggable evaluation function.

    The condition triggers as soon as ``evaluate(events, count)`` returns
    True, where *count* is the number of constituent events triggered so
    far.  Failed constituent events fail the condition immediately.
    """

    __slots__ = ("_evaluate", "_events", "_count")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[list[Event], int], bool],
        events: Iterable[Event],
    ) -> None:
        super().__init__(env)
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0

        for event in self._events:
            if event.env is not env:
                raise ValueError("events belong to different environments")

        if self._evaluate(self._events, 0) and not self.triggered:
            self.succeed(ConditionValue())
            return

        for event in self._events:
            if event.callbacks is None:  # already processed
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _populate_value(self, value: ConditionValue) -> None:
        for event in self._events:
            if isinstance(event, Condition):
                event._populate_value(value)
            elif event.callbacks is None and event.triggered:
                value.events.append(event)

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        self._count += 1
        if not event._ok:
            event._defused = True
            self.fail(event._value)  # type: ignore[arg-type]
        elif self._evaluate(self._events, self._count):
            value = ConditionValue()
            # Defer populating until the condition is processed so that
            # simultaneously-triggered constituents are all captured.
            self.succeed(value)

            def _finalize(_e: Event, value: ConditionValue = value) -> None:
                self._populate_value(value)

            assert self.callbacks is not None
            self.callbacks.insert(0, _finalize)

    @staticmethod
    def all_events(events: list[Event], count: int) -> bool:
        """True when every constituent has triggered."""
        return len(events) == count

    @staticmethod
    def any_events(events: list[Event], count: int) -> bool:
        """True when at least one constituent has triggered."""
        return count > 0 or not events


class AnyOf(Condition):
    """Condition that triggers when any constituent event triggers."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, Condition.any_events, events)


class AllOf(Condition):
    """Condition that triggers when all constituent events trigger."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, Condition.all_events, events)
