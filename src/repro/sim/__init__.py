"""Discrete-event simulation kernel (in-tree simpy substitute).

The kernel provides:

- :class:`Environment` — clock, event queues, one run loop;
- :class:`Event`, :class:`Timeout`, :class:`AnyOf`, :class:`AllOf` —
  synchronization primitives;
- :class:`Process` — generator-based simulated processes with interrupts;
- :class:`Store` — the FIFO put/get store compute nodes queue on;
- :class:`RandomStreams` — reproducible named RNG streams.

Example
-------
>>> from repro.sim import Environment
>>> env = Environment()
>>> def clock(env, out):
...     while env.now < 3:
...         out.append(env.now)
...         yield env.timeout(1)
>>> ticks = []
>>> _ = env.process(clock(env, ticks))
>>> env.run()
>>> ticks
[0.0, 1.0, 2.0]
"""

from .core import Environment, NORMAL, URGENT
from .events import AllOf, AnyOf, Condition, ConditionValue, Event, PENDING, Timeout
from .exceptions import EmptySchedule, Interrupt, SimulationError, StopSimulation
from .process import Process, ProcessGenerator
from .resources import Store
from .rng import RandomStreams

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Condition",
    "ConditionValue",
    "AnyOf",
    "AllOf",
    "PENDING",
    "NORMAL",
    "URGENT",
    "Process",
    "ProcessGenerator",
    "Interrupt",
    "EmptySchedule",
    "SimulationError",
    "StopSimulation",
    "Store",
    "RandomStreams",
]
