"""Event-driven energy integration per processor (Eq. 5 and extensions).

A :class:`ProcessorEnergyMeter` records state transitions (busy / idle /
sleep) with timestamps and integrates ``power × time`` exactly — no
sampling error.  The paper's per-processor energy

    ``PPj = pmax · Σ ETi + pmin · t_idle``            (Eq. 5)

is the special case with no sleep time.

Struct-of-arrays layout
-----------------------
Since the columnar refactor a meter owns no accumulators: all Eq. 5
state (current power state, last-transition time, the six per-state
time/energy totals, the DVFS override, the per-state profile powers)
lives in the module-level :class:`MeterBank` — one preallocated float64
/ int8 column per field, one row per meter.  The meter object is a
2-slot ``(bank, row)`` view whose methods perform the identical IEEE-754
operations on array cells, and whose ``_busy_time``-style attributes
survive as properties (the strict-mode auditor and the learning-cycle
sampler read them; tests write them to provoke violations).

What the layout buys: whole-population readers — the per-cycle sampler
(:meth:`MeterBank.sample_cycle`), the busy-processor count
(:meth:`MeterBank.busy_count`), the per-node power snapshot
(:meth:`MeterBank.current_power`) — gather columns with one NumPy index
instead of a Python loop over meter objects, while keeping the exact
per-meter float bits (sums stay left-to-right where the scalar code
summed left-to-right).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..sim.columnar import FloatColumn, IntColumn
from .power_model import PowerProfile

__all__ = [
    "ProcState",
    "ProcessorEnergyMeter",
    "EnergyBreakdown",
    "MeterBank",
    "row_index",
]


class ProcState(enum.Enum):
    """Power states a processor can occupy."""

    BUSY = "busy"
    IDLE = "idle"
    SLEEP = "sleep"


#: Column encoding of :class:`ProcState` (int8 codes).
BUSY_CODE, IDLE_CODE, SLEEP_CODE = 0, 1, 2
_STATE_TO_CODE = {
    ProcState.BUSY: BUSY_CODE,
    ProcState.IDLE: IDLE_CODE,
    ProcState.SLEEP: SLEEP_CODE,
}
_CODE_TO_STATE = (ProcState.BUSY, ProcState.IDLE, ProcState.SLEEP)

_NAN = float("nan")


@dataclass(frozen=True)
class EnergyBreakdown:
    """Per-state time and energy totals for one processor."""

    busy_time: float
    idle_time: float
    sleep_time: float
    busy_energy: float
    idle_energy: float
    sleep_energy: float

    @property
    def total_time(self) -> float:
        return self.busy_time + self.idle_time + self.sleep_time

    @property
    def total_energy(self) -> float:
        """``PPj`` — total energy consumed by the processor."""
        return self.busy_energy + self.idle_energy + self.sleep_energy

    @property
    def utilization(self) -> float:
        """Fraction of non-sleep wall time spent busy.

        The paper defines utilization as "the percentage of time the
        processor was busy servicing tasks" (§V, Experiment 2); we measure
        it against powered-on time (busy + idle).  When the processor
        never powered on, utilization is 0.
        """
        powered = self.busy_time + self.idle_time
        return self.busy_time / powered if powered > 0 else 0.0


class MeterBank:
    """Columnar Eq. 5 accumulators across every meter in the process.

    Rows are append-only and never recycled; columns grow by doubling.
    Meters are created at system-construction time and mutated by the
    single engine thread, so access is lock-free.
    """

    __slots__ = (
        "state",
        "since",
        "busy_time",
        "idle_time",
        "sleep_time",
        "busy_energy",
        "idle_energy",
        "sleep_energy",
        "power_override",
        "finalized_at",
        "p_busy",
        "p_idle",
        "p_sleep",
    )

    def __init__(self, capacity: int = 64) -> None:
        self.state = IntColumn(capacity, dtype=np.int8)
        self.since = FloatColumn(capacity)
        self.busy_time = FloatColumn(capacity)
        self.idle_time = FloatColumn(capacity)
        self.sleep_time = FloatColumn(capacity)
        self.busy_energy = FloatColumn(capacity)
        self.idle_energy = FloatColumn(capacity)
        self.sleep_energy = FloatColumn(capacity)
        #: DVFS busy-power override; NaN = "use the profile's draw".
        self.power_override = FloatColumn(capacity)
        #: Finalization time; NaN = still metering.
        self.finalized_at = FloatColumn(capacity)
        # Per-state profile powers, denormalized per row so vectorized
        # power reads never touch the profile objects.
        self.p_busy = FloatColumn(capacity)
        self.p_idle = FloatColumn(capacity)
        self.p_sleep = FloatColumn(capacity)

    def __len__(self) -> int:
        return len(self.since)

    def add(self, profile: PowerProfile, start_time: float) -> int:
        """Allocate a row for a new meter (initially IDLE)."""
        row = self.state.append(IDLE_CODE)
        self.since.append(start_time)
        self.busy_time.append(0.0)
        self.idle_time.append(0.0)
        self.sleep_time.append(0.0)
        self.busy_energy.append(0.0)
        self.idle_energy.append(0.0)
        self.sleep_energy.append(0.0)
        self.power_override.append(_NAN)
        self.finalized_at.append(_NAN)
        self.p_busy.append(profile.power_at(ProcState.BUSY.value))
        self.p_idle.append(profile.power_at(ProcState.IDLE.value))
        self.p_sleep.append(profile.power_at(ProcState.SLEEP.value))
        return row

    # -- vectorized whole-population readers ----------------------------
    def sample_cycle(self, rows, now: float):
        """``(busy_sum, powered_sum, busy_count)`` over *rows* at *now*.

        *rows* is a row index array or a slice (see :func:`row_index`).
        Bit-identical to the scalar per-meter ``+=`` loop it replaces:
        the accruing span is added with the same ``b + (now - since)``
        expression, and both sums are ``np.cumsum`` (``np.add.accumulate``),
        which adds strictly left to right over the row-ordered values.
        ``np.sum`` would not match (it adds pairwise), and neither would
        builtin ``sum()`` from CPython 3.12 on (compensated summation).
        """
        b = self.busy_time.data[rows]
        if b.size == 0:
            return 0, 0, 0
        i = self.idle_time.data[rows]
        codes = self.state.data[rows]
        live = np.isnan(self.finalized_at.data[rows])
        spans = now - self.since.data[rows]
        busy_mask = codes == BUSY_CODE
        b = np.where(busy_mask & live, b + spans, b)
        i = np.where((codes == IDLE_CODE) & live, i + spans, i)
        busy = float(np.cumsum(b)[-1])
        powered = float(np.cumsum(b + i)[-1])
        return busy, powered, int(np.count_nonzero(busy_mask))

    def busy_count(self, rows: np.ndarray) -> int:
        """Number of *rows* currently in the BUSY state."""
        return int(np.count_nonzero(self.state.data[rows] == BUSY_CODE))

    def current_power(self, rows: np.ndarray) -> np.ndarray:
        """Instantaneous draw per row — vectorized ``_current_power``."""
        codes = self.state.data[rows]
        by_state = np.where(
            codes == BUSY_CODE,
            self.p_busy.data[rows],
            np.where(
                codes == IDLE_CODE,
                self.p_idle.data[rows],
                self.p_sleep.data[rows],
            ),
        )
        override = self.power_override.data[rows]
        return np.where(np.isnan(override), by_state, override)

    def sleep_count(self, rows: np.ndarray) -> int:
        """Number of *rows* currently in the SLEEP state."""
        return int(np.count_nonzero(self.state.data[rows] == SLEEP_CODE))


#: Process-wide bank backing every :class:`ProcessorEnergyMeter`.
BANK = MeterBank()


def row_index(rows):
    """Gather index over bank *rows*: a slice when they are one ascending
    run (a view, ~25% cheaper per column read than fancy indexing),
    otherwise an ``intp`` array.  Both select the same cells in the same
    order."""
    index = np.asarray(rows, dtype=np.intp)
    if index.size and np.array_equal(
        index, np.arange(index[0], index[0] + index.size)
    ):
        return slice(int(index[0]), int(index[0]) + index.size)
    return index


class ProcessorEnergyMeter:
    """Integrates a single processor's energy across state transitions.

    A ``(bank, row)`` view over :data:`BANK` (see module docstring); the
    public surface — and the ``_``-prefixed accumulator attributes the
    auditor and sampler rely on — is unchanged from the per-object
    version.  Deliberately no ``__slots__``: the strict-mode auditor
    shims ``set_state``/``finalize`` per instance.
    """

    def __init__(self, profile: PowerProfile, start_time: float = 0.0) -> None:
        self.profile = profile
        #: Time metering began — kept so auditors can check time closure
        #: (``busy + idle + sleep == last_transition − start_time``).
        self.start_time = float(start_time)
        self._bank = BANK
        self._row = BANK.add(profile, self.start_time)
        # Optional observability hookup (None keeps set_state at one
        # extra attribute check); see bind_telemetry().
        self._telemetry = None
        self.owner: str = ""

    def bind_telemetry(self, telemetry, owner: str) -> None:
        """Attach a :class:`~repro.obs.Telemetry` that receives an
        ``energy.state`` trace event on every state transition, tagged
        with *owner* (the processor id)."""
        self._telemetry = telemetry
        self.owner = owner

    # -- columnar cell accessors (auditor/sampler-visible "privates") ----
    @property
    def _state(self) -> ProcState:
        return _CODE_TO_STATE[self._bank.state.data[self._row]]

    @_state.setter
    def _state(self, state: ProcState) -> None:
        self._bank.state.data[self._row] = _STATE_TO_CODE[state]

    @property
    def _since(self) -> float:
        return self._bank.since.data[self._row]

    @_since.setter
    def _since(self, value: float) -> None:
        self._bank.since.data[self._row] = value

    @property
    def _busy_time(self) -> float:
        return self._bank.busy_time.data[self._row]

    @_busy_time.setter
    def _busy_time(self, value: float) -> None:
        self._bank.busy_time.data[self._row] = value

    @property
    def _idle_time(self) -> float:
        return self._bank.idle_time.data[self._row]

    @_idle_time.setter
    def _idle_time(self, value: float) -> None:
        self._bank.idle_time.data[self._row] = value

    @property
    def _sleep_time(self) -> float:
        return self._bank.sleep_time.data[self._row]

    @_sleep_time.setter
    def _sleep_time(self, value: float) -> None:
        self._bank.sleep_time.data[self._row] = value

    @property
    def _busy_energy(self) -> float:
        return self._bank.busy_energy.data[self._row]

    @_busy_energy.setter
    def _busy_energy(self, value: float) -> None:
        self._bank.busy_energy.data[self._row] = value

    @property
    def _idle_energy(self) -> float:
        return self._bank.idle_energy.data[self._row]

    @_idle_energy.setter
    def _idle_energy(self, value: float) -> None:
        self._bank.idle_energy.data[self._row] = value

    @property
    def _sleep_energy(self) -> float:
        return self._bank.sleep_energy.data[self._row]

    @_sleep_energy.setter
    def _sleep_energy(self, value: float) -> None:
        self._bank.sleep_energy.data[self._row] = value

    @property
    def _power_override(self) -> Optional[float]:
        v = self._bank.power_override.data[self._row]
        return None if v != v else v

    @_power_override.setter
    def _power_override(self, value: Optional[float]) -> None:
        self._bank.power_override.data[self._row] = (
            _NAN if value is None else value
        )

    @property
    def _finalized_at(self) -> Optional[float]:
        v = self._bank.finalized_at.data[self._row]
        return None if v != v else v

    @_finalized_at.setter
    def _finalized_at(self, value: Optional[float]) -> None:
        self._bank.finalized_at.data[self._row] = (
            _NAN if value is None else value
        )

    # -- public surface --------------------------------------------------
    @property
    def state(self) -> ProcState:
        """The processor's current power state."""
        return _CODE_TO_STATE[self._bank.state.data[self._row]]

    @property
    def last_transition(self) -> float:
        """Time of the most recent state change."""
        return self._bank.since.data[self._row]

    def set_state(
        self, state: ProcState, now: float, power_w: Optional[float] = None
    ) -> None:
        """Transition to *state* at time *now*, charging the elapsed span.

        ``power_w`` overrides the profile's draw for the *new* state —
        used by DVFS, where busy power depends on the frequency the task
        runs at rather than on the state alone.
        """
        bank, row = self._bank, self._row
        if not np.isnan(bank.finalized_at.data[row]):
            raise RuntimeError("meter already finalized")
        if not isinstance(state, ProcState):
            raise TypeError(f"state must be a ProcState, got {state!r}")
        if power_w is not None and power_w < 0:
            raise ValueError("power_w must be non-negative")
        tel = self._telemetry
        code = _STATE_TO_CODE[state]
        if tel is not None and tel.tracing and code != bank.state.data[row]:
            tel.emit(
                "energy",
                "state",
                now,
                proc=self.owner,
                from_state=_CODE_TO_STATE[bank.state.data[row]].value,
                to_state=state.value,
            )
        self._charge(now)
        bank.state.data[row] = code
        bank.power_override.data[row] = _NAN if power_w is None else power_w

    def _current_power(self) -> float:
        bank, row = self._bank, self._row
        override = bank.power_override.data[row]
        if override == override:
            return override
        code = bank.state.data[row]
        if code == BUSY_CODE:
            return bank.p_busy.data[row]
        if code == IDLE_CODE:
            return bank.p_idle.data[row]
        return bank.p_sleep.data[row]

    def _charge(self, now: float) -> None:
        bank, row = self._bank, self._row
        since = bank.since.data[row]
        if now < since:
            raise ValueError(
                f"time moved backwards: {now} < last transition {since}"
            )
        span = now - since
        if span > 0:
            energy = span * self._current_power()
            code = bank.state.data[row]
            if code == BUSY_CODE:
                bank.busy_time.data[row] += span
                bank.busy_energy.data[row] += energy
            elif code == IDLE_CODE:
                bank.idle_time.data[row] += span
                bank.idle_energy.data[row] += energy
            else:
                bank.sleep_time.data[row] += span
                bank.sleep_energy.data[row] += energy
        bank.since.data[row] = now

    def finalize(self, now: float) -> EnergyBreakdown:
        """Charge the final span and freeze the meter."""
        self._charge(now)
        self._bank.finalized_at.data[self._row] = now
        return self.snapshot()

    def snapshot(self, now: float | None = None) -> EnergyBreakdown:
        """Breakdown as of the last transition (or *now* if given).

        Passing *now* includes the currently accruing span without
        mutating the meter.
        """
        bank, row = self._bank, self._row
        busy_time = bank.busy_time.data[row]
        idle_time = bank.idle_time.data[row]
        sleep_time = bank.sleep_time.data[row]
        busy_energy = bank.busy_energy.data[row]
        idle_energy = bank.idle_energy.data[row]
        sleep_energy = bank.sleep_energy.data[row]
        if now is not None and np.isnan(bank.finalized_at.data[row]):
            since = bank.since.data[row]
            if now < since:
                raise ValueError("snapshot time precedes last transition")
            span = now - since
            accrued = span * self._current_power()
            code = bank.state.data[row]
            if code == BUSY_CODE:
                busy_time += span
                busy_energy += accrued
            elif code == IDLE_CODE:
                idle_time += span
                idle_energy += accrued
            else:
                sleep_time += span
                sleep_energy += accrued
        return EnergyBreakdown(
            busy_time=busy_time,
            idle_time=idle_time,
            sleep_time=sleep_time,
            busy_energy=busy_energy,
            idle_energy=idle_energy,
            sleep_energy=sleep_energy,
        )
