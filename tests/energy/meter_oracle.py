"""Scalar reference for the meter bank's learning-cycle sampler.

Test-only oracle: one processor at a time, in plain Python floats, the
way the sampler worked before it read the bank columns in bulk.
"""

from __future__ import annotations

import math

from repro.energy.meter import BUSY_CODE, IDLE_CODE


def powered_times(meter, now: float) -> tuple[float, float]:
    """``(busy_time, idle_time)`` of *meter* as of *now*.

    Reproduces :meth:`ProcessorEnergyMeter.snapshot` for these two fields
    (the accruing span is added to the current state's total).
    """
    bank, row = meter._bank, meter._row
    busy = bank.busy_time.data[row]
    idle = bank.idle_time.data[row]
    if math.isnan(bank.finalized_at.data[row]):
        since = bank.since.data[row]
        if now < since:
            raise ValueError("snapshot time precedes last transition")
        span = now - since
        code = bank.state.data[row]
        if code == BUSY_CODE:
            busy += span
        elif code == IDLE_CODE:
            idle += span
    return busy, idle


def sample_cycle_loop(meters, now: float) -> tuple[float, float, int]:
    """``(busy_sum, powered_sum, busy_count)`` by a left-to-right ``+=``."""
    busy = powered = 0.0
    count = 0
    for meter in meters:
        b, i = powered_times(meter, now)
        busy += b
        powered += b + i
        if meter._bank.state.data[meter._row] == BUSY_CODE:
            count += 1
    return busy, powered, count
