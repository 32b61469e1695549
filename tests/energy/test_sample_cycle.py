"""``MeterBank.sample_cycle`` against the scalar left-to-right loop.

The learning-cycle log (Figures 9-10) sums busy and powered time over
thousands of processors per cycle.  The sums must be the plain
sequential ``+=`` a per-processor loop computes, on every Python
version: pairwise (``np.sum``) or compensated (builtin ``sum()`` from
CPython 3.12 on) summation changes the low bits.
"""

import math

import numpy as np
import pytest

from repro.energy import ProcessorEnergyMeter, ProcState, constant_power_profile
from repro.energy.meter import BANK, row_index

from .meter_oracle import sample_cycle_loop

NOW = 5000.0
STATES = (ProcState.BUSY, ProcState.IDLE, ProcState.SLEEP)


def random_meters(rng, n):
    """*n* meters in random busy / idle / sleep / finalized states.

    Accumulated times span twelve orders of magnitude so that summation
    order shows in the low bits.
    """
    profile = constant_power_profile()
    meters = []
    for _ in range(n):
        meter = ProcessorEnergyMeter(profile)
        meter._busy_time = float(10.0 ** rng.uniform(-3, 9))
        meter._idle_time = float(10.0 ** rng.uniform(-3, 9))
        meter._sleep_time = float(10.0 ** rng.uniform(-3, 9))
        meter._state = STATES[rng.integers(3)]
        meter._since = float(rng.uniform(0.0, NOW))
        if rng.random() < 0.2:
            meter._finalized_at = meter._since
        meters.append(meter)
    return meters


def rows_of(meters):
    return np.array([m._row for m in meters], dtype=np.intp)


@pytest.mark.parametrize("seed", range(8))
def test_matches_scalar_loop_in_row_order(seed):
    rng = np.random.default_rng(seed)
    meters = random_meters(rng, 400)
    rows = rows_of(meters)
    assert BANK.sample_cycle(rows, NOW) == sample_cycle_loop(meters, NOW)


@pytest.mark.parametrize("seed", range(8))
def test_matches_scalar_loop_on_non_contiguous_rows(seed):
    rng = np.random.default_rng(100 + seed)
    meters = random_meters(rng, 400)
    picked = [meters[k] for k in rng.permutation(len(meters))[:150]]
    rows = rows_of(picked)
    assert not isinstance(row_index(rows), slice)
    assert BANK.sample_cycle(rows, NOW) == sample_cycle_loop(picked, NOW)


def test_contiguous_slice_matches_index_array():
    meters = random_meters(np.random.default_rng(7), 300)
    rows = rows_of(meters)
    index = row_index(rows)
    assert index == slice(int(rows[0]), int(rows[0]) + len(rows))
    assert BANK.sample_cycle(index, NOW) == BANK.sample_cycle(rows, NOW)
    assert BANK.sample_cycle(index, NOW) == sample_cycle_loop(meters, NOW)


def test_every_state_is_represented():
    meters = random_meters(np.random.default_rng(0), 400)
    states = {m.state for m in meters if m._finalized_at is None}
    assert states == set(STATES)
    assert any(m._finalized_at is not None for m in meters)


def test_data_distinguishes_summation_order():
    """The random banks are hard enough that an order-insensitive or
    pairwise sum would fail the equality tests above."""
    meters = random_meters(np.random.default_rng(3), 400)
    busy, _, _ = sample_cycle_loop(meters, NOW)
    b = BANK.busy_time.data[rows_of(meters)]
    spans = NOW - BANK.since.data[rows_of(meters)]
    live_busy = [
        m.state is ProcState.BUSY and m._finalized_at is None for m in meters
    ]
    b = np.where(live_busy, b + spans, b)
    assert math.fsum(b.tolist()) != busy or float(np.sum(b)) != busy


def test_empty_rows():
    assert BANK.sample_cycle(np.empty(0, dtype=np.intp), NOW) == (0, 0, 0)
    assert BANK.sample_cycle(row_index([]), NOW) == (0, 0, 0)
