"""Unit tests for the struct-of-arrays column primitives."""

import numpy as np
import pytest

from repro.sim.columnar import MIN_CAPACITY, FloatColumn, IntColumn


class TestFloatColumn:
    def test_append_returns_rows_and_grows(self):
        col = FloatColumn()
        n = MIN_CAPACITY * 4 + 3  # forces several doublings
        for i in range(n):
            assert col.append(float(i)) == i
        assert len(col) == n
        assert np.array_equal(col.view(), np.arange(n, dtype=np.float64))
        assert len(col.data) >= n

    def test_extend_returns_occupied_slice(self):
        col = FloatColumn()
        col.append(1.5)
        block = col.extend([2.5, 3.5, 4.5])
        assert block == slice(1, 4)
        assert col.view().tolist() == [1.5, 2.5, 3.5, 4.5]

    def test_extend_growth_preserves_prefix(self):
        col = FloatColumn(capacity=4)
        col.extend(np.arange(10.0))
        col.extend(np.arange(100.0))
        assert len(col) == 110
        assert col[9] == 9.0
        assert col[10] == 0.0

    def test_values_constructor(self):
        col = FloatColumn(values=[1.0, 2.0])
        assert len(col) == 2
        assert col.view().tolist() == [1.0, 2.0]

    def test_view_is_live_until_growth(self):
        col = FloatColumn()
        col.extend([1.0, 2.0])
        v = col.view()
        col[0] = 9.0
        assert v[0] == 9.0  # same backing buffer

    def test_indexing_bounds(self):
        col = FloatColumn()
        col.append(1.0)
        assert col[0] == 1.0
        assert col[-1] == 1.0
        with pytest.raises(IndexError, match="out of range"):
            col[1]
        with pytest.raises(IndexError, match="out of range"):
            col[1] = 2.0
        col[0] = 3.0
        assert col[0] == 3.0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            FloatColumn(capacity=0)


class TestIntColumn:
    def test_append_extend_and_dtype(self):
        col = IntColumn(dtype=np.int8)
        col.append(3)
        col.extend([1, 2])
        assert col.data.dtype == np.int8
        assert col.view().tolist() == [3, 1, 2]

    def test_growth_preserves_values(self):
        col = IntColumn(capacity=2)
        col.extend(range(MIN_CAPACITY * 3))
        assert col.view().tolist() == list(range(MIN_CAPACITY * 3))

    def test_indexing_bounds(self):
        col = IntColumn()
        with pytest.raises(IndexError, match="out of range"):
            col[0]
        col.append(7)
        col[0] = 9
        assert col[0] == 9

