"""Register array allocation and stateful execution."""

import pytest

from repro.dataplane.alu import StatefulOp
from repro.dataplane.registers import AllocationError, RegisterArray


class TestAllocation:
    def test_first_fit(self):
        array = RegisterArray(100)
        a = array.allocate(("q1", 0), 40)
        b = array.allocate(("q2", 0), 40)
        assert a.offset == 0
        assert b.offset == 40
        assert array.free_registers() == 20

    def test_exhaustion_raises(self):
        array = RegisterArray(64)
        array.allocate(("q1", 0), 64)
        with pytest.raises(AllocationError):
            array.allocate(("q2", 0), 1)

    def test_release_reclaims_gap(self):
        array = RegisterArray(100)
        array.allocate(("a", 0), 50)
        array.allocate(("b", 0), 50)
        array.release(("a", 0))
        again = array.allocate(("c", 0), 50)
        assert again.offset == 0

    def test_release_zeroes_cells(self):
        array = RegisterArray(10)
        array.allocate(("a", 0), 10)
        array.execute(("a", 0), 3, StatefulOp.ADD, 5)
        array.release(("a", 0))
        array.allocate(("b", 0), 10)
        old, _ = array.execute(("b", 0), 3, StatefulOp.READ, 0)
        assert old == 0

    def test_double_allocation_rejected(self):
        array = RegisterArray(10)
        array.allocate(("a", 0), 5)
        with pytest.raises(AllocationError):
            array.allocate(("a", 0), 2)

    def test_release_unknown_owner(self):
        with pytest.raises(AllocationError):
            RegisterArray(8).release(("ghost", 0))

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            RegisterArray(0)
        with pytest.raises(ValueError):
            RegisterArray(8).allocate(("a", 0), 0)


class TestExecution:
    def test_add_accumulates(self):
        array = RegisterArray(16)
        array.allocate(("q", 0), 16)
        for expected in range(1, 5):
            old, new = array.execute(("q", 0), 3, StatefulOp.ADD, 1)
            assert new == expected
            assert old == expected - 1

    def test_index_wraps_within_slice(self):
        array = RegisterArray(16)
        array.allocate(("q", 0), 4)
        array.execute(("q", 0), 1, StatefulOp.ADD, 1)
        _, again = array.execute(("q", 0), 5, StatefulOp.ADD, 1)  # 5 % 4 == 1
        assert again == 2

    def test_isolation_between_owners(self):
        array = RegisterArray(32)
        array.allocate(("a", 0), 16)
        array.allocate(("b", 0), 16)
        array.execute(("a", 0), 0, StatefulOp.ADD, 100)
        old, _ = array.execute(("b", 0), 0, StatefulOp.READ, 0)
        assert old == 0

    def test_or_test_and_set(self):
        array = RegisterArray(8)
        array.allocate(("q", 0), 8)
        old1, new1 = array.execute(("q", 0), 2, StatefulOp.OR, 1)
        old2, new2 = array.execute(("q", 0), 2, StatefulOp.OR, 1)
        assert (old1, new1) == (0, 1)
        assert (old2, new2) == (1, 1)

    def test_unallocated_execution_rejected(self):
        with pytest.raises(AllocationError):
            RegisterArray(8).execute(("q", 0), 0, StatefulOp.ADD, 1)


class TestWindows:
    def test_reset_slice(self):
        array = RegisterArray(8)
        array.allocate(("q", 0), 8)
        array.execute(("q", 0), 0, StatefulOp.ADD, 9)
        array.reset_slice(("q", 0))
        old, _ = array.execute(("q", 0), 0, StatefulOp.READ, 0)
        assert old == 0

    def test_reset_all(self):
        array = RegisterArray(8)
        array.allocate(("q", 0), 4)
        array.execute(("q", 0), 0, StatefulOp.ADD, 9)
        array.reset_all()
        assert array.read_slice(("q", 0)).sum() == 0

    def test_dirty_follows_writes_and_the_window_reset(self):
        """``dirty`` false promises an all-zero file (the window-close
        readout skips such banks): reads leave it, any write sets it,
        only ``reset_all`` clears it, and callers cannot."""
        array = RegisterArray(8)
        array.allocate(("q", 0), 4)
        assert not array.dirty
        array.execute(("q", 0), 0, StatefulOp.READ, 0)
        assert not array.dirty
        array.execute(("q", 0), 0, StatefulOp.OR, 1)
        assert array.dirty
        array.reset_slice(("q", 0))
        assert array.dirty            # zeroed, but not known clean
        array.reset_all()
        assert not array.dirty and not array.dump().any()
        with pytest.raises(AttributeError):
            array.dirty = True

    def test_occupancy(self):
        array = RegisterArray(100)
        assert array.occupancy() == 0.0
        array.allocate(("q", 0), 25)
        assert array.occupancy() == pytest.approx(0.25)
