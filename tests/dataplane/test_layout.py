"""Module layout tests (naive vs compact)."""

import pytest

from repro.dataplane.layout import LayoutKind, ModuleLayout
from repro.dataplane.module_types import MODULE_ORDER


class TestCompactLayout:
    def test_four_modules_per_stage(self):
        layout = ModuleLayout(num_stages=3, kind=LayoutKind.COMPACT)
        for stage in range(3):
            assert set(layout.stage_slots(stage)) == set(MODULE_ORDER)

    def test_module_count(self):
        layout = ModuleLayout(num_stages=12)
        assert len(layout.modules()) == 48

    def test_state_banks_enumerated(self):
        layout = ModuleLayout(num_stages=5)
        assert len(layout.state_banks()) == 5

    def test_stage_bounds_checked(self):
        layout = ModuleLayout(num_stages=2)
        with pytest.raises(IndexError):
            layout.stage_slots(2)

    def test_instance_ids_unique(self):
        layout = ModuleLayout(num_stages=4)
        ids = [m.instance_id for m in layout.modules()]
        assert len(ids) == len(set(ids))


class TestNaiveLayout:
    def test_one_module_per_stage(self):
        layout = ModuleLayout(num_stages=8, kind=LayoutKind.NAIVE)
        for stage in range(8):
            assert len(layout.stage_slots(stage)) == 1

    def test_cycles_module_types(self):
        layout = ModuleLayout(num_stages=8, kind=LayoutKind.NAIVE)
        types = [next(iter(layout.stage_slots(s))) for s in range(8)]
        assert types[:4] == list(MODULE_ORDER)
        assert types[4:] == list(MODULE_ORDER)

    def test_naive_uses_quarter_of_registers(self):
        """The §4.2 claim: naive layout reaches at most 25% of registers."""
        naive = ModuleLayout(num_stages=12, kind=LayoutKind.NAIVE)
        compact = ModuleLayout(num_stages=12, kind=LayoutKind.COMPACT)
        assert len(naive.state_banks()) == len(compact.state_banks()) // 4


class TestResourceAudit:
    def test_compact_stage_usage_below_capacity(self):
        layout = ModuleLayout(num_stages=1)
        from repro.dataplane.resources import STAGE_CAPACITY

        assert layout.stage_usage(0).fits_within(STAGE_CAPACITY)

    def test_total_usage_scales_with_stages(self):
        one = ModuleLayout(num_stages=1).total_usage()
        four = ModuleLayout(num_stages=4).total_usage()
        assert four.sram == pytest.approx(4 * one.sram)


class TestValidation:
    def test_rejects_zero_stages(self):
        with pytest.raises(ValueError):
            ModuleLayout(num_stages=0)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            ModuleLayout(num_stages=1, kind="diagonal")

    def test_describe_lists_stages(self):
        text = ModuleLayout(num_stages=2).describe()
        assert "stage 0" in text and "stage 1" in text
