"""Back-to-back re-plan regression: repeated hitless updates must not
fragment the register array or double-count against NV601.

Before the retiring-aware allocator anchor, every make-before-break
update bounced a query's register slice between the two ends of its free
space (first fit places the staged copy after the live one; GC then
frees the front).  Whether a later *grow* fit became a function of the
re-plan count's parity: the NV601 sum-based gate approved the plan, and
the 2PC prepare phase then died with ``AllocationError`` mid-flight.
The planner re-plans in exactly this pattern, so the allocator now picks
the staging anchor that maximises the post-GC contiguous free block.
"""

import dataclasses

import pytest

from repro.core.compiler import QueryParams
from repro.core.query import Query
from repro.dataplane.registers import (
    AllocationError,
    RegisterArray,
    find_offset,
)
from repro.network.deployment import build_deployment
from repro.network.topology import linear
from repro.verify.fleet import check_staging_plan

ARRAY = 4096
PARAMS = QueryParams(cm_depth=2, bf_hashes=2,
                     reduce_registers=1500, distinct_registers=256)


def q(threshold=3):
    return (
        Query("plan.q", "re-plan regression")
        .filter(proto=6, tcp_flags=2)
        .map("dip")
        .reduce("dip")
        .where(ge=threshold)
    )


def deploy():
    return build_deployment(linear(1), array_size=ARRAY)


class TestBackToBackReplans:
    def test_grow_fits_after_any_number_of_same_size_replans(self):
        """Grow to (array - current) must succeed regardless of how many
        same-size re-plans preceded it — both parities of the old bug."""
        for replans in (1, 2, 3, 4):
            dep = deploy()
            dep.controller.install_query(q(), PARAMS, path=["s0"])
            for i in range(replans):
                dep.controller.update_query(q(threshold=4 + i), PARAMS,
                                            path=["s0"])
            grown = dataclasses.replace(PARAMS, reduce_registers=2400)
            result = dep.controller.update_query(q(threshold=99), grown,
                                                 path=["s0"])
            assert result.rules_staged > 0, f"grow failed after {replans}"
            assert dep.switch("s0").staged_rule_count == 0
            assert dep.switch("s0").retired_rule_count == 0

    def test_shrink_then_regrow_cycles(self):
        """Oscillating resizes (the planner's resize loop) stay hitless."""
        dep = deploy()
        dep.controller.install_query(q(), PARAMS, path=["s0"])
        for i, registers in enumerate((512, 2400, 512, 2400, 1500)):
            params = dataclasses.replace(PARAMS, reduce_registers=registers)
            dep.controller.update_query(q(threshold=5 + i), params,
                                        path=["s0"])
        assert dep.switch("s0").staged_rule_count == 0
        assert dep.switch("s0").retired_rule_count == 0


class TestVacatingAnchor:
    def test_anchor_leaves_largest_post_gc_block(self):
        array = RegisterArray(4096)
        old = array.allocate(("q", 0, 0), 1500)
        # Staged replacement: old slice will vacate at GC.  First fit
        # would pick 1500; the anchor policy picks the tail so the freed
        # front merges with the remaining gap.
        offset = find_offset(array.free_runs(), 1500, [(old.offset, old.end)])
        alloc = array.lease(("q", 0, 1), 1500, offset)
        assert alloc.offset == 4096 - 1500
        array.release(("q", 0, 0))
        # Post-GC: one contiguous block of 2596 at the front.
        assert array.free_runs() == ((0, 2596),)

    def test_anchor_never_overlaps_live_vacating_cells(self):
        array = RegisterArray(1024)
        old = array.allocate(("q", 0, 0), 600)
        # 600 live + 600 staged does not fit 1024 even though the
        # vacating slice will free later — double occupancy is real.
        offset = find_offset(array.free_runs(), 600, [(old.offset, old.end)])
        assert offset is None
        with pytest.raises(AllocationError):
            array.lease(("q", 0, 1), 600, offset)

    def test_plain_allocation_stays_first_fit(self):
        array = RegisterArray(1024)
        array.allocate(("a",), 100)
        array.release(("a",))
        alloc = array.allocate(("b",), 50)
        assert alloc.offset == 0


class TestStagingPlanDedup:
    def test_duplicate_slices_not_double_counted(self):
        """A plan listing the same slice twice (retried/composed op) must
        cost one slice's demand — the data plane stages it once."""
        dep = deploy()
        dep.controller.install_query(q(), PARAMS, path=["s0"])
        installed = dep.controller.installed["plan.q"]
        slices = [qs for per_sub in installed.slices.values()
                  for qs in per_sub]
        assert slices, "placement must have produced slices"
        doubled = slices + slices
        report = check_staging_plan(
            dep.switches, {"s0": doubled}, target_epoch=99,
        )
        errors = [d for d in report.diagnostics if d.code == "NV601"]
        # 1500 staged beside 1500 resident fits 4096; the doubled listing
        # (3000 staged) would not have left room for a later grow — and
        # before the dedup it *did* veto legitimate plans.
        assert errors == []
