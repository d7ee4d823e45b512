"""Fault-injection shim tests."""

import pytest

from repro.collector.faults import FaultInjector
from repro.collector.records import ReportRecord
from repro.resilience import FaultPlan, report_faults


def shim_of(seed=0, **rates):
    """An injector for a plan whose one ``reports`` event has ``rates``."""
    return FaultInjector(FaultPlan(events=(report_faults(**rates),),
                                   seed=seed))


def record(seq, epoch=0):
    return ReportRecord(
        qid="q", switch_id="s0", epoch=epoch, ts=0.0, key=(seq,),
        count=1, seq=seq, arrival_epoch=epoch,
    )


class TestConfig:
    def test_identity_by_default(self):
        """No ``reports`` event, no shim: the collector holds none."""
        with pytest.raises(ValueError, match="no reports event"):
            FaultInjector(FaultPlan())

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            report_faults(loss=1.5)
        with pytest.raises(ValueError):
            report_faults(reorder=-0.1)

    def test_delay_windows_floor(self):
        with pytest.raises(ValueError):
            report_faults(delay=0.1, delay_windows=0)


class TestInjector:
    def test_identity_passthrough(self):
        """All-zero rates pass every record, in order, drawing nothing."""
        shim = shim_of()
        state = shim._rng.getstate()
        records = [record(i) for i in range(5)]
        assert [out for r in records for out in shim.apply(r)] == records
        assert shim.lost == shim.duplicated == 0
        assert shim._rng.getstate() == state

    def test_loss_is_counted(self):
        shim = shim_of(loss=1.0)
        assert shim.apply(record(1)) == []
        assert shim.lost == 1

    def test_duplication_delivers_twice(self):
        shim = shim_of(duplication=1.0)
        out = shim.apply(record(1))
        assert len(out) == 2
        assert out[0] == out[1]
        assert shim.duplicated == 1

    def test_delay_slips_arrival_epoch(self):
        shim = shim_of(delay=1.0, delay_windows=2)
        (out,) = shim.apply(record(1, epoch=3))
        assert out.epoch == 3            # window membership preserved
        assert out.arrival_epoch == 5    # but it arrives late
        assert shim.delayed == 1

    def test_reorder_swaps_adjacent_records(self):
        shim = shim_of(reorder=1.0)
        first = shim.apply(record(1))    # held back
        second = shim.apply(record(2))   # releases the pair swapped
        assert first == []
        assert [r.seq for r in second] == [2, 1]
        assert shim.reordered == 1

    def test_flush_releases_held_record(self):
        shim = shim_of(reorder=1.0)
        shim.apply(record(1))
        assert [r.seq for r in shim.flush()] == [1]
        assert shim.flush() == []

    def test_seed_determinism(self):
        a = shim_of(loss=0.3, duplication=0.3, seed=7)
        b = shim_of(loss=0.3, duplication=0.3, seed=7)
        out_a = [len(a.apply(record(i))) for i in range(200)]
        out_b = [len(b.apply(record(i))) for i in range(200)]
        assert out_a == out_b
        assert a.lost == b.lost > 0

    def test_nothing_vanishes_silently(self):
        """Delivered + lost + held accounts for every offered record."""
        shim = shim_of(loss=0.2, duplication=0.2, reorder=0.2, delay=0.2,
                       seed=11)
        offered, delivered = 500, 0
        for i in range(offered):
            delivered += len(shim.apply(record(i)))
        delivered += len(shim.flush())
        assert delivered == offered + shim.duplicated - shim.lost
