"""Collector metrics registry tests."""

import pytest

from repro.collector.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_inc_and_labels(self):
        c = Counter("reports")
        c.inc(qid="Q1")
        c.inc(2, qid="Q1")
        c.inc(qid="Q2")
        assert c.value(qid="Q1") == 3
        assert c.value(qid="Q2") == 1
        assert c.total == 4

    def test_label_order_is_canonical(self):
        c = Counter("x")
        c.inc(a=1, b=2)
        c.inc(b=2, a=1)
        assert c.total == 2
        assert len(c.series()) == 1

    def test_monotone(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)

    def test_unlabelled_series(self):
        c = Counter("x")
        c.inc()
        assert c.value() == 1


class TestGauge:
    def test_set_overwrites(self):
        g = Gauge("depth")
        g.set(3, switch="s0")
        g.set(7, switch="s0")
        assert g.value(switch="s0") == 7

    def test_missing_reads_zero(self):
        assert Gauge("depth").value(switch="s0") == 0.0


class TestHistogram:
    def test_bucketing(self):
        h = Histogram("d", buckets=(1, 10, 100))
        for v in (0, 1, 5, 50, 500):
            h.observe(v)
        assert h.bucket_counts() == [2, 1, 1, 1]  # last is +Inf overflow
        assert h.count() == 5
        assert h.mean() == pytest.approx((0 + 1 + 5 + 50 + 500) / 5)

    def test_labelled_series_are_independent(self):
        h = Histogram("d", buckets=(1,))
        h.observe(0, qid="A")
        h.observe(2, qid="B")
        assert h.bucket_counts(qid="A") == [1, 0]
        assert h.bucket_counts(qid="B") == [0, 1]

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("d", buckets=(10, 1))

    def test_empty_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("d", buckets=())


class TestRegistry:
    def test_idempotent_declaration(self):
        registry = MetricsRegistry()
        a = registry.counter("x", "help")
        b = registry.counter("x")
        assert a is b

    def test_type_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_render_is_stable_and_complete(self):
        registry = MetricsRegistry()
        registry.counter("b_total", "bees").inc(qid="Q1")
        registry.gauge("a_depth").set(4, switch="s0")
        registry.histogram("lat", (1, 2)).observe(1.5)
        text = registry.render_prometheus()
        assert 'b_total{qid="Q1"} 1' in text
        assert 'a_depth{switch="s0"} 4' in text
        assert "lat_count 1" in text
        assert registry.render_prometheus() == text  # deterministic

    def test_snapshot_is_json_serialisable(self):
        import json

        registry = MetricsRegistry()
        registry.counter("c").inc(qid="Q1")
        registry.histogram("h", (1,)).observe(0.5, switch="s0")
        json.dumps(registry.snapshot())
