"""Exposition contract: stable sample order + Prometheus text format."""

from repro.collector.metrics import MetricsRegistry, Sample


def populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("zeta_total", "last alphabetically").inc(3)
    registry.counter("alpha_total", "first alphabetically").inc(1, qid="Q2")
    registry.counter("alpha_total").inc(2, qid="Q1")
    registry.gauge("mid_gauge", "a gauge").set(1.5, switch="s0")
    hist = registry.histogram("lat_seconds", (0.01, 0.1, 1.0), "latency")
    for value in (0.005, 0.05, 0.05, 0.5, 5.0):
        hist.observe(value)
    return registry


class TestSampleOrder:
    def test_samples_sorted_by_name_then_labels(self):
        names = [s.name for s in populated_registry().samples()]
        # Counters, gauges, histograms — each block name-sorted; label
        # sets sort within a name (Q1 before Q2).
        assert names == [
            "alpha_total", "alpha_total", "zeta_total", "mid_gauge",
            "lat_seconds_bucket", "lat_seconds_bucket",
            "lat_seconds_bucket", "lat_seconds_bucket",
            "lat_seconds_count", "lat_seconds_sum",
        ]
        labels = [s.labels for s in populated_registry().samples()
                  if s.name == "alpha_total"]
        assert labels == [(("qid", "Q1"),), (("qid", "Q2"),)]

    def test_two_identical_registries_emit_identical_sequences(self):
        assert (list(populated_registry().samples())
                == list(populated_registry().samples()))

    def test_snapshot_iteration_order_is_stable(self):
        snap = populated_registry().snapshot()
        # Name-sorted within each type block (counters, gauges,
        # histograms), identical across equal registries.
        assert list(snap) == [
            "alpha_total", "zeta_total", "mid_gauge", "lat_seconds",
        ]
        assert snap == populated_registry().snapshot()
        assert list(snap["alpha_total"]["series"]) == [
            '{qid="Q1"}', '{qid="Q2"}',
        ]

    def test_histogram_samples_are_cumulative_with_inf_equal_count(self):
        samples = list(populated_registry().samples())
        buckets = [s for s in samples if s.name == "lat_seconds_bucket"]
        values = [s.value for s in buckets]
        assert values == sorted(values), "buckets must be cumulative"
        inf = [s for s in buckets if dict(s.labels)["le"] == "+Inf"]
        count = next(s for s in samples if s.name == "lat_seconds_count")
        assert inf[0].value == count.value == 5

    def test_sample_is_a_named_view(self):
        sample = Sample("n", (("a", "b"),), 1.0)
        assert sample.labels_map() == {"a": "b"}


class TestPrometheusRendering:
    def test_headers_and_series_lines(self):
        text = populated_registry().render_prometheus()
        assert text.endswith("\n")
        lines = text.splitlines()
        assert "# HELP alpha_total first alphabetically" in lines
        assert "# TYPE alpha_total counter" in lines
        assert 'alpha_total{qid="Q1"} 2' in lines
        assert "# TYPE mid_gauge gauge" in lines
        assert 'mid_gauge{switch="s0"} 1.5' in lines
        assert "# TYPE lat_seconds histogram" in lines
        assert 'lat_seconds_bucket{le="+Inf"} 5' in lines
        assert "lat_seconds_count 5" in lines

    def test_cumulative_buckets_differ_from_the_per_bin_snapshot(self):
        registry = populated_registry()
        # The JSON snapshot keeps per-bin counts; the text exposition
        # must show running totals.
        family = registry.snapshot()["lat_seconds"]
        bins = dict(zip(family["buckets"], family["series"]["_"]["counts"]))
        assert bins[1.0] == 1
        assert 'lat_seconds_bucket{le="1"} 4' in registry.render_prometheus()

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter("esc_total").inc(1, path='a"b\\c\nd')
        line = [ln for ln in registry.render_prometheus().splitlines()
                if ln.startswith("esc_total{")][0]
        assert line == 'esc_total{path="a\\"b\\\\c\\nd"} 1'

    def test_integer_values_render_without_decimal_point(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(3.0)
        assert "g 3" in registry.render_prometheus().splitlines()

    def test_empty_registry_renders_empty_document(self):
        assert MetricsRegistry().render_prometheus() == "\n"
