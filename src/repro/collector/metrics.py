"""Collection-plane observability registry.

Lightweight, dependency-free metric primitives for the collector: monotone
counters, gauges, and fixed-bucket histograms, each optionally labelled
(per query, per switch).  The registry renders to one text exposition
(``render_prometheus`` — what ``collect-stats``, ``txn-stats``, ``metrics``
and the service's ``/metrics`` print) and to a JSON-serialisable snapshot
(``snapshot``, per-bin histogram counts).

Design points:

* **Labels are tuples of (key, value) pairs**, sorted at observation time,
  so ``{"qid": "Q1"}`` and the same mapping in another order land in one
  series.
* **Histograms use fixed buckets** chosen at declaration (queue depths,
  batch sizes, latencies); observations are O(#buckets), memory is O(1) —
  the collector must not grow with traffic.
* Everything is plain Python ints/floats: deterministic, picklable, and
  safe to diff in tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Sample",
    "DEPTH_BUCKETS",
    "BATCH_BUCKETS",
    "LATENCY_BUCKETS_S",
]

LabelPairs = Tuple[Tuple[str, str], ...]

#: Queue-depth buckets (reports waiting per switch queue).
DEPTH_BUCKETS: Tuple[float, ...] = (0, 1, 8, 64, 512, 4096, 32768)

#: Batch-size buckets (reports per window batch).
BATCH_BUCKETS: Tuple[float, ...] = (0, 1, 16, 256, 4096, 65536)

#: Wall-clock latency buckets in seconds (window batch processing).
LATENCY_BUCKETS_S: Tuple[float, ...] = (
    1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0,
)


def _labels_of(labels: Optional[Mapping[str, object]]) -> LabelPairs:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(pairs: LabelPairs) -> str:
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in pairs)
    return "{" + inner + "}"


class Sample(NamedTuple):
    """One exposition-ready series value.

    Histograms expand into their Prometheus family members: one
    ``<name>_bucket`` sample per bound (cumulative, ``le``-labelled,
    including ``+Inf``) plus ``<name>_count`` and ``<name>_sum``.
    """

    name: str
    labels: LabelPairs
    value: float

    def labels_map(self) -> Dict[str, str]:
        return dict(self.labels)


@dataclass
class Counter:
    """Monotonically increasing counter, one value per label set."""

    name: str
    help: str = ""
    _series: Dict[LabelPairs, int] = field(default_factory=dict)

    def inc(self, n: int = 1, **labels: object) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        key = _labels_of(labels)
        self._series[key] = self._series.get(key, 0) + n

    def value(self, **labels: object) -> int:
        return self._series.get(_labels_of(labels), 0)

    @property
    def total(self) -> int:
        return sum(self._series.values())

    def series(self) -> Dict[LabelPairs, int]:
        return dict(self._series)

    def merge(self, other: "Counter") -> None:
        """Fold another counter in: per-label-set sums (label-safe —
        series that exist only on one side carry over unchanged)."""
        for key, value in other._series.items():
            self._series[key] = self._series.get(key, 0) + value


@dataclass
class Gauge:
    """Point-in-time value, one per label set."""

    name: str
    help: str = ""
    _series: Dict[LabelPairs, float] = field(default_factory=dict)

    def set(self, value: float, **labels: object) -> None:
        self._series[_labels_of(labels)] = value

    def value(self, **labels: object) -> float:
        return self._series.get(_labels_of(labels), 0.0)

    def series(self) -> Dict[LabelPairs, float]:
        return dict(self._series)

    def merge(self, other: "Gauge") -> None:
        """Fold another gauge in: the incoming observation is newer, so a
        label-set collision resolves last-write-wins (gauges are
        point-in-time values — summing them would fabricate a reading
        neither side ever observed)."""
        self._series.update(other._series)


@dataclass
class _HistogramSeries:
    counts: List[int]
    total: int = 0
    sum: float = 0.0


@dataclass
class Histogram:
    """Fixed-bucket histogram: per-bin counts (an observation lands in the
    first bucket whose bound it does not exceed), plus a +Inf overflow
    bin, a total count, and a running sum."""

    name: str
    buckets: Tuple[float, ...]
    help: str = ""
    _series: Dict[LabelPairs, _HistogramSeries] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.buckets or list(self.buckets) != sorted(self.buckets):
            raise ValueError(
                f"histogram {self.name} needs sorted, non-empty buckets"
            )

    def observe(self, value: float, **labels: object) -> None:
        key = _labels_of(labels)
        series = self._series.get(key)
        if series is None:
            series = _HistogramSeries(counts=[0] * (len(self.buckets) + 1))
            self._series[key] = series
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                series.counts[i] += 1
                break
        else:
            series.counts[-1] += 1  # +Inf bucket
        series.total += 1
        series.sum += value

    def count(self, **labels: object) -> int:
        series = self._series.get(_labels_of(labels))
        return series.total if series else 0

    def bucket_counts(self, **labels: object) -> List[int]:
        series = self._series.get(_labels_of(labels))
        if series is None:
            return [0] * (len(self.buckets) + 1)
        return list(series.counts)

    def mean(self, **labels: object) -> float:
        series = self._series.get(_labels_of(labels))
        if series is None or series.total == 0:
            return 0.0
        return series.sum / series.total

    def series(self) -> Dict[LabelPairs, _HistogramSeries]:
        return dict(self._series)

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram in: per-label-set bin/total/sum sums.

        Only meaningful between histograms declared over the same bucket
        bounds — merging different binnings would silently misfile
        observations, so that is an error, not a best-effort.
        """
        if tuple(other.buckets) != tuple(self.buckets):
            raise ValueError(
                f"histogram {self.name!r} bucket bounds differ: "
                f"{self.buckets} vs {other.buckets}"
            )
        for key, theirs in other._series.items():
            mine = self._series.get(key)
            if mine is None:
                self._series[key] = _HistogramSeries(
                    counts=list(theirs.counts),
                    total=theirs.total,
                    sum=theirs.sum,
                )
                continue
            mine.counts = [a + b for a, b in zip(mine.counts, theirs.counts)]
            mine.total += theirs.total
            mine.sum += theirs.sum


class MetricsRegistry:
    """Named registry of the collector's counters/gauges/histograms."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- declaration (idempotent: same name returns the same metric) ---- #

    def counter(self, name: str, help: str = "") -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            self._check_fresh(name)
            metric = Counter(name=name, help=help)
            self._counters[name] = metric
        return metric

    def gauge(self, name: str, help: str = "") -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            self._check_fresh(name)
            metric = Gauge(name=name, help=help)
            self._gauges[name] = metric
        return metric

    def histogram(self, name: str, buckets: Iterable[float],
                  help: str = "") -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            self._check_fresh(name)
            metric = Histogram(name=name, buckets=tuple(buckets), help=help)
            self._histograms[name] = metric
        return metric

    def _check_fresh(self, name: str) -> None:
        if (name in self._counters or name in self._gauges
                or name in self._histograms):
            raise ValueError(f"metric {name!r} already registered "
                             f"with a different type")

    # -- aggregation ---------------------------------------------------- #

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold another registry into this one, in place.

        Per metric name: counters sum per label set, histograms sum their
        bins/count/sum per label set (bucket bounds must match), gauges
        take the incoming value on a label-set collision (last write
        wins).  Metrics present only in ``other`` are declared here with
        ``other``'s help text.  A name registered with different *types*
        on the two sides raises :class:`ValueError` before anything is
        modified, so a failed merge never leaves this registry half
        updated.  Returns ``self`` so per-shard registries chain:
        ``merged.merge(a).merge(b)``.
        """
        for name in other._counters:
            if name in self._gauges or name in self._histograms:
                raise ValueError(
                    f"metric {name!r} is a counter in the incoming "
                    f"registry but not in this one"
                )
        for name in other._gauges:
            if name in self._counters or name in self._histograms:
                raise ValueError(
                    f"metric {name!r} is a gauge in the incoming "
                    f"registry but not in this one"
                )
        for name, theirs in other._histograms.items():
            if name in self._counters or name in self._gauges:
                raise ValueError(
                    f"metric {name!r} is a histogram in the incoming "
                    f"registry but not in this one"
                )
            mine = self._histograms.get(name)
            if mine is not None and tuple(mine.buckets) != tuple(
                theirs.buckets
            ):
                raise ValueError(
                    f"histogram {name!r} bucket bounds differ: "
                    f"{mine.buckets} vs {theirs.buckets}"
                )
        for name, their_counter in other._counters.items():
            self.counter(name, their_counter.help).merge(their_counter)
        for name, their_gauge in other._gauges.items():
            self.gauge(name, their_gauge.help).merge(their_gauge)
        for name, their_histogram in other._histograms.items():
            self.histogram(
                name, their_histogram.buckets, their_histogram.help
            ).merge(their_histogram)
        return self

    # -- exposition ----------------------------------------------------- #

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-serialisable view of every series.

        Iteration order is stable: metric names sorted alphabetically
        (counters, then gauges, then histograms are interleaved by name),
        and each metric's series sorted by its label pairs — two
        registries holding the same values snapshot identically.
        """
        out: Dict[str, Dict[str, object]] = {}
        for name in sorted(self._counters):
            counter = self._counters[name]
            series = counter.series()
            out[name] = {
                "type": "counter",
                "help": counter.help,
                "series": {
                    _render_labels(k) or "_": series[k]
                    for k in sorted(series)
                },
            }
        for name in sorted(self._gauges):
            gauge = self._gauges[name]
            series = gauge.series()
            out[name] = {
                "type": "gauge",
                "help": gauge.help,
                "series": {
                    _render_labels(k) or "_": series[k]
                    for k in sorted(series)
                },
            }
        for name in sorted(self._histograms):
            histogram = self._histograms[name]
            hseries = histogram.series()
            out[name] = {
                "type": "histogram",
                "help": histogram.help,
                "buckets": list(histogram.buckets),
                "series": {
                    _render_labels(k) or "_": {
                        "counts": list(hseries[k].counts),
                        "total": hseries[k].total,
                        "sum": hseries[k].sum,
                    }
                    for k in sorted(hseries)
                },
            }
        return out

    def _families(self) -> Iterator[Tuple[str, str, str, List[Sample]]]:
        """The one walk behind both text expositions: every metric as
        ``(name, type, help, samples)``, names sorted within a type and
        label sets within a name.  Histogram buckets are *cumulative*
        (each ``le`` bound counts every observation at or below it) —
        Prometheus semantics, not the per-bin counts of
        :meth:`snapshot`."""
        for kind, metrics in (("counter", self._counters),
                              ("gauge", self._gauges)):
            for name in sorted(metrics):
                series = metrics[name].series()
                yield name, kind, metrics[name].help, [
                    Sample(name, pairs, float(series[pairs]))
                    for pairs in sorted(series)
                ]
        for name in sorted(self._histograms):
            histogram = self._histograms[name]
            hseries = histogram.series()
            bounds = [f"{b:g}" for b in histogram.buckets] + ["+Inf"]
            family: List[Sample] = []
            for pairs in sorted(hseries):
                entry = hseries[pairs]
                running = 0
                for bound, count in zip(bounds, entry.counts):
                    running += count
                    family.append(Sample(
                        f"{name}_bucket", pairs + (("le", bound),),
                        float(running),
                    ))
                family.append(
                    Sample(f"{name}_count", pairs, float(entry.total))
                )
                family.append(Sample(f"{name}_sum", pairs, float(entry.sum)))
            yield name, "histogram", histogram.help, family

    def samples(self) -> Iterator[Sample]:
        """Every series as ``(name, labels, value)`` in a stable order:
        iterating twice over an unchanged registry yields the identical
        sequence (the order of :meth:`render_prometheus`, headers
        aside)."""
        for _name, _kind, _help, family in self._families():
            yield from family

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4): the
        :meth:`samples` under ``# HELP``/``# TYPE`` headers, help text
        and label values escaped (backslashes, quotes, newlines),
        integral values printed as integers, and the trailing newline
        the format requires."""
        def esc(text: str) -> str:
            return text.replace("\\", "\\\\").replace("\n", "\\n")

        def fmt(value: float) -> str:
            if value == int(value) and abs(value) < 1e15:
                return str(int(value))
            return repr(value)

        lines: List[str] = []
        for name, kind, help_text, family in self._families():
            if help_text:
                lines.append(f"# HELP {name} {esc(help_text)}")
            lines.append(f"# TYPE {name} {kind}")
            for sample in family:
                labels = _render_labels(tuple(
                    (k, esc(v).replace('"', '\\"')) for k, v in sample.labels
                ))
                lines.append(f"{sample.name}{labels} {fmt(sample.value)}")
        return "\n".join(lines) + "\n"
