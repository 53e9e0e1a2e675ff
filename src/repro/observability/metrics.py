"""Typed metric instruments: counters, gauges, streaming histograms.

A :class:`MetricsRegistry` hands out named instruments with optional
label sets, Prometheus-style:

>>> registry = MetricsRegistry()
>>> registry.counter("repro_queries_total", engine="planned").inc()
>>> registry.histogram("repro_query_seconds", engine="planned").observe(0.004)
>>> print(registry.to_prometheus())

Instruments are cheap, lock-guarded and allocation-light so they can sit
on the per-query path.  :class:`Histogram` keeps fixed cumulative-bucket
counts (Prometheus ``le`` semantics) **and** a bounded reservoir of raw
observations, so p50/p95/p99 are exact while the stream fits the
reservoir and a deterministic subsample estimate after that.

Exports: :meth:`MetricsRegistry.collect` (plain dict),
:meth:`MetricsRegistry.to_json`, and
:meth:`MetricsRegistry.to_prometheus` (text exposition format).

Governance metrics (recorded by the engine/governance layers):

* ``repro_query_aborts_total{engine,kind}`` — executions aborted by
  governance; ``kind`` is ``timeout`` / ``cancelled`` /
  ``resource_exhausted`` / ``fault``.
* ``repro_admission_running`` / ``repro_admission_queued`` — live gauges
  of the database's admission controller.
* ``repro_admission_admitted_total`` / ``repro_admission_rejected_total``
  — admission outcomes (rejections cover queue overflow and admission
  timeouts).
"""

from __future__ import annotations

import atexit
import json
import os
import threading
from bisect import bisect_left, insort
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Default latency buckets (seconds), 100µs .. 10s; +Inf is implicit.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Quantiles reported by :meth:`Histogram.percentiles`.
QUANTILES: Tuple[float, ...] = (0.5, 0.95, 0.99)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> Dict[str, float]:
        return {"value": self._value}


class Gauge:
    """A value that can go up and down (cache sizes, hit rates)."""

    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> Dict[str, float]:
        return {"value": self._value}


class Histogram:
    """A streaming distribution: fixed buckets plus quantile estimates.

    Bucket counts follow Prometheus semantics (cumulative ``le`` bounds
    with an implicit ``+Inf``).  Quantiles come from a bounded sorted
    reservoir: **exact** while the observation count stays within
    ``reservoir`` (the common case for per-process query streams), and a
    deterministic every-k-th subsample beyond that — no randomness, so
    repeated runs report identical figures.
    """

    __slots__ = (
        "_lock", "buckets", "_bucket_counts", "_count", "_sum",
        "_reservoir", "_reservoir_max", "_stride", "_since_kept",
    )

    def __init__(
        self,
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        *,
        reservoir: int = 1024,
    ):
        self.buckets: Tuple[float, ...] = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("a histogram needs at least one bucket bound")
        self._lock = threading.Lock()
        self._bucket_counts = [0] * (len(self.buckets) + 1)  # +1 for +Inf
        self._count = 0
        self._sum = 0.0
        self._reservoir: List[float] = []
        self._reservoir_max = max(int(reservoir), 2)
        #: Keep every ``_stride``-th observation once the reservoir is
        #: full; doubling the stride halves the kept set, keeping the
        #: subsample spread over the whole stream.
        self._stride = 1
        self._since_kept = 0

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self._count += 1
            self._sum += value
            self._bucket_counts[bisect_left(self.buckets, value)] += 1
            self._since_kept += 1
            if self._since_kept >= self._stride:
                self._since_kept = 0
                insort(self._reservoir, value)
                if len(self._reservoir) > self._reservoir_max:
                    # Thin to every other kept sample and double the stride.
                    self._reservoir = self._reservoir[::2]
                    self._stride *= 2

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (0 <= q <= 1) of the observed stream."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        with self._lock:
            sample = self._reservoir
            if not sample:
                return 0.0
            index = min(int(q * len(sample)), len(sample) - 1)
            return sample[index]

    def percentiles(self) -> Dict[str, float]:
        """p50/p95/p99 of the observed stream."""
        return {f"p{int(q * 100)}": self.quantile(q) for q in QUANTILES}

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``(le_bound, cumulative_count)`` pairs, ending with +Inf."""
        with self._lock:
            pairs: List[Tuple[float, int]] = []
            running = 0
            for bound, count in zip(self.buckets, self._bucket_counts):
                running += count
                pairs.append((bound, running))
            pairs.append((float("inf"), running + self._bucket_counts[-1]))
            return pairs

    def snapshot(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "count": self._count,
            "sum": self._sum,
            "buckets": [
                [bound, count] for bound, count in self.cumulative_buckets()
            ],
        }
        data.update(self.percentiles())
        return data


class _Family:
    """All instruments sharing one metric name (one per label set)."""

    __slots__ = ("name", "kind", "help", "instruments")

    def __init__(self, name: str, kind: str, help_text: str):
        self.name = name
        self.kind = kind
        self.help = help_text
        self.instruments: Dict[Tuple[Tuple[str, str], ...], Any] = {}


class MetricsRegistry:
    """A process-local registry of named, labelled metric instruments.

    ``counter`` / ``gauge`` / ``histogram`` return the existing
    instrument for a ``(name, labels)`` pair or create it; asking for one
    name with two different instrument types raises.  Export via
    :meth:`collect`, :meth:`to_json` or :meth:`to_prometheus`.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._families: "Dict[str, _Family]" = {}

    def _instrument(self, name: str, kind: str, help_text: str, labels: Dict[str, Any], make):
        key = tuple(sorted((str(k), str(v)) for k, v in labels.items()))
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = self._families[name] = _Family(name, kind, help_text)
            elif family.kind != kind:
                raise ValueError(
                    f"metric {name!r} is a {family.kind}, not a {kind}"
                )
            elif help_text and not family.help:
                family.help = help_text
            instrument = family.instruments.get(key)
            if instrument is None:
                instrument = family.instruments[key] = make()
            return instrument

    def counter(self, name: str, help: str = "", **labels: Any) -> Counter:
        """The counter for ``(name, labels)``, created on first use."""
        return self._instrument(name, "counter", help, labels, Counter)

    def gauge(self, name: str, help: str = "", **labels: Any) -> Gauge:
        """The gauge for ``(name, labels)``, created on first use."""
        return self._instrument(name, "gauge", help, labels, Gauge)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Sequence[float]] = None,
        **labels: Any,
    ) -> Histogram:
        """The histogram for ``(name, labels)``, created on first use."""
        make = (lambda: Histogram(buckets)) if buckets is not None else Histogram
        return self._instrument(name, "histogram", help, labels, make)

    def set_gauges(self, values: Dict[str, float], **labels: Any) -> None:
        """Bulk-set one gauge per ``{name: value}`` entry (absorbing an
        ad-hoc stats dict into typed instruments)."""
        for name, value in values.items():
            self.gauge(name, **labels).set(value)

    # -- export ---------------------------------------------------------- #
    def collect(self) -> Dict[str, Any]:
        """Every instrument's current state as plain data."""
        with self._lock:
            families = list(self._families.values())
        output: Dict[str, Any] = {}
        for family in families:
            values = []
            for key, instrument in sorted(family.instruments.items()):
                entry: Dict[str, Any] = {"labels": dict(key)}
                entry.update(instrument.snapshot())
                values.append(entry)
            output[family.name] = {
                "type": family.kind,
                "help": family.help,
                "values": values,
            }
        return output

    def to_json(self, indent: Optional[int] = None) -> str:
        """The :meth:`collect` payload as JSON."""
        return json.dumps(self.collect(), indent=indent, default=str)

    def to_prometheus(self) -> str:
        """The registry in the Prometheus text exposition format."""
        with self._lock:
            families = list(self._families.values())
        lines: List[str] = []
        for family in families:
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for key, instrument in sorted(family.instruments.items()):
                labels = dict(key)
                if isinstance(instrument, Histogram):
                    for bound, count in instrument.cumulative_buckets():
                        le = "+Inf" if bound == float("inf") else _format_value(bound)
                        bucket_labels = dict(labels)
                        bucket_labels["le"] = le
                        lines.append(
                            f"{family.name}_bucket{_format_labels(bucket_labels)} {count}"
                        )
                    lines.append(
                        f"{family.name}_sum{_format_labels(labels)} "
                        f"{_format_value(instrument.sum)}"
                    )
                    lines.append(
                        f"{family.name}_count{_format_labels(labels)} {instrument.count}"
                    )
                else:
                    lines.append(
                        f"{family.name}{_format_labels(labels)} "
                        f"{_format_value(instrument.value)}"
                    )
        return "\n".join(lines) + ("\n" if lines else "")


def _format_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    parts = ",".join(
        f'{name}="{_escape_label(value)}"' for name, value in sorted(labels.items())
    )
    return "{" + parts + "}"


def _escape_label(value: Any) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    # Integers render without a trailing ".0" (Prometheus accepts both;
    # the shorter form diffs cleanly in tests and dashboards).
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


#: The process-default registry :class:`~repro.engine.database.Database`
#: records into unless given its own.
DEFAULT_REGISTRY = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The shared process-default registry."""
    return DEFAULT_REGISTRY


def _dump_default_registry(path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(DEFAULT_REGISTRY.to_json(indent=2) + "\n")


_METRICS_ENV_PATH = os.environ.get("REPRO_METRICS")
if _METRICS_ENV_PATH:  # pragma: no cover - exercised by the CI example job
    atexit.register(_dump_default_registry, _METRICS_ENV_PATH)
