"""Memory-bounded latency aggregation for open-loop load measurement.

Closed-loop runners keep one wall-clock sample per operation in a list
and sort it for percentiles — fine for a 200-operation scenario, fatal
for a load sweep that issues operations for minutes at a thousand per
second.  :class:`LatencyHistogram` is the bounded replacement: a
log-bucketed counter array at a fixed *relative* precision (the
HdrHistogram idea, hand-rolled so the repo stays dependency-free).
Recording is O(1), memory is O(log(max/min) / log(1 + precision))
regardless of sample count, and any percentile is reproducible to
within ``precision`` relative error.

:class:`LatencyCollector` is the coordinated-omission-correct view an
open-loop driver needs.  Every operation is recorded against the
*intended* arrival time its rate schedule assigned, not the moment the
driver got around to issuing it, and the collector keeps three
histograms:

* **response** — intended arrival → completion.  This is the number a
  user of a loaded system experiences; it includes every queueing delay
  a closed-loop harness silently hides.
* **service** — actual start → completion.  The engine-only cost, the
  number closed-loop harnesses report.
* **wait** — intended arrival → actual start.  The backlog delay
  itself; its mean is what the DES queueing model predicts.

A widening gap between response and service percentiles *is* the
coordinated-omission signal (pinned by the synthetic-stall test in
``tests/core/test_loadgen.py``).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Optional

from repro.errors import ParameterError

__all__ = ["LatencyHistogram", "LatencyCollector", "DEFAULT_LATE_GRACE"]

#: Start lag (seconds) below which an operation is not counted late —
#: sleep-based pacing always wakes a hair past the intended instant.
DEFAULT_LATE_GRACE = 1e-3


class LatencyHistogram:
    """Log-bucketed value histogram with fixed relative precision.

    Values are assigned to geometric buckets whose bounds grow by
    ``(1 + precision)``; a percentile reports its bucket's upper bound,
    clamped into the exactly-tracked ``[min, max]`` observed range, so
    the relative error of any reported quantile is at most
    ``precision``.  Values below ``min_value`` share one underflow
    bucket, values above ``max_value`` one overflow bucket (their exact
    extremes still come back through the min/max clamp).

    Histograms with identical ``(min_value, max_value, precision)``
    merge exactly; :meth:`to_dict` / :meth:`from_dict` round-trip the
    full state through JSON (sparse — only occupied buckets).
    """

    __slots__ = ("min_value", "max_value", "precision", "count", "total",
                 "min", "max", "_counts", "_log_growth", "_bucket_limit")

    def __init__(self, min_value: float = 1e-6, max_value: float = 3600.0,
                 precision: float = 0.01) -> None:
        if min_value <= 0.0:
            raise ParameterError(
                f"min_value must be > 0, got {min_value}")
        if max_value <= min_value:
            raise ParameterError(
                f"max_value must exceed min_value, got "
                f"{max_value} <= {min_value}")
        if not 0.0 < precision < 1.0:
            raise ParameterError(
                f"precision must be in (0, 1), got {precision}")
        self.min_value = float(min_value)
        self.max_value = float(max_value)
        self.precision = float(precision)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = 0.0
        self._counts: Dict[int, int] = {}
        self._log_growth = math.log1p(precision)
        # Index of the overflow bucket: one past the last regular bucket.
        self._bucket_limit = 1 + int(math.ceil(
            math.log(self.max_value / self.min_value) / self._log_growth))

    # -- recording ------------------------------------------------------- #

    def _index_of(self, value: float) -> int:
        if value <= self.min_value:
            return 0
        index = 1 + int(math.log(value / self.min_value) / self._log_growth)
        return min(index, self._bucket_limit)

    def _value_of(self, index: int) -> float:
        """The representative (upper bound) of bucket *index*."""
        if index <= 0:
            return self.min_value
        if index >= self._bucket_limit:
            return self.max_value
        return self.min_value * math.exp(index * self._log_growth)

    def record(self, value: float) -> None:
        """Fold one sample (negative values clamp to zero)."""
        value = max(0.0, float(value))
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        index = self._index_of(value)
        self._counts[index] = self._counts.get(index, 0) + 1

    def record_many(self, values: Iterable[float]) -> None:
        """Fold an iterable of samples."""
        for value in values:
            self.record(value)

    # -- queries --------------------------------------------------------- #

    @property
    def mean(self) -> float:
        """Exact mean of every recorded sample (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    @property
    def buckets_used(self) -> int:
        """Occupied buckets (the histogram's actual memory footprint)."""
        return len(self._counts)

    def percentile(self, q: float) -> float:
        """The *q*-th percentile (0..100); 0.0 when empty.

        Relative error is bounded by ``precision`` for in-range values;
        the result is clamped into the exact observed ``[min, max]``.
        """
        if not 0.0 <= q <= 100.0:
            raise ParameterError(f"q must be in [0, 100], got {q}")
        if not self.count:
            return 0.0
        target = max(1, int(math.ceil(q / 100.0 * self.count)))
        cumulative = 0
        value = self.max_value
        for index in sorted(self._counts):
            cumulative += self._counts[index]
            if cumulative >= target:
                value = self._value_of(index)
                break
        return min(max(value, self.min), self.max)

    def percentiles(self) -> "object":
        """P50/P95/P99/P99.9 as a :class:`LatencyPercentiles`."""
        from repro.core.metrics import LatencyPercentiles
        return LatencyPercentiles(count=self.count,
                                  p50=self.percentile(50.0),
                                  p95=self.percentile(95.0),
                                  p99=self.percentile(99.0),
                                  p999=self.percentile(99.9))

    def sample_inverse(self, u: float) -> float:
        """The value at CDF position ``u`` in [0, 1) — inverse-transform
        sampling hook for the DES service-time model."""
        if not 0.0 <= u < 1.0:
            raise ParameterError(f"u must be in [0, 1), got {u}")
        return self.percentile(u * 100.0)

    # -- composition ----------------------------------------------------- #

    def compatible(self, other: "LatencyHistogram") -> bool:
        """Whether *other* uses this histogram's bucket geometry."""
        return (self.min_value == other.min_value
                and self.max_value == other.max_value
                and self.precision == other.precision)

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram (same geometry required) into this one."""
        if not self.compatible(other):
            raise ParameterError(
                "cannot merge histograms with different geometry: "
                f"({self.min_value}, {self.max_value}, {self.precision}) "
                f"vs ({other.min_value}, {other.max_value}, "
                f"{other.precision})")
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        for index, count in other._counts.items():
            self._counts[index] = self._counts.get(index, 0) + count

    # -- serialization ---------------------------------------------------- #

    def to_dict(self) -> dict:
        """JSON-ready full state (sparse bucket mapping)."""
        return {
            "min_value": self.min_value,
            "max_value": self.max_value,
            "precision": self.precision,
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "buckets": {str(index): count
                        for index, count in sorted(self._counts.items())},
        }

    @classmethod
    def from_dict(cls, spec: Mapping[str, object]) -> "LatencyHistogram":
        """Rebuild from :meth:`to_dict` output."""
        histogram = cls(min_value=float(spec["min_value"]),  # type: ignore
                        max_value=float(spec["max_value"]),  # type: ignore
                        precision=float(spec["precision"]))  # type: ignore
        histogram.count = int(spec.get("count", 0))  # type: ignore
        histogram.total = float(spec.get("total", 0.0))  # type: ignore
        minimum = spec.get("min")
        maximum = spec.get("max")
        histogram.min = float(minimum) if minimum is not None else math.inf
        histogram.max = float(maximum) if maximum is not None else 0.0
        buckets = spec.get("buckets") or {}
        histogram._counts = {int(index): int(count)
                             for index, count in buckets.items()}
        return histogram

    def summary_ms(self, prefix: str) -> Dict[str, float]:
        """Flat ``{prefix}_pNN_ms`` mapping for BENCH cells."""
        return {
            f"{prefix}_p50_ms": self.percentile(50.0) * 1e3,
            f"{prefix}_p95_ms": self.percentile(95.0) * 1e3,
            f"{prefix}_p99_ms": self.percentile(99.0) * 1e3,
            f"{prefix}_p999_ms": self.percentile(99.9) * 1e3,
            f"{prefix}_mean_ms": self.mean * 1e3,
        }

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"LatencyHistogram(count={self.count}, "
                f"mean={self.mean:.6f}, buckets={self.buckets_used})")


class LatencyCollector:
    """Coordinated-omission-correct per-operation timing aggregation.

    ``record(intended, started, completed)`` folds one operation into
    the three histograms (response / service / wait — see the module
    docs) and counts it late when its start lagged the intended arrival
    by more than ``late_grace`` seconds.  ``note_backlog`` tracks the
    deepest arrival backlog the pacing loop observed.  Collectors are
    plain picklable objects so parallel workers can ship them back.
    """

    def __init__(self, late_grace: float = DEFAULT_LATE_GRACE,
                 min_value: float = 1e-6, max_value: float = 3600.0,
                 precision: float = 0.01) -> None:
        if late_grace < 0.0:
            raise ParameterError(
                f"late_grace must be >= 0, got {late_grace}")
        self.late_grace = late_grace
        self.response = LatencyHistogram(min_value, max_value, precision)
        self.service = LatencyHistogram(min_value, max_value, precision)
        self.wait = LatencyHistogram(min_value, max_value, precision)
        self.operations = 0
        self.late_starts = 0
        self.max_backlog = 0

    def record(self, intended: float, started: float,
               completed: float) -> bool:
        """Fold one operation; returns whether it started late."""
        self.operations += 1
        self.response.record(completed - intended)
        self.service.record(completed - started)
        lag = started - intended
        self.wait.record(lag)
        late = lag > self.late_grace
        if late:
            self.late_starts += 1
        return late

    def note_backlog(self, depth: int) -> None:
        """Track the deepest due-but-unstarted arrival backlog seen."""
        if depth > self.max_backlog:
            self.max_backlog = depth

    def merge(self, other: "LatencyCollector") -> None:
        """Fold another collector (multi-worker merges)."""
        self.response.merge(other.response)
        self.service.merge(other.service)
        self.wait.merge(other.wait)
        self.operations += other.operations
        self.late_starts += other.late_starts
        self.max_backlog = max(self.max_backlog, other.max_backlog)

    def to_dict(self) -> dict:
        """JSON-ready summary + full histograms (round-trippable)."""
        return {
            "operations": self.operations,
            "late_starts": self.late_starts,
            "max_backlog": self.max_backlog,
            "late_grace": self.late_grace,
            "response": self.response.to_dict(),
            "service": self.service.to_dict(),
            "wait": self.wait.to_dict(),
        }

    @classmethod
    def from_dict(cls, spec: Mapping[str, object]) -> "LatencyCollector":
        """Rebuild from :meth:`to_dict` output."""
        collector = cls(late_grace=float(spec.get("late_grace",
                                                  DEFAULT_LATE_GRACE)))
        collector.response = LatencyHistogram.from_dict(
            spec["response"])  # type: ignore[arg-type]
        collector.service = LatencyHistogram.from_dict(
            spec["service"])  # type: ignore[arg-type]
        collector.wait = LatencyHistogram.from_dict(
            spec["wait"])  # type: ignore[arg-type]
        collector.operations = int(spec.get("operations", 0))  # type: ignore
        collector.late_starts = int(spec.get("late_starts", 0))  # type: ignore
        collector.max_backlog = int(spec.get("max_backlog", 0))  # type: ignore
        return collector

    def cell_fields(self) -> Dict[str, object]:
        """The flat latency fields of one load-sweep cell."""
        fields: Dict[str, object] = {
            "late_starts": self.late_starts,
            "max_backlog": self.max_backlog,
        }
        fields.update(self.response.summary_ms("response"))
        fields.update(self.service.summary_ms("service"))
        fields["wait_mean_ms"] = self.wait.mean * 1e3
        fields["wait_p95_ms"] = self.wait.percentile(95.0) * 1e3
        return fields
