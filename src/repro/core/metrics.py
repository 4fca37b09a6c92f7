"""OCB metrics (Section 3.3 of the paper).

The paper measures, globally *and per transaction type*:

* database response time (we report both simulated and wall-clock),
* the number of accessed objects,
* the number of I/Os performed, split into **transaction I/Os** and
  **clustering I/O overhead**.

Those aggregates live in one place: each phase folds every executed
operation into one :class:`~repro.core.scenario.OpClassStats` per class,
and :meth:`~repro.core.scenario.ScenarioPhase.transactions` is the
per-transaction-type view the paper's tables quote.  This module holds
the wall-clock latency summary those aggregates report.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.stats import BoundedSample

__all__ = ["LatencyPercentiles"]


@dataclass(frozen=True)
class LatencyPercentiles:
    """Wall-clock latency summary of a sample set (seconds)."""

    count: int
    p50: float
    p95: float
    p99: float
    p999: float = 0.0

    @classmethod
    def from_samples(cls, samples: BoundedSample) -> "LatencyPercentiles":
        """Percentiles of *samples*; all-zero when no samples exist."""
        if not len(samples):
            return cls(count=0, p50=0.0, p95=0.0, p99=0.0)
        return cls(count=len(samples),
                   p50=samples.percentile(50.0),
                   p95=samples.percentile(95.0),
                   p99=samples.percentile(99.0),
                   p999=samples.percentile(99.9))

    def describe(self, scale: float = 1e3, unit: str = "ms") -> str:
        """One line, e.g. ``P50 0.12 ms | P95 0.50 ms | P99 0.91 ms``."""
        return (f"P50 {self.p50 * scale:.3f} {unit} | "
                f"P95 {self.p95 * scale:.3f} {unit} | "
                f"P99 {self.p99 * scale:.3f} {unit}")
