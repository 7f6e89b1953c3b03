"""Shared pieces of the benchmark: the run outcome and small statistics."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0  # operations checked against a reference
    failed: int = 0  # operations that went wrong
    problems: list = field(default_factory=list)  # failed checks, one line each
    info: list = field(default_factory=list)  # context lines printed before the result
    end_to_end: dict = field(default_factory=dict)  # name -> (value, unit)
    per_layer: dict = field(default_factory=dict)  # name -> {"value", "unit"}
    absent: list = field(default_factory=list)  # layer metrics whose entry point is gone

    def count(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems.append(f"{what}: {failed} of {attempted} went wrong")

    @property
    def correct(self) -> bool:
        return not self.problems

    def set_end_to_end(self, latencies_ms, windows=1, **values) -> None:
        """Record the end-to-end metrics; ``latencies_ms`` gives both percentiles.

        With ``windows`` > 1 the samples (in time order) are cut into that
        many equal windows and p99 is the median of the windows' p99, so one
        stall of the shared host does not decide the run's tail.
        """
        units = {"setup_s": "s", "frames_per_s": "1/s", "wall_s": "s", "peak_rss_mb": "MB"}
        for name, value in values.items():
            self.end_to_end[name] = (value, units[name])
        size = len(latencies_ms) // windows
        tails = [percentile(latencies_ms[k * size : (k + 1) * size], 99) for k in range(windows)]
        self.end_to_end["latency_p50_ms"] = (percentile(latencies_ms, 50), "ms")
        self.end_to_end["latency_p99_ms"] = (median(tails), "ms")
        self.end_to_end["ok_frac"] = (1.0 - self.failed / max(self.attempted, 1), "ratio")
        quartiles = statistics.quantiles(tails, n=4) if len(tails) > 1 else tails
        self.info.append(
            f"latency samples: {len(latencies_ms)}; p99 over {windows} windows: "
            f"min {min(tails):.3f}, quartiles {[round(q, 3) for q in quartiles]}, max {max(tails):.3f}"
        )


def percentile(values, q):
    """q-th percentile (0-100), linear interpolation; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values):
    return statistics.median(values)
