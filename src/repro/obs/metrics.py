"""Named counters and histograms for chase and engine runs.

The :class:`MetricsRegistry` is the single sink the instrumented layers
write to — it absorbs the counters that used to live scattered across
``ChaseStats`` and ``RunRecord`` (those dataclasses remain as
per-run *views*; the registry is the accumulating store an engine or a
long-lived service would scrape).

Conventions:

* counters are monotone (``chase.tuples.inserted``,
  ``chase.egd.checks``, ``chase.waves``, …); per-reason
  fallbacks use a ``….fallback.reason:<reason>`` namespace
  (``chase.shard.``, ``olap.lattice.``) so the *why* of every one is
  visible;
* histograms record distributions (``chase.wave.width``,
  ``chase.wave.duration_s``, ``engine.determination_s``, …) as
  count/total/min/max running moments — no per-sample storage, so a
  histogram costs O(1) memory regardless of run length.

Updates happen at rule/wave/run granularity, never per tuple, so the
registry adds no measurable overhead to the chase hot loops.
"""

from __future__ import annotations

import threading
from typing import Any, Dict

__all__ = ["Counter", "Histogram", "MetricsRegistry"]


class Counter:
    """A named monotone counter."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self._lock = threading.Lock()

    def add(self, amount: int = 1) -> None:
        with self._lock:
            self.value += amount


class Histogram:
    """Running count/total/min/max moments of an observed quantity."""

    __slots__ = ("name", "count", "total", "min", "max", "_lock")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def absorb(self, count: int, total: float, minimum: float, maximum: float) -> None:
        """Merge another histogram's running moments into this one."""
        if not count:
            return
        with self._lock:
            self.count += count
            self.total += total
            if minimum < self.min:
                self.min = minimum
            if maximum > self.max:
                self.max = maximum

    def snapshot(self) -> Dict[str, float]:
        if not self.count:
            return {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0}
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }


class MetricsRegistry:
    """Thread-safe registry of named counters and histograms.

    Instruments are created on first use; reads of instruments that
    were never touched return zero, so callers need no existence
    checks.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instruments --------------------------------------------------------
    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            with self._lock:
                counter = self._counters.setdefault(name, Counter(name))
        return counter

    def histogram(self, name: str) -> Histogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            with self._lock:
                histogram = self._histograms.setdefault(name, Histogram(name))
        return histogram

    # -- recording ----------------------------------------------------------
    def inc(self, name: str, amount: int = 1) -> None:
        self.counter(name).add(amount)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    def absorb(self, snapshot: Dict[str, Any], prefix: str = "") -> None:
        """Merge a :meth:`snapshot` from another registry into this one.

        Used to fold shard-worker registries back into the parent,
        namespaced (``prefix="chase.shard:<i>."``) so per-shard counts
        stay distinguishable from the parent's own instruments.
        """
        for name, value in (snapshot.get("counters") or {}).items():
            if value:
                self.inc(prefix + name, value)
        for name, moments in (snapshot.get("histograms") or {}).items():
            if moments.get("count"):
                self.histogram(prefix + name).absorb(
                    moments["count"],
                    moments["total"],
                    moments["min"],
                    moments["max"],
                )

    # -- reading ------------------------------------------------------------
    def value(self, name: str) -> int:
        """A counter's current value (0 if it never fired)."""
        counter = self._counters.get(name)
        return counter.value if counter is not None else 0

    def counters(self, prefix: str = "") -> Dict[str, int]:
        """All counter values whose name starts with ``prefix``."""
        return {
            name: counter.value
            for name, counter in sorted(self._counters.items())
            if name.startswith(prefix)
        }

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-serializable dump of every instrument."""
        return {
            "counters": self.counters(),
            "histograms": {
                name: histogram.snapshot()
                for name, histogram in sorted(self._histograms.items())
            },
        }

    def render(self) -> str:
        """Human-readable two-section table of the whole registry."""
        lines = []
        if self._counters:
            width = max(len(n) for n in self._counters) + 2
            lines.append("counters:")
            for name, value in self.counters().items():
                lines.append(f"  {name:<{width}} {value}")
        if self._histograms:
            width = max(len(n) for n in self._histograms) + 2
            lines.append("histograms:")
            for name, histogram in sorted(self._histograms.items()):
                snap = histogram.snapshot()
                lines.append(
                    f"  {name:<{width}} count={snap['count']} "
                    f"total={snap['total']:.6g} mean={snap['mean']:.6g} "
                    f"min={snap['min']:.6g} max={snap['max']:.6g}"
                )
        return "\n".join(lines) if lines else "(no metrics recorded)"
