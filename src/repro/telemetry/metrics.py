"""Counters, gauges, histograms, and cache tallies in one registry.

:class:`MetricsRegistry` is the process-wide home of every metric the
library records.  Four metric kinds cover what the hot paths need:

* :class:`Counter` — a monotone event count (``campaign executions``);
* :class:`Gauge` — a last-written level (``peak facets per round``);
* :class:`Histogram` — a value distribution with exact percentile math
  (``closure decision latency``);
* :class:`CacheCounter` — paired hit/miss tallies for one memoized layer
  (``one-round-complex[…]``, ``closure.membership``, …).

Naming convention (see docs/OBSERVABILITY.md): lowercase dotted/bracketed
component paths, e.g. ``faults.campaign.executions`` or
``one-round-complex[iterated-immediate-snapshot]``.  Snapshots flatten a
registry into ``kind:name[:field] -> number`` entries so the tracer can
attach per-span metric *deltas* — the difference between the snapshots
taken when the span opened and closed.

All recording methods are single attribute updates; fetch the metric once
(at import, or first use) and keep the reference on the hot path.
"""

from __future__ import annotations

from typing import Optional, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "CacheCounter",
    "MetricsRegistry",
    "default_registry",
]

Number = Union[int, float]


class Counter:
    """A monotonically increasing event tally."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (non-negative) events."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def reset(self) -> None:
        """Zero the tally (the counter stays registered)."""
        self.value = 0

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self.value})"


class Gauge:
    """A last-written level; unlike a counter it may move both ways."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: Number) -> None:
        """Record the current level."""
        self.value = float(value)

    def reset(self) -> None:
        """Return the gauge to zero."""
        self.value = 0.0

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, value={self.value})"


class Histogram:
    """An exact value distribution (all observations are retained).

    The workloads this library measures are bounded (thousands of closure
    decisions, hundreds of campaign trials), so the histogram keeps the
    raw observations and computes percentiles exactly by linear
    interpolation between closest ranks — the same convention as
    ``numpy.percentile(..., interpolation="linear")``, reimplemented here
    to stay dependency-free.
    """

    __slots__ = ("name", "_values", "_sorted")

    def __init__(self, name: str) -> None:
        self.name = name
        self._values: list[float] = []
        self._sorted = True

    def observe(self, value: Number) -> None:
        """Record one observation."""
        self._values.append(float(value))
        self._sorted = False

    @property
    def count(self) -> int:
        """Number of observations."""
        return len(self._values)

    @property
    def total(self) -> float:
        """Sum of all observations."""
        return sum(self._values)

    @property
    def mean(self) -> Optional[float]:
        """Arithmetic mean (``None`` when empty)."""
        return self.total / len(self._values) if self._values else None

    def percentile(self, p: float) -> Optional[float]:
        """The ``p``-th percentile, ``0 ≤ p ≤ 100`` (``None`` when empty).

        Linear interpolation between closest ranks: rank
        ``r = (n - 1) · p / 100`` interpolates between the observations at
        ``⌊r⌋`` and ``⌈r⌉`` of the sorted sample.
        """
        if not 0 <= p <= 100:
            raise ValueError(f"percentile {p} outside [0, 100]")
        if not self._values:
            return None
        if not self._sorted:
            self._values.sort()
            self._sorted = True
        rank = (len(self._values) - 1) * p / 100.0
        low = int(rank)
        high = min(low + 1, len(self._values) - 1)
        fraction = rank - low
        return (
            self._values[low] * (1.0 - fraction)
            + self._values[high] * fraction
        )

    def summary(self) -> dict[str, float]:
        """``count/sum/min/max/p50/p90/p99`` (all zero when empty)."""
        if not self._values:
            return {
                "count": 0.0, "sum": 0.0, "min": 0.0, "max": 0.0,
                "p50": 0.0, "p90": 0.0, "p99": 0.0,
            }
        p50 = self.percentile(50)
        p90 = self.percentile(90)
        p99 = self.percentile(99)
        assert p50 is not None and p90 is not None and p99 is not None
        return {
            "count": float(len(self._values)),
            "sum": self.total,
            "min": min(self._values),
            "max": max(self._values),
            "p50": p50,
            "p90": p90,
            "p99": p99,
        }

    def reset(self) -> None:
        """Drop every observation (the histogram stays registered)."""
        self._values.clear()
        self._sorted = True

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={len(self._values)})"


class CacheCounter:
    """Hit/miss tallies for one named cache (or construction site).

    For a memoizing layer, every ``miss`` is one materialization of the
    cached object, so ``constructions`` is an alias of ``misses``; layers
    that build unconditionally (no cache in front) record via
    :meth:`built` and report zero hits.
    """

    __slots__ = ("name", "hits", "misses")

    def __init__(self, name: str) -> None:
        self.name = name
        self.hits = 0
        self.misses = 0

    def hit(self) -> None:
        """Record a lookup served from the cache."""
        self.hits += 1

    def miss(self) -> None:
        """Record a lookup that had to materialize the object."""
        self.misses += 1

    #: Construction sites without a cache record every build as a miss.
    built = miss

    @property
    def calls(self) -> int:
        """Total lookups (hits + misses)."""
        return self.hits + self.misses

    @property
    def constructions(self) -> int:
        """Materializations — for a memoized layer, exactly the misses."""
        return self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        calls = self.calls
        return self.hits / calls if calls else 0.0

    def reset(self) -> None:
        """Zero the tallies (the counter stays registered)."""
        self.hits = 0
        self.misses = 0

    def __repr__(self) -> str:
        return (
            f"CacheCounter({self.name!r}, hits={self.hits}, "
            f"misses={self.misses})"
        )


class MetricsRegistry:
    """Name-keyed home of every metric of one process (or one test).

    Metrics are created lazily on first fetch and aggregate across every
    holder of the same name — exactly what a sweep constructing many
    short-lived operators needs.  A fresh registry can be instantiated for
    isolation (tests, nested benchmark harnesses); the library's shared
    instance is :func:`default_registry`.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._caches: dict[str, CacheCounter] = {}

    # ------------------------------------------------------------------
    # Lazy fetch-or-create accessors
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        """The counter registered under ``name`` (created lazily)."""
        found = self._counters.get(name)
        if found is None:
            found = self._counters[name] = Counter(name)
        return found

    def gauge(self, name: str) -> Gauge:
        """The gauge registered under ``name`` (created lazily)."""
        found = self._gauges.get(name)
        if found is None:
            found = self._gauges[name] = Gauge(name)
        return found

    def histogram(self, name: str) -> Histogram:
        """The histogram registered under ``name`` (created lazily)."""
        found = self._histograms.get(name)
        if found is None:
            found = self._histograms[name] = Histogram(name)
        return found

    def cache(self, name: str) -> CacheCounter:
        """The cache counter registered under ``name`` (created lazily)."""
        found = self._caches.get(name)
        if found is None:
            found = self._caches[name] = CacheCounter(name)
        return found

    # ------------------------------------------------------------------
    # Enumeration
    # ------------------------------------------------------------------
    def caches(self) -> list[CacheCounter]:
        """Every registered cache counter, sorted by name."""
        return [self._caches[name] for name in sorted(self._caches)]

    def counters(self) -> list[Counter]:
        """Every registered counter, sorted by name."""
        return [self._counters[name] for name in sorted(self._counters)]

    def gauges(self) -> list[Gauge]:
        """Every registered gauge, sorted by name."""
        return [self._gauges[name] for name in sorted(self._gauges)]

    def histograms(self) -> list[Histogram]:
        """Every registered histogram, sorted by name."""
        return [
            self._histograms[name] for name in sorted(self._histograms)
        ]

    # ------------------------------------------------------------------
    # Snapshots and deltas (the tracer's per-span accounting)
    # ------------------------------------------------------------------
    def cache_snapshot(self) -> dict[str, tuple[int, int]]:
        """An immutable ``{name: (hits, misses)}`` view of the caches."""
        return {
            name: (entry.hits, entry.misses)
            for name, entry in self._caches.items()
        }

    @staticmethod
    def cache_delta(
        before: dict[str, tuple[int, int]],
        after: dict[str, tuple[int, int]],
    ) -> dict[str, tuple[int, int]]:
        """Per-cache ``(hits, misses)`` added between two snapshots.

        Caches absent from ``before`` start from zero; caches unchanged
        between the snapshots are omitted.
        """
        changed: dict[str, tuple[int, int]] = {}
        for name, (hits, misses) in after.items():
            base_hits, base_misses = before.get(name, (0, 0))
            step = (hits - base_hits, misses - base_misses)
            if step != (0, 0):
                changed[name] = step
        return changed

    def snapshot(self) -> dict[str, float]:
        """Flatten every *cumulative* metric into ``key -> number``.

        Keys are ``counter:<name>``, ``cache:<name>:hits``,
        ``cache:<name>:misses``, ``hist:<name>:count`` and
        ``hist:<name>:sum``.  Gauges are levels, not accumulations, so
        they are excluded — a gauge delta is meaningless.
        """
        flat: dict[str, float] = {}
        for name, entry in self._counters.items():
            flat[f"counter:{name}"] = entry.value
        for name, cache in self._caches.items():
            flat[f"cache:{name}:hits"] = cache.hits
            flat[f"cache:{name}:misses"] = cache.misses
        for name, histogram in self._histograms.items():
            flat[f"hist:{name}:count"] = histogram.count
            flat[f"hist:{name}:sum"] = histogram.total
        return flat

    @staticmethod
    def delta(
        before: dict[str, float], after: dict[str, float]
    ) -> dict[str, float]:
        """Per-key accumulation between two snapshots (zeros omitted).

        Keys absent from ``before`` start from zero; keys unchanged
        between the snapshots are omitted.
        """
        changed: dict[str, float] = {}
        for key, value in after.items():
            step = value - before.get(key, 0)
            if step:
                changed[key] = step
        return changed

    # ------------------------------------------------------------------
    # Reset
    # ------------------------------------------------------------------
    def reset_caches(self) -> None:
        """Zero every cache counter."""
        for cache in self._caches.values():
            cache.reset()

    def reset(self) -> None:
        """Zero every metric of every kind (all stay registered)."""
        for counter in self._counters.values():
            counter.reset()
        for gauge in self._gauges.values():
            gauge.reset()
        for histogram in self._histograms.values():
            histogram.reset()
        for cache in self._caches.values():
            cache.reset()


_DEFAULT = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-wide shared registry (what the hot paths report into)."""
    return _DEFAULT
