"""Metrics registry: counters, gauges and histograms with labels.

A :class:`MetricsRegistry` is a standalone aggregation container (tests
instantiate their own); the module also hosts one process-global
registry that the convenience functions :func:`inc` / :func:`gauge` /
:func:`observe` write into *only while observability is enabled* — so
instrumented hot paths cost a single boolean check when it is off.

Typical instrument points in this repository:

- per-layer spike counts and spike rates (``snn.spike_rate{layer=i}``);
- Algorithm-1 residuals ``Delta_alpha_beta`` and search effort;
- per-layer threshold ``mu`` / ``alpha`` / ``beta`` trajectories;
- epoch wall-clock and loss/accuracy curves.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from .core import _STATE

_MAX_SAMPLES = 65_536


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only increase")
        self.value += amount


class Gauge:
    """Last-written value plus the full written trajectory."""

    __slots__ = ("value", "trajectory")

    def __init__(self) -> None:
        self.value: Optional[float] = None
        self.trajectory: List[float] = []

    def set(self, value: float) -> None:
        self.value = float(value)
        if len(self.trajectory) < _MAX_SAMPLES:
            self.trajectory.append(self.value)


class Histogram:
    """Sample distribution with count/sum kept exact and a bounded
    sample reservoir for the percentile estimates."""

    __slots__ = ("count", "total", "minimum", "maximum", "samples")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self.samples: List[float] = []

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)
        if len(self.samples) < _MAX_SAMPLES:
            self.samples.append(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def std(self) -> float:
        if not self.samples:
            return 0.0
        mean = sum(self.samples) / len(self.samples)
        return math.sqrt(
            sum((s - mean) ** 2 for s in self.samples) / len(self.samples)
        )

    def percentile(self, q: float) -> float:
        """Linearly interpolated percentile ``q`` in [0, 100].

        Raises :class:`ValueError` on an empty histogram — a percentile
        of nothing is a caller bug, not a zero.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError("q must be in [0, 100]")
        if not self.samples:
            raise ValueError(
                "cannot take a percentile of an empty histogram "
                "(no samples observed)"
            )
        ordered = sorted(self.samples)
        position = (len(ordered) - 1) * q / 100.0
        low = int(math.floor(position))
        high = int(math.ceil(position))
        if low == high:
            return ordered[low]
        weight = position - low
        return ordered[low] * (1.0 - weight) + ordered[high] * weight

    @property
    def median(self) -> float:
        return self.percentile(50.0)


MetricKey = Tuple[str, Tuple[Tuple[str, object], ...]]


def _key(name: str, labels: dict) -> MetricKey:
    return (name, tuple(sorted(labels.items())))


def _render_key(key: MetricKey) -> str:
    name, labels = key
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Aggregates named, labelled metrics of the three kinds."""

    def __init__(self) -> None:
        self._counters: Dict[MetricKey, Counter] = {}
        self._gauges: Dict[MetricKey, Gauge] = {}
        self._histograms: Dict[MetricKey, Histogram] = {}

    # -- accessors (create on first use) -------------------------------
    def counter(self, name: str, **labels) -> Counter:
        return self._counters.setdefault(_key(name, labels), Counter())

    def gauge(self, name: str, **labels) -> Gauge:
        return self._gauges.setdefault(_key(name, labels), Gauge())

    def histogram(self, name: str, **labels) -> Histogram:
        return self._histograms.setdefault(_key(name, labels), Histogram())

    # -- write-style shorthands ----------------------------------------
    def inc(self, name: str, amount: float = 1.0, **labels) -> None:
        self.counter(name, **labels).inc(amount)

    def set_gauge(self, name: str, value: float, **labels) -> None:
        self.gauge(name, **labels).set(value)

    def observe(self, name: str, value: float, **labels) -> None:
        self.histogram(name, **labels).observe(value)

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def snapshot(self) -> dict:
        """JSON-ready summary of every metric."""
        return {
            "counters": {
                _render_key(k): c.value for k, c in sorted(self._counters.items())
            },
            "gauges": {
                _render_key(k): {
                    "value": g.value,
                    "trajectory": list(g.trajectory),
                }
                for k, g in sorted(self._gauges.items())
            },
            "histograms": {
                _render_key(k): {
                    "count": h.count,
                    "mean": h.mean,
                    "std": h.std,
                    "min": h.minimum if h.count else None,
                    "max": h.maximum if h.count else None,
                    "p50": h.median if h.samples else None,
                    "p95": h.percentile(95.0) if h.samples else None,
                }
                for k, h in sorted(self._histograms.items())
            },
        }


_GLOBAL = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global registry the convenience writers target."""
    return _GLOBAL


def reset_registry() -> None:
    _GLOBAL.reset()


# ----------------------------------------------------------------------
# Hot-path writers: single enabled-check, then delegate.
# ----------------------------------------------------------------------
def inc(name: str, amount: float = 1.0, **labels) -> None:
    if _STATE.enabled:
        _GLOBAL.inc(name, amount, **labels)


def gauge(name: str, value: float, **labels) -> None:
    if _STATE.enabled:
        _GLOBAL.set_gauge(name, value, **labels)


def observe(name: str, value: float, **labels) -> None:
    if _STATE.enabled:
        _GLOBAL.observe(name, value, **labels)
