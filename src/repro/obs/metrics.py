"""The unified metrics registry: counters, gauges, histograms, Prometheus.

One implementation now serves every layer: the serving plane (this module
absorbed ``repro.serve.metrics``, which re-exports it for compatibility)
and the summarization pipeline (:class:`~repro.metrics.PhaseTimer`
forwards phase timings here when a registry is active). Counters only go
up, gauges are set, histograms keep a bounded reservoir from which
percentiles are computed on snapshot. Everything is thread-safe because
observations come from the event loop, the batch-executor thread, and
loadgen workers.

Metrics may carry Prometheus-style labels (``registry.inc("x", labels=
{"op": "bfs"})``). :meth:`MetricsRegistry.to_prometheus` renders
the whole registry in the Prometheus text exposition format — served by
the query server's ``metrics`` op and its optional HTTP scrape endpoint
(``ServerConfig.metrics_port``) and verified against a minimal parser in
``tests/obs/test_prometheus.py``.

Like :mod:`repro.obs.trace`, pipeline instrumentation goes through the
module-level :func:`inc` / :func:`observe` / :func:`set_gauge`, which
no-op unless a registry is installed with :func:`use`.
"""

from __future__ import annotations

import math
import re
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "use",
    "active",
    "inc",
    "observe",
    "set_gauge",
]

#: Canonical flattened key for a labeled series, e.g. ``x{a="1",b="2"}``.
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Optional[Dict[str, object]]) -> LabelKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _flat_name(name: str, key: LabelKey) -> str:
    if not key:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in key)
    return f"{name}{{{inner}}}"


class Histogram:
    """Bounded-reservoir histogram with exact count/sum.

    Keeps the most recent ``capacity`` observations (a ring buffer), which
    is the standard trade-off for sliding-window latency percentiles: old
    samples age out instead of dominating forever.

    This is the **single** histogram implementation in the repo — the
    serving layer imports it from here, and the Hypothesis suite in
    ``tests/obs/test_metrics_unified.py`` property-tests it (percentiles
    are insertion-order-insensitive below capacity and always bounded by
    the reservoir min/max).
    """

    def __init__(self, capacity: int = 2048) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._capacity = capacity
        self._ring: List[float] = []
        self._next = 0
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.count += 1
        self.total += value
        if len(self._ring) < self._capacity:
            self._ring.append(value)
        else:
            self._ring[self._next] = value
            self._next = (self._next + 1) % self._capacity


    def percentile(self, q: float) -> Optional[float]:
        """Nearest-rank percentile over the reservoir (``q`` in [0, 100])."""
        if not self._ring:
            return None
        ordered = sorted(self._ring)
        rank = max(0, min(len(ordered) - 1,
                          int(round(q / 100.0 * (len(ordered) - 1)))))
        return ordered[rank]

    def summary(self) -> Dict[str, Any]:
        """count/mean/p50/p95/p99/max over the current reservoir."""
        if not self.count:
            return {"count": 0}
        return {
            "count": self.count,
            "mean": self.total / self.count,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "max": max(self._ring) if self._ring else None,
        }


class MetricsRegistry:
    """Named counters, gauges, and histograms behind one lock."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Dict[LabelKey, float]] = {}
        self._gauges: Dict[str, Dict[LabelKey, float]] = {}
        self._histograms: Dict[str, Dict[LabelKey, Histogram]] = {}
        self._started = time.monotonic()

    # ------------------------------------------------------------------
    def inc(
        self, name: str, amount: float = 1, *,
        labels: Optional[Dict[str, object]] = None,
    ) -> None:
        """Increment counter ``name`` (created at zero on first use)."""
        key = _label_key(labels)
        with self._lock:
            series = self._counters.setdefault(name, {})
            series[key] = series.get(key, 0) + amount

    def counter(
        self, name: str, *, labels: Optional[Dict[str, object]] = None,
    ) -> float:
        """Current value of a counter (0 if never incremented)."""
        with self._lock:
            return self._counters.get(name, {}).get(_label_key(labels), 0)

    def set_gauge(
        self, name: str, value: float, *,
        labels: Optional[Dict[str, object]] = None,
    ) -> None:
        """Set gauge ``name`` to ``value``."""
        with self._lock:
            self._gauges.setdefault(name, {})[_label_key(labels)] = value

    def gauge(
        self, name: str, *, labels: Optional[Dict[str, object]] = None,
    ) -> Optional[float]:
        """Current value of a gauge (``None`` if never set)."""
        with self._lock:
            return self._gauges.get(name, {}).get(_label_key(labels))

    def observe(
        self, name: str, value: float, *,
        labels: Optional[Dict[str, object]] = None,
    ) -> None:
        """Record ``value`` into histogram ``name``."""
        key = _label_key(labels)
        with self._lock:
            series = self._histograms.setdefault(name, {})
            hist = series.get(key)
            if hist is None:
                hist = series[key] = Histogram()
            hist.observe(value)

    def declare(
        self, name: str, *, labels: Optional[Dict[str, object]] = None,
    ) -> None:
        """Register histogram ``name`` empty, so it renders before use."""
        with self._lock:
            self._histograms.setdefault(name, {}).setdefault(
                _label_key(labels), Histogram())

    def histogram(
        self, name: str, *, labels: Optional[Dict[str, object]] = None,
    ) -> Optional[Histogram]:
        """The underlying histogram (``None`` if nothing was observed)."""
        with self._lock:
            return self._histograms.get(name, {}).get(_label_key(labels))

    # ------------------------------------------------------------------
    @property
    def uptime_seconds(self) -> float:
        """Seconds since the registry was created."""
        return time.monotonic() - self._started

    def snapshot(self) -> Dict[str, Any]:
        """JSON-serializable dump of every metric.

        Unlabeled series appear under their plain name; labeled series
        under ``name{k="v",...}`` — the stats op's wire format.
        """
        with self._lock:
            return {
                "uptime_seconds": self.uptime_seconds,
                "counters": {
                    _flat_name(name, key): value
                    for name, series in self._counters.items()
                    for key, value in series.items()
                },
                "gauges": {
                    _flat_name(name, key): value
                    for name, series in self._gauges.items()
                    for key, value in series.items()
                },
                "histograms": {
                    _flat_name(name, key): hist.summary()
                    for name, series in self._histograms.items()
                    for key, hist in series.items()
                },
            }

    def format_line(self) -> str:
        """One human-readable log line (the periodic server heartbeat)."""
        snap = self.snapshot()
        uptime = max(snap["uptime_seconds"], 1e-9)
        requests = snap["counters"].get("requests_total", 0)
        parts = [
            f"uptime={uptime:.0f}s",
            f"requests={requests}",
            f"qps={requests / uptime:.1f}",
        ]
        latency = snap["histograms"].get("request_latency_seconds")
        if latency and latency.get("count"):
            parts.append(
                "latency_ms p50={:.2f} p95={:.2f} p99={:.2f}".format(
                    latency["p50"] * 1e3,
                    latency["p95"] * 1e3,
                    latency["p99"] * 1e3,
                )
            )
        batch = snap["histograms"].get("batch_size")
        if batch and batch.get("count"):
            parts.append(f"batch_mean={batch['mean']:.1f}")
        for name in ("cache_hit_rate", "queue_depth", "inflight"):
            if name in snap["gauges"]:
                value = snap["gauges"][name]
                parts.append(
                    f"{name}={value:.2f}"
                    if isinstance(value, float) and name == "cache_hit_rate"
                    else f"{name}={value:g}"
                )
        errors = sum(
            count for name, count in snap["counters"].items()
            if name.startswith("errors_")
        )
        parts.append(f"errors={errors}")
        return "serve " + " ".join(parts)

    # ------------------------------------------------------------------
    # Prometheus text exposition format
    # ------------------------------------------------------------------
    def to_prometheus(self, prefix: str = "repro_") -> str:
        """Render every metric in the Prometheus text format (0.0.4).

        Counters render as ``counter``, gauges as ``gauge``, histograms
        as ``summary`` (quantile series plus ``_sum``/``_count``). Names
        are sanitized to the Prometheus grammar, label values escaped,
        and non-finite values skipped — the output stays NaN-free so any
        conformant scraper accepts it.
        """
        with self._lock:
            counters = {
                name: dict(series) for name, series in self._counters.items()
            }
            gauges = {
                name: dict(series) for name, series in self._gauges.items()
            }
            histograms = {
                name: {
                    key: (hist.count, hist.total, hist.percentile(50),
                          hist.percentile(95), hist.percentile(99))
                    for key, hist in series.items()
                }
                for name, series in self._histograms.items()
            }
        lines: List[str] = []
        for name in sorted(counters):
            metric = _prom_name(prefix + name)
            lines.append(f"# TYPE {metric} counter")
            for key, value in sorted(counters[name].items()):
                if _finite(value):
                    lines.append(
                        f"{metric}{_prom_labels(key)} {_prom_value(value)}"
                    )
        for name in sorted(gauges):
            metric = _prom_name(prefix + name)
            lines.append(f"# TYPE {metric} gauge")
            for key, value in sorted(gauges[name].items()):
                if _finite(value):
                    lines.append(
                        f"{metric}{_prom_labels(key)} {_prom_value(value)}"
                    )
        for name in sorted(histograms):
            metric = _prom_name(prefix + name)
            lines.append(f"# TYPE {metric} summary")
            for key, (count, total, p50, p95, p99) in sorted(
                histograms[name].items()
            ):
                for quantile, value in (("0.5", p50), ("0.95", p95),
                                        ("0.99", p99)):
                    if value is not None and _finite(value):
                        labeled = key + (("quantile", quantile),)
                        lines.append(
                            f"{metric}{_prom_labels(labeled)} "
                            f"{_prom_value(value)}"
                        )
                if _finite(total):
                    lines.append(
                        f"{metric}_sum{_prom_labels(key)} "
                        f"{_prom_value(total)}"
                    )
                lines.append(f"{metric}_count{_prom_labels(key)} {count}")
        return "\n".join(lines) + ("\n" if lines else "")


_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


def _prom_name(name: str) -> str:
    """Coerce an arbitrary metric name into the Prometheus grammar."""
    if _NAME_OK.match(name):
        return name
    cleaned = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not cleaned or not re.match(r"[a-zA-Z_:]", cleaned[0]):
        cleaned = "_" + cleaned
    return cleaned


def _prom_labels(key: LabelKey) -> str:
    if not key:
        return ""
    parts = []
    for label, value in key:
        escaped = (
            str(value)
            .replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
        )
        parts.append(f'{_prom_name(label)}="{escaped}"')
    return "{" + ",".join(parts) + "}"


def _prom_value(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def _finite(value: float) -> bool:
    try:
        return math.isfinite(value)
    except TypeError:
        return False


# ----------------------------------------------------------------------
# module-level active registry (the pipeline instrumentation seam)
# ----------------------------------------------------------------------
_ACTIVE: Optional[MetricsRegistry] = None


class _Use:
    """Context manager installing a process-wide active registry."""

    __slots__ = ("_registry", "_previous")

    def __init__(self, registry: Optional[MetricsRegistry]) -> None:
        self._registry = registry
        self._previous: Optional[MetricsRegistry] = None

    def __enter__(self) -> Optional[MetricsRegistry]:
        global _ACTIVE
        self._previous = _ACTIVE
        _ACTIVE = self._registry
        return self._registry

    def __exit__(self, exc_type, exc, tb) -> bool:
        global _ACTIVE
        _ACTIVE = self._previous
        return False


def use(registry: Optional[MetricsRegistry]) -> _Use:
    """``with use(registry):`` — route module-level calls to it."""
    return _Use(registry)


def active() -> Optional[MetricsRegistry]:
    """The currently installed registry, or ``None``."""
    return _ACTIVE


def inc(
    name: str, amount: float = 1, *,
    labels: Optional[Dict[str, object]] = None,
) -> None:
    """Increment on the active registry; no-op when none is installed."""
    registry = _ACTIVE
    if registry is not None:
        registry.inc(name, amount, labels=labels)


def observe(
    name: str, value: float, *,
    labels: Optional[Dict[str, object]] = None,
) -> None:
    """Observe on the active registry; no-op when none is installed."""
    registry = _ACTIVE
    if registry is not None:
        registry.observe(name, value, labels=labels)


def set_gauge(
    name: str, value: float, *,
    labels: Optional[Dict[str, object]] = None,
) -> None:
    """Set a gauge on the active registry; no-op when none installed."""
    registry = _ACTIVE
    if registry is not None:
        registry.set_gauge(name, value, labels=labels)
