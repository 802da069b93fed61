"""Structured tracing: deterministic hierarchical spans over the pipeline.

A :class:`Tracer` records a tree of :class:`Span` objects. Unlike typical
tracing systems, span *ids are deterministic*: each id is a digest of
``(parent id, span name, span key)`` and the trace id is a digest of the
run seed. Two runs of the same configuration therefore produce the same
ids for the same structural positions — which makes the span tree itself
a regression oracle (the golden-trace suite pins it), and makes a
checkpoint-resumed run emit spans *identical* to the ones the
uninterrupted run would have emitted for the same iterations.

Instrumented library code never touches a tracer directly; it calls the
module-level :func:`span` which consults the active tracer installed by
:func:`use`. When no tracer is active (the default), :func:`span` returns
a shared no-op context manager — one global read, one ``is None`` test,
and a constant return, so always-on instrumentation costs nanoseconds
(benchmarked in ``benchmarks/test_obs_overhead.py``).

Cross-process propagation: :meth:`Tracer.context` captures the current
position as a small dict; another process rebuilds a child tracer from
it with :meth:`Tracer.from_context`, records spans, and ships
:meth:`Tracer.records` back for the caller to :meth:`Tracer.ingest`.
Because ids are deterministic, the stitched tree is identical to the one
a single-process run would have produced.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from typing import Any, Dict, Iterable, List, Optional

__all__ = ["Span", "Tracer", "span", "use", "active", "context"]


def _digest(*parts: object) -> str:
    """16-hex-char stable id from the structural position."""
    h = hashlib.sha1("/".join(str(p) for p in parts).encode("utf-8"))
    return h.hexdigest()[:16]


def _jsonable(value: Any) -> Any:
    """Coerce attribute values to JSON-safe scalars (numpy ints, etc.)."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float, str)):
        return value
    if hasattr(value, "item"):          # numpy scalar
        return value.item()
    return str(value)


class Span:
    """One timed, attributed node of the trace tree.

    Use as a context manager (entered by :meth:`Tracer.span`). Durations
    are wall-clock and explicitly excluded from golden comparisons;
    names, keys, parent edges and attributes are the pinned structure.
    """

    __slots__ = (
        "name", "key", "span_id", "parent_id", "trace_id",
        "attributes", "start_time", "duration", "status", "_tracer",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        key: Optional[object],
        span_id: str,
        parent_id: str,
        attributes: Dict[str, Any],
    ) -> None:
        self.name = name
        self.key = key
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = tracer.trace_id
        self.attributes = attributes
        self.start_time = 0.0
        self.duration = 0.0
        self.status = "ok"
        self._tracer = tracer

    def set_attribute(self, name: str, value: Any) -> None:
        """Attach one attribute (coerced to a JSON-safe scalar)."""
        self.attributes[name] = _jsonable(value)

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        self.start_time = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration = time.perf_counter() - self.start_time
        if exc_type is not None:
            self.status = "error"
            self.attributes.setdefault("error", exc_type.__name__)
        self._tracer._pop(self)
        return False

    def record(self) -> Dict[str, Any]:
        """Serialize to a JSONL-ready dict (the export wire format)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "key": self.key,
            "attributes": dict(self.attributes),
            "start_time": self.start_time,
            "duration": self.duration,
            "status": self.status,
        }


class _NoopSpan:
    """Shared do-nothing span returned when tracing is disabled."""

    __slots__ = ()

    def set_attribute(self, name: str, value: Any) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NOOP_SPAN = _NoopSpan()


class Tracer:
    """Collects spans with deterministic ids derived from ``seed``.

    Thread-safe: the finished-span list is guarded by a lock and the
    open-span stack is thread-local, so spans opened on different threads
    (the serve event loop vs. its batch executor, loadgen workers) nest
    independently. ``max_spans`` bounds memory for long-running servers;
    spans beyond the cap are counted in :attr:`dropped`, never stored.
    """

    def __init__(self, seed: object = 0, max_spans: int = 1_000_000) -> None:
        self.trace_id = _digest("trace", seed)
        self.max_spans = max_spans
        self.spans: List[Span] = []
        self.dropped = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._default_parent = self.trace_id
        self._child_counts: Dict[tuple, int] = {}

    # ------------------------------------------------------------------
    # context propagation
    # ------------------------------------------------------------------
    def context(self) -> Dict[str, str]:
        """Portable handle to the current position (for workers)."""
        current = self._stack()[-1] if self._stack() else None
        return {
            "trace_id": self.trace_id,
            "span_id": current.span_id if current else self.trace_id,
        }

    @classmethod
    def from_context(cls, ctx: Dict[str, str]) -> "Tracer":
        """Child tracer whose root spans attach under ``ctx``'s span."""
        tracer = cls()
        tracer.trace_id = ctx["trace_id"]
        tracer._default_parent = ctx["span_id"]
        return tracer

    def records(self) -> List[Dict[str, Any]]:
        """Serialized finished spans (what a worker ships back)."""
        with self._lock:
            return [s.record() for s in self.spans]

    def ingest(self, records: Iterable[Dict[str, Any]]) -> None:
        """Adopt spans recorded elsewhere (worker processes)."""
        for doc in records:
            span_obj = Span(
                self, doc["name"], doc.get("key"), doc["span_id"],
                doc["parent_id"], dict(doc.get("attributes") or {}),
            )
            span_obj.trace_id = doc.get("trace_id", self.trace_id)
            span_obj.start_time = doc.get("start_time", 0.0)
            span_obj.duration = doc.get("duration", 0.0)
            span_obj.status = doc.get("status", "ok")
            self._store(span_obj)

    # ------------------------------------------------------------------
    # span lifecycle
    # ------------------------------------------------------------------
    def span(
        self,
        name: str,
        key: Optional[object] = None,
        parent: Optional[object] = None,
        **attrs: Any,
    ) -> Span:
        """Open a child span of the current span (or of ``parent``).

        ``parent`` may be a :class:`Span`, a context dict from
        :meth:`context`, or ``None`` (ambient: the thread's innermost
        open span). Spans opened on *other* threads pass an explicit
        parent because the open-span stack is thread-local.

        ``key`` disambiguates repeated same-name children under one
        parent (iteration number, batch index, ...). When omitted, the
        per-parent occurrence index is used — deterministic for runs
        with deterministic structure, but *not* stable across resume
        boundaries, so resume-critical spans always pass an explicit key.
        """
        if isinstance(parent, dict):
            parent_id = parent["span_id"]
        elif isinstance(parent, Span):
            parent_id = parent.span_id
        else:
            stack = self._stack()
            parent_id = stack[-1].span_id if stack else self._default_parent
        if key is None:
            with self._lock:
                index = self._child_counts.get((parent_id, name), 0)
                self._child_counts[(parent_id, name)] = index + 1
            key = index
        span_id = _digest(parent_id, name, key)
        attributes = {k: _jsonable(v) for k, v in attrs.items()}
        return Span(self, name, key, span_id, parent_id, attributes)

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _push(self, span_obj: Span) -> None:
        self._stack().append(span_obj)

    def _pop(self, span_obj: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span_obj:
            stack.pop()
        self._store(span_obj)

    def _store(self, span_obj: Span) -> None:
        with self._lock:
            if len(self.spans) >= self.max_spans:
                self.dropped += 1
                return
            self.spans.append(span_obj)

    # ------------------------------------------------------------------
    # inspection and export
    # ------------------------------------------------------------------
    def tree(self, include_attributes: bool = True) -> List[Dict[str, Any]]:
        """Canonical nested view: names, keys, parent edges, attributes.

        Children are sorted by ``(name, str(key))`` so the result is
        independent of completion order (worker batches finish in any
        order); durations and timestamps are omitted. This is the exact
        structure the golden-trace suite pins.
        """
        with self._lock:
            spans = list(self.spans)
        ids = {s.span_id for s in spans}
        children: Dict[str, List[Span]] = {}
        roots: List[Span] = []
        for s in spans:
            if s.parent_id in ids:
                children.setdefault(s.parent_id, []).append(s)
            else:
                roots.append(s)

        def build(node: Span) -> Dict[str, Any]:
            doc: Dict[str, Any] = {"name": node.name, "key": node.key}
            if include_attributes:
                doc["attributes"] = dict(node.attributes)
            kids = sorted(
                children.get(node.span_id, []),
                key=lambda c: (c.name, str(c.key)),
            )
            doc["children"] = [build(c) for c in kids]
            return doc

        roots.sort(key=lambda s: (s.name, str(s.key)))
        return [build(root) for root in roots]

    def find(self, name: str) -> List[Span]:
        """All finished spans with the given name (completion order)."""
        with self._lock:
            return [s for s in self.spans if s.name == name]

    def export_jsonl(self, path: str) -> int:
        """Write one span record per line; returns the number written."""
        with self._lock:
            records = [s.record() for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            for doc in records:
                fh.write(json.dumps(doc, sort_keys=True) + "\n")
        return len(records)


# ----------------------------------------------------------------------
# module-level active tracer (the instrumentation seam)
# ----------------------------------------------------------------------
_ACTIVE: Optional[Tracer] = None


class _Use:
    """Context manager installing a tracer as the process-wide active one."""

    __slots__ = ("_tracer", "_previous")

    def __init__(self, tracer: Optional[Tracer]) -> None:
        self._tracer = tracer
        self._previous: Optional[Tracer] = None

    def __enter__(self) -> Optional[Tracer]:
        global _ACTIVE
        self._previous = _ACTIVE
        _ACTIVE = self._tracer
        return self._tracer

    def __exit__(self, exc_type, exc, tb) -> bool:
        global _ACTIVE
        _ACTIVE = self._previous
        return False


def use(tracer: Optional[Tracer]) -> _Use:
    """``with use(tracer):`` — route :func:`span` calls to ``tracer``."""
    return _Use(tracer)


def active() -> Optional[Tracer]:
    """The currently installed tracer, or ``None``."""
    return _ACTIVE


def context() -> Optional[Dict[str, str]]:
    """Current trace context for worker propagation (``None`` if off)."""
    tracer = _ACTIVE
    return tracer.context() if tracer is not None else None


def span(
    name: str,
    key: Optional[object] = None,
    parent: Optional[object] = None,
    **attrs: Any,
):
    """Open a span on the active tracer; a shared no-op when disabled."""
    tracer = _ACTIVE
    if tracer is None:
        return _NOOP_SPAN
    return tracer.span(name, key, parent, **attrs)
