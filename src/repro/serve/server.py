"""Asyncio TCP server answering summary queries.

:class:`SummaryServer` owns a :class:`CompiledSummaryIndex` and serves
``neighbors`` / ``degree`` / ``has_edge`` / ``bfs`` queries over the
length-prefixed JSON protocol in :mod:`repro.serve.protocol`. The design
is a miniature inference server:

* **Batching** — query requests land in a queue; a single batcher task
  pops up to ``max_batch`` items as soon as the executor is free and runs
  them as one vectorized pass in a worker thread
  (:func:`repro.serve.batching.execute_batch`). Whatever arrives while a
  batch runs forms the next one, so batches grow only under concurrency.
  Responses return out of order; clients match on request id.
* **Caching** — results are memoized in an LRU bounded by
  ``cache_entries``; a hot-swap invalidates it atomically.
* **Admission control** — at most ``max_pending`` queries may be queued
  or executing; excess requests get an immediate ``overloaded`` error so
  clients back off instead of piling onto a slow server. Each request
  also carries a ``request_timeout`` deadline (``timeout`` error).
* **Hot-swap** — :meth:`SummaryServer.swap` atomically replaces the live
  index from a new :class:`~repro.core.summary.Summarization` without
  dropping connections; in-flight batches finish against the index they
  captured. Thread-safe, so a streaming pipeline can push
  ``DynamicSummarizer.snapshot()`` results from another thread.
* **Graceful shutdown** — :meth:`SummaryServer.stop` stops admitting,
  drains queued work, flushes responses, then closes connections.
* **Metrics** — counters/gauges/latency histograms in the unified
  :class:`~repro.obs.metrics.MetricsRegistry`, served via the ``stats``
  op (structured), the ``metrics`` op (Prometheus text exposition), an
  optional HTTP scrape endpoint (``metrics_port``), and logged
  periodically (``log_interval``).

:class:`ServerThread` runs the whole event loop on a daemon thread so
blocking code (tests, benchmarks, the CLI's load generator) can stand up
a real server in-process.
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass
from typing import Any, Deque, Dict, Optional, Tuple, Union

from ..core.summary import Summarization
from ..obs import trace as obs_trace
from ..queries.compiled import CompiledSummaryIndex
from .batching import cache_key, execute_batch, from_cached
from .cache import LRUCache
from .metrics import MetricsRegistry
from .protocol import (
    ANALYTICS_OPS,
    MAX_FRAME_BYTES,
    ErrorCode,
    ProtocolError,
    RequestError,
    error_response,
    ok_response,
    read_frame,
    request_meta,
    validate_request,
    write_frame,
)

__all__ = ["ServerConfig", "SummaryServer", "ServerThread"]

logger = logging.getLogger("repro.serve")

_QUERY_OPS = frozenset(
    {"neighbors", "degree", "has_edge", "bfs"}
) | ANALYTICS_OPS


@dataclass
class ServerConfig:
    """Tunables for :class:`SummaryServer`."""

    host: str = "127.0.0.1"
    port: int = 0                      # 0 = ephemeral, see SummaryServer.port
    max_batch: int = 128               # queries per vectorized pass
    cache_entries: int = 4096          # LRU bound (0 disables caching)
    max_pending: int = 1024            # queued+executing admission bound
    request_timeout: float = 5.0       # per-request deadline (seconds)
    log_interval: float = 30.0         # heartbeat period (0 disables)
    allow_reload: bool = False         # permit the 'reload' op
    max_frame_bytes: int = MAX_FRAME_BYTES
    metrics_port: Optional[int] = None  # HTTP scrape port (None disables,
                                        # 0 = ephemeral)
    degraded_enabled: bool = False     # serve stale cached answers instead
                                       # of erroring under overload/swap
    shed_fraction: float = 0.9         # of max_pending at which priority>=2
                                       # (best-effort) requests are shed

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if self.max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        if self.request_timeout <= 0:
            raise ValueError("request_timeout must be positive")
        if not 0.0 < self.shed_fraction <= 1.0:
            raise ValueError("shed_fraction must be in (0, 1]")


#: (op, args, future, absolute loop-time deadline or None, enqueue time)
_Item = Tuple[str, Dict[str, Any], "asyncio.Future", Optional[float], float]


class SummaryServer:
    """Serve queries over a summarization's compiled index."""

    def __init__(
        self,
        summary: Union[Summarization, CompiledSummaryIndex],
        config: Optional[ServerConfig] = None,
    ) -> None:
        self.config = config or ServerConfig()
        if isinstance(summary, CompiledSummaryIndex):
            self._index = summary
        else:
            self._index = CompiledSummaryIndex(summary)
        self._swap_lock = threading.Lock()
        self._generation = 0
        self._degraded = False
        self._topology: Optional[Dict[str, Any]] = None
        self._topology_ring: Optional[Any] = None   # HashRing when sharded
        self._shard_id: Optional[int] = None
        self._stale_cache: Dict[Any, Any] = {}
        self._stale_generation: Optional[int] = None
        self._shed_threshold = max(
            1, int(self.config.max_pending * self.config.shed_fraction)
        )
        self.cache = LRUCache(self.config.cache_entries)
        self.metrics = MetricsRegistry()
        for stage in ("queue", "execute"):
            self.metrics.declare("stage_seconds",
                                 labels={"stage": stage})
        self._queue: Deque[_Item] = deque()
        self._pending = 0              # queued + executing queries
        self._wakeup: Optional[asyncio.Event] = None
        self._stopped: Optional[asyncio.Event] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._metrics_server: Optional[asyncio.AbstractServer] = None
        self._bound_port: Optional[int] = None
        self._metrics_bound_port: Optional[int] = None
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-batch"
        )
        self._tasks: set = set()
        self._writers: set = set()
        self._batcher_task: Optional[asyncio.Task] = None
        self._log_task: Optional[asyncio.Task] = None
        self._draining = False
        self._started = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listening socket and start background tasks."""
        if self._started:
            raise RuntimeError("server already started")
        self._wakeup = asyncio.Event()
        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self._bound_port = self._server.sockets[0].getsockname()[1]
        if self.config.metrics_port is not None:
            self._metrics_server = await asyncio.start_server(
                self._handle_scrape, self.config.host,
                self.config.metrics_port,
            )
            self._metrics_bound_port = (
                self._metrics_server.sockets[0].getsockname()[1]
            )
        self._batcher_task = asyncio.create_task(self._batch_loop())
        if self.config.log_interval > 0:
            self._log_task = asyncio.create_task(self._log_loop())
        self._started = True
        logger.info("serving on %s:%d", self.config.host, self.port)

    @property
    def port(self) -> int:
        """Bound port (resolves ephemeral port 0 after :meth:`start`)."""
        if self._bound_port is None:
            raise RuntimeError("server not started")
        return self._bound_port

    @property
    def metrics_http_port(self) -> int:
        """Bound HTTP scrape port (requires ``metrics_port`` configured)."""
        if self._metrics_bound_port is None:
            raise RuntimeError("metrics endpoint not enabled/started")
        return self._metrics_bound_port

    async def serve_forever(self) -> None:
        """Run until :meth:`stop` is called (starts if needed)."""
        if not self._started:
            await self.start()
        await self._stopped.wait()

    async def stop(self) -> None:
        """Graceful shutdown: reject new work, drain, then close."""
        if not self._started or self._draining:
            return
        self._draining = True
        self._server.close()
        await self._server.wait_closed()
        if self._metrics_server is not None:
            self._metrics_server.close()
            await self._metrics_server.wait_closed()
        # Drain: every admitted query resolves (the batcher keeps running),
        # then every response task finishes writing.
        while self._pending:
            self._wakeup.set()
            await asyncio.sleep(0.005)
        if self._tasks:
            await asyncio.gather(*tuple(self._tasks), return_exceptions=True)
        for task in (self._batcher_task, self._log_task):
            if task is not None:
                task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await task
        for writer in tuple(self._writers):
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()
        self._executor.shutdown(wait=True)
        self._stopped.set()
        logger.info("server stopped after %d requests",
                    self.metrics.counter("requests_total"))

    async def __aenter__(self) -> "SummaryServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # hot swap
    # ------------------------------------------------------------------
    def swap(
        self, summary: Union[Summarization, CompiledSummaryIndex]
    ) -> int:
        """Atomically replace the live index; returns the new generation.

        Safe to call from any thread. In-flight batches keep answering
        from the index reference they captured; the result cache is
        invalidated so no stale answer survives the swap.
        """
        index = (
            summary
            if isinstance(summary, CompiledSummaryIndex)
            else CompiledSummaryIndex(summary)
        )
        with self._swap_lock:
            # Keep the outgoing generation's cached answers: degraded mode
            # can serve them (flagged stale) while the swap settles.
            if self.config.degraded_enabled:
                self._stale_cache = self.cache.snapshot_items()
                self._stale_generation = self._generation
            self._index = index
            self._generation += 1
            generation = self._generation
        self.cache.clear()
        self.metrics.inc("swaps_total")
        logger.info("hot-swapped index (generation %d, %d nodes)",
                    generation, index.num_nodes)
        return generation

    @property
    def generation(self) -> int:
        """Number of completed hot-swaps."""
        return self._generation

    @property
    def index(self) -> CompiledSummaryIndex:
        """The live compiled index (rolling swaps keep it for rollback)."""
        return self._index

    # ------------------------------------------------------------------
    # cluster topology
    # ------------------------------------------------------------------
    def set_topology(
        self,
        payload: Dict[str, Any],
        *,
        shard_id: Optional[int] = None,
    ) -> None:
        """Install the cluster routing payload this replica should hand out.

        ``payload`` carries ``epoch``, the ring description, and the
        shard → address map (see
        :meth:`~repro.serve.cluster.SummaryCluster.topology`). The epoch
        is echoed in every ``ping`` health dict so clients detect a
        cutover, and the full payload is served by the ``topology`` op.
        When ``shard_id`` is given, single-node queries whose owner under
        the installed ring is a *different* shard are rejected with
        ``wrong_shard`` — the signal a stale-routed client needs to
        refresh. Thread-safe (atomic reference swaps under the GIL).
        """
        ring = None
        if payload.get("ring") is not None:
            from ..shard.hashring import HashRing

            ring = HashRing.from_dict(payload["ring"])
        self._topology_ring = ring
        self._shard_id = shard_id
        self._topology = payload

    @property
    def ring_epoch(self) -> Optional[int]:
        """Epoch of the installed topology (``None`` when unsharded)."""
        if self._topology is None:
            return None
        return int(self._topology.get("epoch", 0))

    def _check_route(self, op: str, args: Dict[str, Any]) -> None:
        """Reject queries a stale ring epoch routed to the wrong shard."""
        ring, shard_id = self._topology_ring, self._shard_id
        if ring is None or shard_id is None:
            return
        key = None
        if op in ("neighbors", "degree", "analytics.degree"):
            key = args.get("v")
        elif op == "has_edge":
            key = args.get("u")
        if not isinstance(key, int) or isinstance(key, bool):
            return
        if not 0 <= key < self._index.num_nodes:
            return                  # let the executor answer out_of_range
        owner = ring.shard_of(key)
        if owner != shard_id:
            self.metrics.inc("wrong_shard_total")
            raise RequestError(
                ErrorCode.WRONG_SHARD,
                f"node {key} belongs to shard {owner}, not {shard_id} "
                f"(ring epoch {self.ring_epoch})",
            )

    # ------------------------------------------------------------------
    # degraded mode
    # ------------------------------------------------------------------
    def set_degraded(self, degraded: bool) -> None:
        """Force degraded mode on/off (rolling swaps hold it on).

        While degraded (and ``degraded_enabled``), queries answerable
        from the live cache or the previous generation's snapshot are
        served immediately — stale-snapshot answers carry a
        ``stale: true`` flag — without entering the queue. Misses fall
        through to the normal path. Thread-safe.
        """
        self._degraded = bool(degraded)
        self.metrics.set_gauge("degraded", 1 if degraded else 0)

    @property
    def degraded(self) -> bool:
        """Whether degraded mode is currently forced on."""
        return self._degraded

    def _degraded_answer(
        self, rid: int, op: str, args: Dict[str, Any]
    ) -> Optional[Dict[str, Any]]:
        """A cached answer's response, or ``None`` on a miss (always
        ``None`` unless ``degraded_enabled``).

        The live cache is consulted first (current generation — correct,
        not stale); then the pre-swap snapshot (flagged stale).
        """
        key = cache_key(op, args) if self.config.degraded_enabled else None
        if key is None:
            return None
        hit, value = self.cache.get(key)
        if hit:
            stale = False
        elif key in self._stale_cache:
            stale, value = True, self._stale_cache[key]
        else:
            return None
        self.metrics.inc("degraded_served_total", labels={"op": op})
        if stale:
            self.metrics.inc("stale_served_total")
        return ok_response(rid, from_cached(op, value), stale=stale)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """The payload served for a ``stats`` request."""
        return {
            "num_nodes": self._index.num_nodes,
            "generation": self._generation,
            "draining": self._draining,
            "degraded": self._degraded,
            "pending": self._pending,
            "connections": len(self._writers),
            "cache": self.cache.stats(),
            "metrics": self.metrics.snapshot(),
        }

    def health(self) -> Dict[str, Any]:
        """The payload served for a ``ping`` request.

        Deliberately cheap — no cache/metrics snapshots — so a health
        checker can hit it every second without perturbing the server.
        """
        payload = {
            "pong": True,
            "generation": self._generation,
            "queue_depth": len(self._queue),
            "pending": self._pending,
            "draining": self._draining,
            "degraded": self._degraded,
        }
        epoch = self.ring_epoch
        if epoch is not None:
            payload["ring_epoch"] = epoch
        return payload

    def prometheus(self) -> str:
        """Prometheus text exposition of the server's metrics.

        Gauges that live outside the registry (queue depth, connection
        count, generation) are refreshed into it first, so a scrape is
        self-contained.
        """
        self.metrics.set_gauge("queue_depth", len(self._queue))
        self.metrics.set_gauge("connections", len(self._writers))
        self.metrics.set_gauge("generation", self._generation)
        self.metrics.set_gauge("pending", self._pending)
        self.metrics.set_gauge("degraded", 1 if self._degraded else 0)
        cache = self.cache.stats()
        for key, value in cache.items():
            if isinstance(value, (int, float)) and not isinstance(
                value, bool
            ):
                self.metrics.set_gauge(f"cache_{key}", value)
        return self.metrics.to_prometheus(prefix="repro_serve_")

    # ------------------------------------------------------------------
    # connection plane
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        write_lock = asyncio.Lock()
        self.metrics.inc("connections_total")
        try:
            while True:
                try:
                    frame = await read_frame(
                        reader, self.config.max_frame_bytes
                    )
                except ProtocolError as exc:
                    # Framing is broken; answer once, then hang up (there
                    # is no way to find the next frame boundary).
                    self.metrics.inc("errors_bad_frame")
                    with contextlib.suppress(Exception):
                        await self._respond(
                            writer, write_lock,
                            error_response(
                                None, ErrorCode.BAD_REQUEST, str(exc)
                            ),
                        )
                    break
                if frame is None:
                    break
                task = asyncio.create_task(
                    self._handle_request(frame, writer, write_lock)
                )
                self._tasks.add(task)
                task.add_done_callback(self._tasks.discard)
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._writers.discard(writer)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        payload: Dict[str, Any],
    ) -> None:
        # config.max_frame_bytes bounds what clients may *send*; responses
        # use the protocol-wide ceiling so a large-but-legitimate result
        # (or an error reply under a tiny request bound) still goes out.
        async with write_lock:
            await write_frame(writer, payload, MAX_FRAME_BYTES)

    # ------------------------------------------------------------------
    # request plane
    # ------------------------------------------------------------------
    async def _handle_request(
        self,
        frame: Any,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        started = time.perf_counter()
        self.metrics.inc("requests_total")
        rid: Optional[int] = (
            frame.get("id") if isinstance(frame, dict)
            and isinstance(frame.get("id"), int)
            and not isinstance(frame.get("id"), bool) else None
        )
        try:
            rid, op, args = validate_request(frame)
            if op in _QUERY_OPS:
                priority, deadline_ms = request_meta(frame)
                payload = await self._handle_query(
                    rid, op, args, priority, deadline_ms
                )
            else:
                payload = await self._handle_control(rid, op, args)
        except RequestError as exc:
            self.metrics.inc(f"errors_{exc.code}")
            payload = error_response(rid, exc.code, str(exc))
        except Exception as exc:  # noqa: BLE001 - report, don't drop conn
            logger.exception("internal error handling request %s", rid)
            self.metrics.inc("errors_internal")
            payload = error_response(rid, ErrorCode.INTERNAL, repr(exc))
        try:
            await self._respond(writer, write_lock, payload)
        except (ConnectionResetError, BrokenPipeError, ProtocolError):
            self.metrics.inc("responses_dropped")
        self.metrics.observe(
            "request_latency_seconds", time.perf_counter() - started
        )

    async def _handle_control(
        self, rid: int, op: str, args: Dict[str, Any]
    ) -> Dict[str, Any]:
        if op == "ping":
            return ok_response(rid, self.health())
        if op == "stats":
            return ok_response(rid, self.stats())
        if op == "metrics":
            return ok_response(rid, self.prometheus())
        if op == "topology":
            if self._topology is None:
                raise RequestError(
                    ErrorCode.BAD_REQUEST,
                    "no topology installed (unsharded server)",
                )
            return ok_response(rid, self._topology)
        # reload: load a summary file and hot-swap to it.
        if not self.config.allow_reload:
            raise RequestError(
                ErrorCode.FORBIDDEN,
                "reload is disabled (start the server with allow_reload)",
            )
        loop = asyncio.get_running_loop()
        try:
            index = await loop.run_in_executor(
                None, _load_index, args["path"]
            )
        except (OSError, ValueError) as exc:
            # Covers CorruptSummaryError (a ValueError): a damaged file is
            # rejected here, before swap — the live index is untouched.
            self.metrics.inc("reload_rejected_total")
            logger.warning("rejected reload of %s: %s", args.get("path"), exc)
            raise RequestError(
                ErrorCode.BAD_REQUEST, f"reload failed: {exc}"
            ) from exc
        generation = self.swap(index)
        return ok_response(
            rid, {"generation": generation, "num_nodes": index.num_nodes}
        )

    def _reject_or_degrade(
        self, rid: int, op: str, args: Dict[str, Any],
        code: str, message: str,
    ) -> Dict[str, Any]:
        """Overload path: a cached (possibly stale) answer, or the error."""
        answer = self._degraded_answer(rid, op, args)
        if answer is None:
            raise RequestError(code, message)
        return answer

    async def _handle_query(
        self,
        rid: int,
        op: str,
        args: Dict[str, Any],
        priority: int = 1,
        deadline_ms: Optional[float] = None,
    ) -> Dict[str, Any]:
        if self._draining:
            raise RequestError(
                ErrorCode.SHUTTING_DOWN, "server is shutting down"
            )
        self._check_route(op, args)
        if self._pending >= self.config.max_pending:
            return self._reject_or_degrade(
                rid, op, args, ErrorCode.OVERLOADED,
                f"queue full ({self.config.max_pending} pending)",
            )
        if priority >= 2 and self._pending >= self._shed_threshold:
            # Priority-aware load shedding: best-effort traffic is turned
            # away before the queue is full so high-priority work keeps a
            # reserved slice of the admission budget.
            self.metrics.inc("shed_total", labels={"priority": priority})
            return self._reject_or_degrade(
                rid, op, args, ErrorCode.OVERLOADED,
                f"shed at priority {priority} "
                f"({self._pending}/{self.config.max_pending} pending)",
            )
        if self._degraded:
            # Rolling swap in progress: prefer an immediate cached answer
            # over queueing behind the swap (misses still run normally).
            answer = self._degraded_answer(rid, op, args)
            if answer is not None:
                return answer
        loop = asyncio.get_running_loop()
        deadline: Optional[float] = None
        wait_timeout = self.config.request_timeout
        if deadline_ms is not None:
            deadline = loop.time() + deadline_ms / 1000.0
            wait_timeout = min(wait_timeout, max(deadline_ms / 1000.0, 1e-4))
        future: asyncio.Future = loop.create_future()
        self._pending += 1
        self._queue.append((op, args, future, deadline, loop.time()))
        self.metrics.set_gauge("queue_depth", len(self._queue))
        self._wakeup.set()
        try:
            outcome = await asyncio.wait_for(
                asyncio.shield(future), wait_timeout
            )
        except asyncio.TimeoutError:
            # deadline_expired_total is counted at queue-pop time (the
            # single place that proves the query never executed), not here.
            if deadline is not None and wait_timeout < self.config.request_timeout:
                raise RequestError(
                    ErrorCode.DEADLINE_EXCEEDED,
                    f"deadline of {deadline_ms:.0f}ms expired while queued",
                ) from None
            raise RequestError(
                ErrorCode.TIMEOUT,
                f"no result within {self.config.request_timeout}s",
            ) from None
        if outcome[0] == "ok":
            return ok_response(rid, outcome[1])
        _, code, message = outcome
        raise RequestError(code, message)

    # ------------------------------------------------------------------
    # batch plane
    # ------------------------------------------------------------------
    async def _batch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await self._wakeup.wait()
            batch: list = []
            now = loop.time()
            while self._queue and len(batch) < self.config.max_batch:
                item = self._queue.popleft()
                self.metrics.observe("stage_seconds", now - item[4],
                                     labels={"stage": "queue"})
                deadline = item[3]
                if deadline is not None and now > deadline:
                    # Deadline propagation: expired work is rejected here,
                    # before it ever touches the index — doing it anyway
                    # would burn batch capacity on an answer nobody is
                    # waiting for.
                    self._pending -= 1
                    self.metrics.inc("deadline_expired_total")
                    future = item[2]
                    if not future.done():
                        future.set_result((
                            "error", ErrorCode.DEADLINE_EXCEEDED,
                            "deadline expired before execution",
                        ))
                    continue
                batch.append(item)
            if not self._queue:
                self._wakeup.clear()
            self.metrics.set_gauge("queue_depth", len(self._queue))
            if not batch:
                continue
            index = self._index     # capture: immune to concurrent swap
            queries = [(op, args) for op, args, _, _, _ in batch]
            self.metrics.set_gauge("inflight", len(batch))
            started = time.perf_counter()
            # A no-op unless a tracer is installed (the --trace CLI knob);
            # batch spans key on their per-parent occurrence index.
            with obs_trace.span("serve_batch", size=len(batch)):
                try:
                    outcomes = await loop.run_in_executor(
                        self._executor, execute_batch,
                        index, self.cache, self.metrics, queries,
                    )
                except Exception as exc:  # noqa: BLE001 - fail batch only
                    logger.exception("batch execution failed")
                    outcomes = [
                        ("error", ErrorCode.INTERNAL, repr(exc))
                    ] * len(batch)
                finally:
                    self.metrics.set_gauge("inflight", 0)
            self.metrics.observe("stage_seconds",
                                 time.perf_counter() - started,
                                 labels={"stage": "execute"})
            for (_, _, future, _, _), outcome in zip(batch, outcomes):
                self._pending -= 1
                if not future.done():
                    future.set_result(outcome)

    async def _log_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.log_interval)
            self.metrics.set_gauge("queue_depth", len(self._queue))
            logger.info("%s", self.metrics.format_line())

    # ------------------------------------------------------------------
    # metrics scrape plane
    # ------------------------------------------------------------------
    async def _handle_scrape(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Answer one plain-HTTP scrape (``GET /metrics``) and hang up.

        Deliberately minimal: no keep-alive, no chunking — exactly what a
        Prometheus scraper (or ``curl``) needs, with no new dependency.
        """
        try:
            request_line = await asyncio.wait_for(
                reader.readline(), timeout=5.0
            )
            # Drain headers until the blank line; scrapers send few.
            while True:
                line = await asyncio.wait_for(reader.readline(), timeout=5.0)
                if line in (b"\r\n", b"\n", b""):
                    break
            parts = request_line.decode("latin-1", "replace").split()
            if len(parts) >= 2 and parts[0] == "GET" and (
                parts[1] == "/metrics" or parts[1] == "/"
            ):
                body = self.prometheus().encode("utf-8")
                head = (
                    "HTTP/1.1 200 OK\r\n"
                    "Content-Type: text/plain; version=0.0.4; "
                    "charset=utf-8\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    "Connection: close\r\n\r\n"
                )
            else:
                body = b"not found\n"
                head = (
                    "HTTP/1.1 404 Not Found\r\n"
                    "Content-Type: text/plain; charset=utf-8\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    "Connection: close\r\n\r\n"
                )
            writer.write(head.encode("latin-1") + body)
            await writer.drain()
        except (asyncio.TimeoutError, ConnectionResetError,
                BrokenPipeError):
            pass
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()


def _load_index(path: str) -> CompiledSummaryIndex:
    """Load a summary file (binary ``.ldmeb`` or text) and compile it."""
    if str(path).endswith(".ldmeb"):
        from ..binaryio import read_summary_binary

        summary = read_summary_binary(path)
    else:
        from ..graph.io import read_summary

        summary = read_summary(path)
    return CompiledSummaryIndex(summary)


class ServerThread:
    """Run a :class:`SummaryServer` on a background event-loop thread.

    For blocking callers (tests, benchmarks, notebooks)::

        with ServerThread(summary) as handle:
            client = SummaryClient("127.0.0.1", handle.port)
            ...

    ``handle.server.swap(...)`` is safe from the caller's thread.
    """

    def __init__(
        self,
        summary: Union[Summarization, CompiledSummaryIndex],
        config: Optional[ServerConfig] = None,
    ) -> None:
        self.server = SummaryServer(summary, config)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._killed = False

    def start(self) -> "ServerThread":
        """Start the loop thread; blocks until the socket is bound."""
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("server thread failed to start in time")
        if self._startup_error is not None:
            raise RuntimeError("server failed to start") \
                from self._startup_error
        return self

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException:  # noqa: BLE001
            # A kill() cancels every task; the resulting CancelledError
            # (or loop-teardown noise) is the intended outcome, not a
            # crash worth a traceback on stderr.
            if not self._killed:
                raise

    async def _main(self) -> None:
        try:
            await self.server.start()
        except BaseException as exc:  # noqa: BLE001 - surfaced in start()
            self._startup_error = exc
            self._ready.set()
            return
        self._loop = asyncio.get_running_loop()
        self._ready.set()
        await self.server.serve_forever()

    @property
    def port(self) -> int:
        """The server's bound port."""
        return self.server.port

    @property
    def metrics_http_port(self) -> int:
        """The server's HTTP metrics scrape port (if configured)."""
        return self.server.metrics_http_port

    def stop(self, timeout: float = 30.0) -> None:
        """Gracefully stop the server and join the loop thread.

        Has a definite outcome: if the graceful drain or the thread join
        does not finish within ``timeout``, the thread is force-killed
        (tasks cancelled, connections aborted) and, if it *still* will
        not exit, :class:`RuntimeError` is raised — it never returns
        silently with the server thread alive.
        """
        if self._thread is None:
            return
        graceful = True
        if (
            not self._killed
            and self._loop is not None
            and self._thread.is_alive()
        ):
            future = asyncio.run_coroutine_threadsafe(
                self.server.stop(), self._loop
            )
            try:
                future.result(timeout=timeout)
            except (FuturesTimeoutError, RuntimeError) as exc:
                graceful = False
                logger.warning(
                    "graceful stop did not finish within %.1fs (%s); "
                    "force-killing the server thread", timeout, exc,
                )
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():
            graceful = False
            self.kill(timeout=min(timeout, 5.0))
        if self._thread.is_alive():
            raise RuntimeError(
                f"server thread failed to stop within {timeout}s "
                "(graceful drain and force-kill both timed out)"
            )
        if not graceful:
            logger.warning("server thread stopped only after force-kill")

    def kill(self, timeout: float = 5.0) -> None:
        """Abruptly terminate the server — the in-process analog of
        ``kill -9`` for chaos tests.

        Every task is cancelled and every open connection aborted without
        draining; clients see resets/EOF mid-conversation and subsequent
        connects are refused. No graceful-shutdown code runs.
        """
        self._killed = True
        loop, thread = self._loop, self._thread
        if loop is None or thread is None or not thread.is_alive():
            return

        def _abort() -> None:
            # Close the listeners synchronously — loop teardown does not,
            # and a leaked listening fd keeps the port bound, which would
            # make an immediate restart() fail with EADDRINUSE.
            for server in (self.server._server,
                           self.server._metrics_server):
                if server is not None:
                    server.close()
            for writer in tuple(self.server._writers):
                transport = writer.transport
                if transport is not None:
                    transport.abort()
            for task in asyncio.all_tasks(loop):
                task.cancel()

        try:
            loop.call_soon_threadsafe(_abort)
        except RuntimeError:
            pass                      # loop already closed
        self.server._executor.shutdown(wait=False)
        thread.join(timeout=timeout)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()
