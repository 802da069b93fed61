"""Blocking client for the summary query server.

:class:`SummaryClient` speaks the length-prefixed JSON protocol over a
plain TCP socket — no asyncio required on the caller's side, so it works
from scripts, notebooks, and thread-based load generators.

Robustness: transport failures (refused/reset connections, truncated
frames, socket timeouts) and *retryable* server errors (``overloaded``,
``timeout``) are retried with exponential backoff up to ``retries``
times; the connection is re-established after any transport fault.
Non-retryable server errors surface immediately as :class:`ServerError`
with the typed code from the wire.

:meth:`SummaryClient.neighbors_many` pipelines many requests on one
connection before reading any response — the natural way to form
server-side batches from a single client.
"""

from __future__ import annotations

import random
import socket
import time
from typing import Any, Dict, Iterable, List, Optional

from .protocol import (
    MAX_FRAME_BYTES,
    ErrorCode,
    ProtocolError,
    recv_frame,
    send_frame,
)

__all__ = ["ServerError", "SummaryClient"]


class ServerError(RuntimeError):
    """A typed error response from the server."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(f"[{code}] {message}")
        self.code = code

    @property
    def retryable(self) -> bool:
        """Whether a client may retry this failure with backoff."""
        return self.code in ErrorCode.RETRYABLE


class SummaryClient:
    """Blocking TCP client with retry/backoff.

    Parameters
    ----------
    host / port:
        Server address.
    timeout:
        Socket timeout per send/receive (seconds).
    retries:
        Additional attempts after the first failure.
    backoff:
        Backoff *cap base*: a retry sleeps a uniform random duration in
        ``[0, backoff * 2**attempt]`` (full jitter). Deterministic
        exponential backoff synchronizes retry storms — every client that
        failed together retries together; the jitter decorrelates them.
    rng:
        Randomness source for the jitter (injectable for deterministic
        tests). Defaults to a private :class:`random.Random`.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7421,
        timeout: float = 10.0,
        retries: int = 3,
        backoff: float = 0.05,
        max_frame_bytes: int = MAX_FRAME_BYTES,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.max_frame_bytes = max_frame_bytes
        self._rng = rng if rng is not None else random.Random()
        self._sock: Optional[socket.socket] = None
        self._next_id = 0
        self.retries_used = 0   # total retry sleeps taken (for tests/stats)
        self.stale_served = 0   # responses flagged stale (degraded mode)

    # ------------------------------------------------------------------
    # connection management
    # ------------------------------------------------------------------
    def connect(self) -> None:
        """Open the connection now (otherwise opened lazily)."""
        if self._sock is None:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock

    def close(self) -> None:
        """Close the connection (reopened automatically on next call)."""
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None

    def __enter__(self) -> "SummaryClient":
        self.connect()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # request plumbing
    # ------------------------------------------------------------------
    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _sleep_backoff(self, attempt: int) -> None:
        # Full jitter: uniform in [0, cap], cap doubling per attempt.
        self.retries_used += 1
        time.sleep(self._rng.uniform(0.0, self.backoff * (2 ** attempt)))

    def _roundtrip(self, requests: List[Dict[str, Any]]) -> List[Any]:
        """Send all requests, then collect all responses (id-matched)."""
        self.connect()
        for request in requests:
            send_frame(self._sock, request, self.max_frame_bytes)
        outstanding = {request["id"] for request in requests}
        results: Dict[int, Any] = {}
        while outstanding:
            response = recv_frame(self._sock, self.max_frame_bytes)
            if response is None:
                raise ProtocolError("server closed mid-conversation")
            rid = response.get("id")
            if rid not in outstanding:
                continue            # stale response from an abandoned call
            outstanding.discard(rid)
            results[rid] = response
        return [results[request["id"]] for request in requests]

    def _build_request(
        self,
        op: str,
        args: Optional[Dict[str, Any]],
        deadline_ms: Optional[float],
        priority: Optional[int],
    ) -> Dict[str, Any]:
        request: Dict[str, Any] = {
            "id": self._new_id(), "op": op, "args": args or {},
        }
        if deadline_ms is not None:
            request["deadline_ms"] = float(deadline_ms)
        if priority is not None:
            request["priority"] = int(priority)
        return request

    def _call(
        self,
        op: str,
        args: Optional[Dict[str, Any]] = None,
        *,
        deadline_ms: Optional[float] = None,
        priority: Optional[int] = None,
    ) -> Any:
        """One request/response with transport + retryable-error retries."""
        last_error: Optional[Exception] = None
        for attempt in range(self.retries + 1):
            request = self._build_request(op, args, deadline_ms, priority)
            try:
                response = self._roundtrip([request])[0]
            except (OSError, ProtocolError) as exc:
                self.close()
                last_error = exc
                if attempt < self.retries:
                    self._sleep_backoff(attempt)
                    continue
                raise ConnectionError(
                    f"{op} failed after {attempt + 1} attempts: {exc}"
                ) from exc
            if response.get("ok"):
                if response.get("stale"):
                    self.stale_served += 1
                return response.get("result")
            error = response.get("error") or {}
            server_error = ServerError(
                error.get("code", ErrorCode.INTERNAL),
                error.get("message", "unknown server error"),
            )
            if server_error.retryable and attempt < self.retries:
                last_error = server_error
                self._sleep_backoff(attempt)
                continue
            raise server_error
        raise ConnectionError(f"{op} failed: {last_error}")  # unreachable

    def call(
        self,
        op: str,
        args: Optional[Dict[str, Any]] = None,
        *,
        deadline_ms: Optional[float] = None,
        priority: Optional[int] = None,
    ) -> Any:
        """Issue one raw operation with optional deadline and priority.

        ``deadline_ms`` is the remaining time budget the server is told
        about (it rejects the query with ``deadline_exceeded`` instead of
        executing it once that budget is spent in its queue);
        ``priority`` feeds the server's load shedding (0 = critical,
        1 = normal, 2+ = best-effort, shed first).
        :class:`~repro.serve.cluster.ClusterClient` drives this method
        with ``retries=0`` and does its own failover.
        """
        return self._call(
            op, args, deadline_ms=deadline_ms, priority=priority
        )

    # ------------------------------------------------------------------
    # query API
    # ------------------------------------------------------------------
    def ping(self) -> Dict[str, Any]:
        """Cheap health probe: generation, queue depth, draining/degraded.

        Returns the server's health dict — light enough for a 1-second
        probe loop (``stats`` snapshots every metric; this does not). The
        dict is truthy, so ``if client.ping():`` still reads naturally;
        a legacy server answering the bare string ``"pong"`` is
        normalized to ``{"pong": True}``.
        """
        result = self._call("ping")
        if result == "pong":
            return {"pong": True}
        return result

    def stats(self) -> Dict[str, Any]:
        """Server stats: cache, metrics, generation, queue depth."""
        return self._call("stats")

    def metrics_text(self) -> str:
        """The server's metrics in Prometheus text exposition format."""
        return self._call("metrics")

    def neighbors(self, v: int) -> List[int]:
        """Sorted neighbour list of ``v``."""
        return self._call("neighbors", {"v": int(v)})

    def degree(self, v: int) -> int:
        """Degree of ``v``."""
        return self._call("degree", {"v": int(v)})

    def has_edge(self, u: int, v: int) -> bool:
        """Edge membership of ``(u, v)``."""
        return self._call("has_edge", {"u": int(u), "v": int(v)})

    def bfs(self, source: int) -> Dict[int, int]:
        """Hop distances from ``source`` (unreachable nodes absent)."""
        pairs = self._call("bfs", {"source": int(source)})
        return {int(node): int(dist) for node, dist in pairs}

    def reload(self, path: str) -> Dict[str, Any]:
        """Ask the server to hot-swap to the summary file at ``path``."""
        return self._call("reload", {"path": str(path)})

    def analytics(
        self,
        op: str,
        args: Optional[Dict[str, Any]] = None,
        *,
        deadline_ms: Optional[float] = None,
        priority: Optional[int] = None,
    ) -> Any:
        """Issue one summary-native analytics op (``"pagerank"`` and
        ``"analytics.pagerank"`` both work)."""
        if not op.startswith("analytics."):
            op = f"analytics.{op}"
        return self._call(
            op, args or {}, deadline_ms=deadline_ms, priority=priority
        )

    def neighbors_many(self, nodes: Iterable[int]) -> List[List[int]]:
        """Pipelined neighbour lists for many nodes.

        All requests are written before any response is read, letting the
        server coalesce them into one batch. Transport faults retry the
        whole pipeline; a per-node server error raises
        :class:`ServerError`.
        """
        nodes = [int(v) for v in nodes]
        if not nodes:
            return []
        last_error: Optional[Exception] = None
        for attempt in range(self.retries + 1):
            requests = [
                {"id": self._new_id(), "op": "neighbors", "args": {"v": v}}
                for v in nodes
            ]
            try:
                responses = self._roundtrip(requests)
            except (OSError, ProtocolError) as exc:
                self.close()
                last_error = exc
                if attempt < self.retries:
                    self._sleep_backoff(attempt)
                    continue
                raise ConnectionError(
                    f"pipeline failed after {attempt + 1} attempts: {exc}"
                ) from exc
            for response in responses:
                if not response.get("ok"):
                    error = response.get("error") or {}
                    raise ServerError(
                        error.get("code", ErrorCode.INTERNAL),
                        error.get("message", "unknown server error"),
                    )
                if response.get("stale"):
                    self.stale_served += 1
            return [response["result"] for response in responses]
        raise ConnectionError(f"pipeline failed: {last_error}")  # unreachable
