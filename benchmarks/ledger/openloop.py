"""Load generator: open-loop schedules and closed-loop bursts.

A lane is one TCP connection. Open loop: per lane, a sender thread sends
each request at its scheduled time whether or not earlier ones were
answered, and a receiver thread matches replies; latency is measured from
the *scheduled* time, so a stall is charged to every request it delays.
Closed loop: per lane, one thread keeps a fixed window of requests
outstanding and sends the next as each reply arrives; this measures
capacity. (A single-threaded selector loop was tried and measured worse:
parsing a burst of replies delays the next scheduled send.)

Both wire formats are written here, so the client side stays fixed while
the program changes: the server's length-prefixed JSON frames (replies
matched by id) and the ingest listener's line protocol (``+ u v``
answered in order by ``ack <seq>``).
"""

from __future__ import annotations

import collections
import json
import math
import select
import socket
import struct
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

_LEN = struct.Struct(">I")
Address = Tuple[str, int]
Answer = Tuple["Record", bool, Any]


@dataclass
class Record:
    """One request and what happened to it."""

    kind: str                   # "read" or "write"
    request: Any                # (op, args) or (u, v)
    due: float = math.nan       # scheduled send (perf_counter seconds)
    sent: float = math.nan
    done: float = math.nan
    ok: bool = False
    keep: bool = False          # keep the answer for the output check
    result: Any = None


class _Lane:
    """One connection; subclasses define framing and reply matching."""

    def __init__(self, address: Address) -> None:
        self.sock = socket.create_connection(address, timeout=10.0)
        self.sock.settimeout(None)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buf = bytearray()

    def close(self) -> None:
        self.sock.close()

    def send(self, record: Record) -> None:
        record.sent = time.perf_counter()
        self.sock.sendall(self._encode(record))

    def answers(self) -> List[Answer]:
        """Read what has arrived (blocks until something does); the
        complete answers in the buffer."""
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise EOFError("server closed the connection")
        self._buf += chunk
        return self._parse()

    def _encode(self, record: Record) -> bytes:
        raise NotImplementedError

    def _parse(self) -> List[Answer]:
        raise NotImplementedError


class JsonLane(_Lane):
    """Length-prefixed JSON requests; replies come back matched by id."""

    def __init__(self, address: Address) -> None:
        super().__init__(address)
        self._pending: Dict[int, Record] = {}
        self._next_id = 0

    def _encode(self, record: Record) -> bytes:
        self._next_id += 1
        self._pending[self._next_id] = record
        op, args = record.request
        body = json.dumps({"id": self._next_id, "op": op, "args": args},
                          separators=(",", ":")).encode()
        return _LEN.pack(len(body)) + body

    def _parse(self) -> List[Answer]:
        out = []
        while len(self._buf) >= 4:
            (length,) = _LEN.unpack_from(self._buf)
            if len(self._buf) < 4 + length:
                break
            reply = json.loads(bytes(self._buf[4:4 + length]))
            del self._buf[:4 + length]
            record = self._pending.pop(reply.get("id"), None)
            if record is not None:
                out.append((record, bool(reply.get("ok")),
                            reply.get("result")))
        return out

    def call(self, op: str, args: Dict[str, Any],
             timeout: float = 5.0) -> Any:
        """One blocking request (control ops like ``ping``/``stats``)."""
        record = Record("control", (op, args))
        self.send(record)
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            for answer, ok, result in _answers(self):
                if answer is record:
                    if not ok:
                        raise RuntimeError(f"{op} failed: {result}")
                    return result
        raise TimeoutError(f"no reply to {op} within {timeout}s")


class LineLane(_Lane):
    """The ingest line protocol: replies arrive in request order."""

    def __init__(self, address: Address) -> None:
        super().__init__(address)
        self._pending: "collections.deque[Record]" = collections.deque()

    def _encode(self, record: Record) -> bytes:
        self._pending.append(record)
        u, v = record.request
        return f"+ {u} {v}\n".encode()

    def _parse(self) -> List[Answer]:
        out = []
        while True:
            end = self._buf.find(b"\n")
            if end < 0:
                return out
            line = bytes(self._buf[:end]).decode().strip()
            del self._buf[:end + 1]
            record = self._pending.popleft()
            if line.startswith("ack "):
                out.append((record, True, int(line.split()[1])))
            else:
                out.append((record, False, line))


def _finish(record: Record, ok: bool, result: Any) -> None:
    record.done = time.perf_counter()
    record.ok = ok
    if record.keep or record.kind == "write":
        record.result = result


def _answers(lane: _Lane) -> List[Answer]:
    """Answers that arrive within 0.2 s (so callers can check for stop)."""
    ready, _, _ = select.select([lane.sock], [], [], 0.2)
    return lane.answers() if ready else []


def open_loop(plan: List[Tuple[_Lane, List[Record]]],
              drain: float = 2.0) -> None:
    """Send every record at its ``due`` time; wait ``drain`` s for stragglers.

    ``plan`` pairs each lane with its records, whose ``due`` times are
    absolute ``perf_counter`` values in increasing order. Records a lane
    could not send, or whose reply never came, stay failed.
    """
    stop = threading.Event()

    def sender(lane: _Lane, records: List[Record]) -> None:
        try:
            for record in records:
                delay = record.due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                lane.send(record)
        except OSError:
            return

    def receiver(lane: _Lane, records: List[Record]) -> None:
        left = len(records)
        try:
            while left and not stop.is_set():
                for record, ok, result in _answers(lane):
                    _finish(record, ok, result)
                    left -= 1
        except (OSError, EOFError):
            return

    senders = [threading.Thread(target=sender, args=item, daemon=True)
               for item in plan]
    receivers = [threading.Thread(target=receiver, args=item, daemon=True)
                 for item in plan]
    for thread in receivers + senders:
        thread.start()
    for thread in senders:
        thread.join()
    deadline = time.perf_counter() + drain
    for thread in receivers:
        thread.join(max(0.0, deadline - time.perf_counter()))
    stop.set()
    for thread in receivers:
        thread.join()


def closed_loop(plan: List[Tuple[_Lane, List[Record]]], window: int,
                timeout: float = 30.0) -> float:
    """Send every record, keeping ``window`` outstanding per lane.

    Each lane sends its next record as a reply arrives. Returns the
    seconds from the first send to the last reply; records unanswered
    after ``timeout`` stay failed.
    """
    start = time.perf_counter()

    def drive(lane: _Lane, records: List[Record]) -> None:
        cursor = outstanding = 0
        try:
            while cursor < len(records) or outstanding:
                while cursor < len(records) and outstanding < window:
                    records[cursor].due = time.perf_counter()
                    lane.send(records[cursor])
                    cursor += 1
                    outstanding += 1
                if time.perf_counter() > start + timeout:
                    return
                for record, ok, result in _answers(lane):
                    _finish(record, ok, result)
                    outstanding -= 1
        except (OSError, EOFError):
            return

    threads = [threading.Thread(target=drive, args=item, daemon=True)
               for item in plan]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    done = [r.done for _, records in plan for r in records if r.ok]
    return (max(done) if done else time.perf_counter()) - start


def wait_ready(address: Address, kind: str, timeout: float) -> None:
    """Block until a ``ping`` on ``address`` answers ok."""
    deadline = time.perf_counter() + timeout
    while True:
        try:
            if kind == "json":
                lane = JsonLane(address)
                try:
                    if lane.call("ping", {}, timeout=2.0).get("pong"):
                        return
                finally:
                    lane.close()
            else:
                with socket.create_connection(address, timeout=2.0) as sock:
                    sock.sendall(b"ping\n")
                    if sock.recv(64).startswith(b"pong"):
                        return
        except (OSError, RuntimeError):
            pass
        if time.perf_counter() > deadline:
            raise TimeoutError(f"{address} not ready after {timeout}s")
        time.sleep(0.005)
