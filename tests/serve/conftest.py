"""Serve-suite fixtures: a deterministic stall of the batch executor."""

import socket
import threading
import time

import pytest

import repro.serve.server as server_module
from repro.serve.protocol import send_frame


class BatchHold:
    """Blocks every server's single batch executor until :meth:`release`.

    While held, the first batch sits in the executor and everything
    admitted after it stays queued — the state that overload, deadline,
    shedding and drain tests need, without relying on timing.
    """

    def __init__(self, monkeypatch):
        self.entered = threading.Event()     # a batch reached the executor
        self._released = threading.Event()
        self._sockets = []
        real = server_module.execute_batch

        def held(*args):
            self.entered.set()
            self._released.wait(timeout=30)
            return real(*args)

        monkeypatch.setattr(server_module, "execute_batch", held)

    def occupy(self, port):
        """Send one ``degree`` query that the executor holds; returns
        once it is executing (one pending slot stays taken)."""
        sock = socket.create_connection(("127.0.0.1", port), timeout=10.0)
        self._sockets.append(sock)
        send_frame(sock, {"id": 0, "op": "degree", "args": {"v": 0}})
        assert self.entered.wait(timeout=10), "no batch reached executor"

    def wait_pending(self, server, count):
        """Block until ``server`` has ``count`` queries admitted."""
        until = time.time() + 10
        while server.health()["pending"] < count and time.time() < until:
            time.sleep(0.005)
        assert server.health()["pending"] == count

    def release(self):
        self._released.set()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        # Listed after the server in one ``with``, this exits first: the
        # held batch finishes before the server's graceful drain waits.
        self.release()

    def release_after(self, delay):
        """Release from a timer thread (for a call that blocks until the
        held work completes)."""
        timer = threading.Timer(delay, self.release)
        timer.daemon = True
        timer.start()

    def close(self):
        self.release()
        for sock in self._sockets:
            sock.close()


@pytest.fixture
def batch_hold(monkeypatch):
    hold = BatchHold(monkeypatch)
    yield hold
    hold.close()
