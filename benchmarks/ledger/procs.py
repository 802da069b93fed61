"""Program processes: spawn, wait for readiness, stop and reap.

Every process the benchmark starts is reaped here, and none outlives the
run: a process that ignores its stop signal is killed. Peak RSS is read
from ``VmHWM`` in ``/proc/<pid>/status`` just before the stop: a child's
``ru_maxrss`` would also count the parent's pages it held between fork
and exec.
"""

from __future__ import annotations

import json
import os
import re
import select
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

import speed

HERE = os.path.dirname(os.path.abspath(__file__))


def _reap(proc: subprocess.Popen, timeout: float) -> None:
    """Wait for ``proc`` with a deadline; SIGKILL once it passes."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status = os.waitpid(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            os.kill(proc.pid, signal.SIGKILL)
            _, status = os.waitpid(proc.pid, 0)
            break
        time.sleep(0.01)
    proc.returncode = os.waitstatus_to_exitcode(status)


def peak_rss_mb(pid: int) -> float:
    """The process's resident-set high-water mark in MB (0 once exited)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Program:
    """``program.py ARGS`` on ``cpu``, driven one command per line.

    Each command is answered by one JSON line; ``timeout`` bounds the wait
    for any answer, so a hung program fails the run instead of stalling it.
    """

    def __init__(self, args: List[str], env: Dict[str, str], cwd: str,
                 cpu: int, timeout: float = 150.0) -> None:
        self._timeout = timeout
        self._log = open(os.path.join(cwd, "program.log"), "ab")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "program.py"), *args],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._log,
            env=env, cwd=cwd, text=True,
        )
        speed.pin(self.proc.pid, cpu)

    def read(self) -> dict:
        """The next JSON line the program prints."""
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    self._timeout)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            self.close()
            raise RuntimeError(f"program.py {self.proc.args[2]} gave no "
                               f"answer (exit {self.proc.returncode}); see "
                               f"program.log in the work directory")
        return json.loads(line)

    def call(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self.read()

    def close(self) -> float:
        """End the program and reap it; returns its peak RSS in MB."""
        if self.proc.returncode is None:
            self.peak_rss_mb = peak_rss_mb(self.proc.pid)
            try:
                self.proc.stdin.close()
            except OSError:
                pass
            _reap(self.proc, self._timeout)
            self.proc.stdout.close()
            self._log.close()
        return self.peak_rss_mb


class Server:
    """A ``repro`` CLI command running as a server process on ``cpu``.

    ``traced`` runs it under ``traced.py`` with that trace prefix.
    Standard output is read on a thread so announced addresses can be
    awaited; standard error goes to a log file in the work directory.
    """

    def __init__(self, argv: List[str], env: Dict[str, str], cwd: str,
                 cpu: int, traced: Optional[str] = None) -> None:
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "traced.py"), traced]
        else:
            cmd = [sys.executable, "-m", "repro"]
        self.started = time.perf_counter()
        self._log = open(os.path.join(cwd, "server.log"), "ab")
        self.proc = subprocess.Popen(
            cmd + argv, stdout=subprocess.PIPE, stderr=self._log,
            env=env, cwd=cwd,
        )
        speed.pin(self.proc.pid, cpu)
        self.peak_rss_mb = 0.0
        self._lines: List[str] = []
        self._eof = False
        self._cond = threading.Condition()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for raw in self.proc.stdout:
            with self._cond:
                self._lines.append(raw.decode(errors="replace").rstrip())
                self._cond.notify_all()
        with self._cond:
            self._eof = True
            self._cond.notify_all()

    def address(self, pattern: str, timeout: float = 60.0) -> Tuple[str, int]:
        """Wait for a stdout line matching ``pattern`` (host, port groups)."""
        regex = re.compile(pattern)
        deadline = time.monotonic() + timeout
        seen = 0
        with self._cond:
            while True:
                for line in self._lines[seen:]:
                    match = regex.search(line)
                    if match:
                        return match.group(1), int(match.group(2))
                seen = len(self._lines)
                if self._eof:
                    raise RuntimeError(
                        f"server closed its output before announcing "
                        f"{pattern!r}")
                left = deadline - time.monotonic()
                if left <= 0:
                    raise TimeoutError(f"no {pattern!r} within {timeout}s")
                self._cond.wait(left)

    def stop(self, sig: int = signal.SIGTERM, timeout: float = 60.0) -> None:
        """Note the peak RSS, signal, wait (kill after ``timeout``), reap."""
        if self.proc.returncode is None:
            self.peak_rss_mb = peak_rss_mb(self.proc.pid)
            # os.kill, not Popen.send_signal: the latter polls, and a poll
            # that reaps the process would race the reap below.
            os.kill(self.proc.pid, sig)
            _reap(self.proc, timeout)
            self._reader.join(5.0)
            self.proc.stdout.close()
            self._log.close()
