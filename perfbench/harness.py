"""Server process control, the HTTP client and ``/proc`` readings.

The benchmark drives ``repro serve`` as a separate process over loopback
HTTP.  :class:`Server` owns that process: it starts it with a hermetic
environment, waits for the port it prints, answers ``/healthz`` polls,
and stops it (SIGINT, then SIGKILL) on every exit path.  :class:`Client`
is one keep-alive connection used by one closed-loop client thread.
"""

from __future__ import annotations

import json
import os
import selectors
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Variables that would let a developer's shell change what the server
#: does: a default artifact store restored at boot, or another backend.
SCRUBBED_ENV = ("REPRO_CACHE_DIR", "REPRO_BACKEND")

#: Pinned for both processes, so set iteration order (and the work it
#: implies) repeats from run to run.
HASH_SEED = "0"

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def hermetic_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONHASHSEED"] = HASH_SEED
    env["PYTHONPATH"] = str(SRC)
    return env


class ServerError(RuntimeError):
    """The server failed to start, or died while the benchmark needed it."""


class Server:
    """One ``repro serve`` process (threaded tier), plain or traced.

    ``launcher`` names a script that takes ``<spans-file> <repro argv>``
    and serves with timing wrappers installed (see ``launcher.py``).
    """

    def __init__(
        self,
        args: List[str],
        log_path: Path,
        launcher: Optional[Path] = None,
        spans_path: Optional[Path] = None,
    ):
        if launcher is not None:
            command = [sys.executable, str(launcher), str(spans_path)]
        else:
            command = [sys.executable, "-m", "repro"]
        command += ["serve", "--host", "127.0.0.1", "--port", "0", *args]
        self._log = open(log_path, "ab")
        self.log_path = log_path
        self.spans_path = spans_path
        self.proc = subprocess.Popen(
            command,
            cwd=str(ROOT),
            env=hermetic_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._log,
        )
        self.port: Optional[int] = None

    @property
    def pid(self) -> int:
        return self.proc.pid

    def wait_ready(self, timeout: float = 60.0) -> None:
        """Block until the port is known and ``/healthz`` answers 200."""
        deadline = time.monotonic() + timeout
        selector = selectors.DefaultSelector()
        selector.register(self.proc.stdout, selectors.EVENT_READ)
        try:
            while self.port is None:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self.proc.poll() is not None:
                    raise ServerError(self._failure("did not report its port"))
                if selector.select(timeout=min(remaining, 0.1)):
                    line = self.proc.stdout.readline().decode("utf-8", "replace")
                    if not line:
                        continue
                    # "typed-query service listening on http://127.0.0.1:PORT"
                    if "listening on" in line:
                        self.port = int(line.rsplit(":", 1)[1])
        finally:
            selector.close()
        while True:
            try:
                client = Client(self.port, timeout=2.0)
                try:
                    status, _ = client.call("GET", "/healthz")
                finally:
                    client.close()
                if status == 200:
                    return
            except OSError:
                pass
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise ServerError(self._failure("/healthz never answered"))
            time.sleep(0.005)

    def _failure(self, what: str) -> str:
        self._log.flush()
        try:
            tail = self.log_path.read_text(errors="replace")[-2000:]
        except OSError:
            tail = ""
        return f"server {what} (exit={self.proc.poll()}); log tail:\n{tail}"

    def cpu_seconds(self) -> float:
        """User + system CPU time of the server process so far."""
        with open(f"/proc/{self.pid}/stat", "rb") as handle:
            raw = handle.read().decode()
        fields = raw[raw.rindex(")") + 2 :].split()
        # fields[0] is field 3 (state); utime/stime are fields 14/15.
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        """``VmHWM``: the server's peak resident set size, in MB."""
        with open(f"/proc/{self.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServerError("VmHWM missing from /proc status")

    def stop(self, timeout: float = 20.0) -> None:
        """SIGINT (the server writes spans on the way out), then SIGKILL."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGINT)
                try:
                    self.proc.wait(timeout=timeout)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait(timeout=10)
        finally:
            self.proc.stdout.close()
            self._log.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def wire_request(method: str, path: str, body: Optional[bytes]) -> bytes:
    """The full HTTP/1.1 request bytes (built once per prepared request)."""
    head = f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
    if body:
        head += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
    return (head + "\r\n").encode() + (body or b"")


class TransportError(OSError):
    """The connection failed or the response was not HTTP."""


class Client:
    """One keep-alive HTTP/1.1 connection to the server.

    A minimal client over a raw socket, so the generator spends little
    CPU per request: requests are sent as prepared bytes and only the
    status line and ``Content-Length`` of the response are parsed.
    """

    def __init__(self, port: int, timeout: float = 60.0):
        self.port = port
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._reader = None

    def send_wire(self, wire: bytes) -> Tuple[int, bytes]:
        """One round trip; returns ``(status, raw body)``.

        Raises :class:`TransportError` (an OSError) on transport failure.
        """
        if self._sock is None:
            self._sock = socket.create_connection(("127.0.0.1", self.port), self.timeout)
            self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._reader = self._sock.makefile("rb")
        try:
            self._sock.sendall(wire)
            status_line = self._reader.readline()
            parts = status_line.split(None, 2)
            if len(parts) < 2 or not parts[0].startswith(b"HTTP/"):
                raise TransportError(f"bad status line {status_line[:80]!r}")
            length, close = 0, False
            while True:
                line = self._reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.partition(b":")
                name = name.strip().lower()
                if name == b"content-length":
                    length = int(value)
                elif name == b"connection" and value.strip().lower() == b"close":
                    close = True
            raw = self._reader.read(length)
            if len(raw) != length:
                raise TransportError("connection closed mid-response")
        except (OSError, ValueError) as error:
            self.close()
            raise TransportError(str(error)) from error
        if close:
            self.close()
        return int(parts[1]), raw

    def call(self, method: str, path: str, payload: Optional[dict] = None) -> Tuple[int, dict]:
        body = json.dumps(payload).encode() if payload is not None else None
        status, raw = self.send_wire(wire_request(method, path, body))
        return status, json.loads(raw)

    def close(self) -> None:
        if self._sock is not None:
            self._reader.close()
            self._sock.close()
            self._sock = self._reader = None
