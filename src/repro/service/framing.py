"""HTTP/1.1 framing: the small slice of HTTP/1.1 the daemon speaks.

The daemon (:mod:`repro.service.daemon`) reads raw lines off a buffered
socket file and hands each to a :class:`RequestHead`, which owns every
framing decision:

* **Head caps.**  A line may hold at most :data:`MAX_LINE_BYTES` (64 KiB,
  terminator included) and a head at most :data:`MAX_HEADER_LINES`
  header lines — the limits ``http.server`` enforced.  An over-long
  request line answers 414, an over-long header line or too many header
  lines 431.
* **Body framing.**  ``Content-Length`` only, through
  :func:`parse_content_length` and
  :meth:`~repro.service.limits.ServiceLimits.check_body_size`; a
  ``Transfer-Encoding`` answers 501.  Every framing rejection is a
  structured JSON envelope, recorded in the metrics, and closes the
  connection: what follows on the socket can no longer be delimited.
* **Keep-alive.**  HTTP/1.1 keeps the connection open unless the request
  carries ``Connection: close``; HTTP/1.0 always closes.
* **100-continue.**  An HTTP/1.1 request with ``Expect: 100-continue``
  and a body gets the interim ``100 Continue`` only after its framing
  checks pass, so an oversized body is refused before the client sends
  it.
* **Hang-ups.**  A peer that closes or resets the connection before the
  head or the body is complete raises :class:`ConnectionClosed` (or the
  socket's ``OSError``): the daemon closes quietly, with no dispatch and
  no metrics.
* **Responses.**  :meth:`RequestHead.response` renders status line,
  ``Server``, ``Date`` (formatted once per second), ``Content-Type``,
  ``Content-Length`` and, when closing, ``Connection: close`` into one
  buffer — one ``send`` per response.  HEAD responses carry the headers
  of the body they omit.
"""

from __future__ import annotations

import email.utils
import functools
import json
import socket
import time
from http import HTTPStatus
from typing import Dict, Optional

from .envelope import ServiceError, error_envelope
from .limits import ServiceLimits
from .metrics import ServiceMetrics
from .routes import UNMATCHED, request_path, resolve

#: Longest request or header line, terminator included (``http.server``'s cap).
MAX_LINE_BYTES = 65536

#: Most header lines one request head may carry (``http.server``'s cap).
MAX_HEADER_LINES = 100

#: Listen backlog: a burst of connects waits in the kernel's accept
#: queue instead of being dropped (socketserver's default is 5).
LISTEN_BACKLOG = socket.SOMAXCONN

#: The ``Server`` header of every response.
SERVER_NAME = "repro-typed-query/1"

#: The interim response that releases a client waiting on ``Expect``.
CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"

_VERSIONS = ("HTTP/1.1", "HTTP/1.0")

#: The headers framing reads; the others are checked for form and dropped.
_FRAMING_HEADERS = frozenset(
    ("content-length", "transfer-encoding", "connection", "expect")
)

_STATUS_HEADS = {
    status.value: f"HTTP/1.1 {status.value} {status.phrase}\r\n"
    f"Server: {SERVER_NAME}\r\n".encode()
    for status in HTTPStatus
}


class ConnectionClosed(Exception):
    """The peer closed the connection before the request was complete."""


def parse_content_length(raw: Optional[str]) -> int:
    """The validated ``Content-Length`` of a request (absent counts as 0).

    A malformed value (``Content-Length: abc``) must answer a structured
    400, not abort the connection with an uncaught ``ValueError``, and a
    negative value must never reach a read of ``-1`` bytes — which reads
    until EOF and therefore blocks on a keep-alive socket until the peer
    gives up.
    """
    if raw is None:
        return 0
    try:
        length = int(raw.strip())
    except (ValueError, AttributeError):
        raise ServiceError(
            f"Content-Length header is not an integer: {raw.strip()!r}",
            code="bad-request",
        ) from None
    if length < 0:
        raise ServiceError(
            f"Content-Length header is negative: {length}", code="bad-request"
        )
    return length


def encode(envelope: dict) -> bytes:
    """An envelope as a response body."""
    return json.dumps(envelope).encode("utf-8")


@functools.lru_cache(maxsize=2)
def _date_line(second: int) -> bytes:
    return b"Date: %s\r\n" % email.utils.formatdate(second, usegmt=True).encode()


def render(
    status: int, payload: bytes, close: bool = False, body: bool = True
) -> bytes:
    """One whole JSON response, ready for a single send."""
    head = _STATUS_HEADS.get(status)
    if head is None:
        head = f"HTTP/1.1 {status} Unknown\r\nServer: {SERVER_NAME}\r\n".encode()
    return b"%s%sContent-Type: application/json\r\nContent-Length: %d\r\n%s\r\n%s" % (
        head,
        _date_line(int(time.time())),
        len(payload),
        b"Connection: close\r\n" if close else b"",
        payload if body else b"",
    )


def _has_token(value: Optional[str], token: str) -> bool:
    """Does the comma-separated header ``value`` list ``token``?"""
    return value is not None and any(
        part.strip().lower() == token for part in value.split(",")
    )


class RequestHead:
    """One request head, fed line by line, and its framing decisions.

    Feed raw lines (terminator included) to :meth:`feed` until it
    returns True, then call :meth:`frame`.  Both raise
    :class:`~repro.service.envelope.ServiceError` for a request that must
    be refused — render it with :meth:`reject` and close — and
    :meth:`feed` raises :class:`ConnectionClosed` for a line cut short by
    end of stream.  After :meth:`frame`, ``body_length``,
    ``keep_alive`` and ``expect_continue`` say how to read the body and
    what to do with the connection afterwards.  ``headers`` keeps only
    the headers framing reads (lower-cased names, repeats joined by
    ``", "``).
    """

    __slots__ = (
        "method", "target", "version", "headers", "body_length",
        "keep_alive", "expect_continue", "_lines",
    )

    def __init__(self) -> None:
        self.method = ""
        self.target = ""
        self.version = ""
        self.headers: Dict[str, str] = {}
        self.body_length = 0
        self.keep_alive = False
        self.expect_continue = False
        self._lines = 0

    def feed(self, line: bytes) -> bool:
        """Take one raw line; True once the blank line ends the head."""
        if len(line) > MAX_LINE_BYTES:
            raise self.line_too_long()
        if not line.endswith(b"\n"):
            raise ConnectionClosed()
        line = line.rstrip(b"\r\n")
        if not line and self.method:
            return True
        self._lines += 1
        if self._lines > MAX_HEADER_LINES + 1:
            raise ServiceError(
                f"request head has more than {MAX_HEADER_LINES} header lines",
                code="payload-too-large",
                status=431,
            )
        if not self.method:
            if line:
                self._request_line(line)
            # Blank lines before the request line are ignored (RFC 9112
            # §2.2) but still count against the line cap.
            return False
        name, colon, value = line.decode("latin-1").partition(":")
        # Whitespace before the colon and obsolete line folding are both
        # request-smuggling vectors; RFC 9112 §5 requires a 400.
        if not colon or not name or name[0] in " \t" or name[-1] in " \t":
            raise ServiceError(
                f"malformed header line: {line[:80].decode('latin-1')!r}",
                code="bad-request",
            )
        key = name.lower()
        if key in _FRAMING_HEADERS:
            value = value.strip()
            previous = self.headers.get(key)
            self.headers[key] = value if previous is None else f"{previous}, {value}"
        return False

    def _request_line(self, line: bytes) -> None:
        parts = line.decode("latin-1").split()
        if len(parts) != 3:
            raise ServiceError(
                f"malformed request line: {line[:80].decode('latin-1')!r}",
                code="bad-request",
            )
        method, target, version = parts
        if version not in _VERSIONS:
            if version.startswith("HTTP/"):
                raise ServiceError(
                    f"HTTP version {version!r} is not supported (HTTP/1.1 is)",
                    code="unsupported",
                    status=505,
                )
            raise ServiceError(
                f"malformed request line: {line[:80].decode('latin-1')!r}",
                code="bad-request",
            )
        self.method, self.target, self.version = method, target, version

    def line_too_long(self) -> ServiceError:
        """The error for a line over :data:`MAX_LINE_BYTES`."""
        if not self.method:
            return ServiceError(
                f"request line exceeds {MAX_LINE_BYTES} bytes",
                code="payload-too-large",
                status=414,
            )
        return ServiceError(
            f"header line exceeds {MAX_LINE_BYTES} bytes",
            code="payload-too-large",
            status=431,
        )

    def frame(self, limits: ServiceLimits) -> None:
        """Validate the body framing and settle the connection's fate."""
        headers = self.headers
        if "transfer-encoding" in headers:
            raise ServiceError(
                "Transfer-Encoding is not supported; send a Content-Length",
                code="unsupported",
                status=501,
            )
        length = parse_content_length(headers.get("content-length"))
        limits.check_body_size(length)
        self.body_length = length
        http11 = self.version == "HTTP/1.1"
        self.keep_alive = http11 and not _has_token(headers.get("connection"), "close")
        self.expect_continue = (
            http11 and length > 0 and _has_token(headers.get("expect"), "100-continue")
        )

    def response(self, status: int, payload: bytes) -> bytes:
        """The response to this request, under its keep-alive rule."""
        return render(
            status, payload, close=not self.keep_alive, body=self.method != "HEAD"
        )

    def reject(self, error: ServiceError, metrics: ServiceMetrics) -> bytes:
        """Record a refused request; the closing error response to send."""
        if self.method:
            path = request_path(self.target)
            command = f"{self.method} {path}"
            template = resolve(self.method, path).template
        else:
            command, template = "?", UNMATCHED
        metrics.observe(template, error.status, 0.0)
        return render(
            error.status,
            encode(error_envelope(command, error)),
            close=True,
            body=self.method != "HEAD",
        )
