"""Unit tests for :class:`repro.service.framing.RequestHead` and
:func:`~repro.service.framing.render`, over in-memory request bytes.

``test_content_length.py`` drives the daemon's reader over raw sockets;
these tests pin, with no server, the framing decisions that suite does
not reach: the keep-alive and ``Expect`` token rules, repeated framing
headers, the line caps at their edges, what counts as a hang-up, and
the metrics key and command under which a refused request is counted.
"""

import io
import json

import pytest

from repro.service import ServiceError
from repro.service.framing import (
    MAX_HEADER_LINES,
    MAX_LINE_BYTES,
    ConnectionClosed,
    RequestHead,
    render,
)
from repro.service.limits import ServiceLimits
from repro.service.metrics import ServiceMetrics

LIMITS = ServiceLimits(max_body_bytes=1024)


def feed_all(raw: bytes) -> RequestHead:
    """Feed ``raw`` line by line, as the daemon reads a socket, until the
    head is complete."""
    reader = io.BytesIO(raw)
    head = RequestHead()
    while not head.feed(reader.readline(MAX_LINE_BYTES + 1)):
        pass
    return head


def framed(raw: bytes, limits: ServiceLimits = LIMITS) -> RequestHead:
    head = feed_all(raw)
    head.frame(limits)
    return head


def request(version: str = "HTTP/1.1", *headers: str, method: str = "POST") -> bytes:
    lines = [f"{method} /satisfiable {version}", "Host: x", *headers]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def refusal(raw: bytes, limits: ServiceLimits = LIMITS) -> ServiceError:
    with pytest.raises(ServiceError) as excinfo:
        framed(raw, limits)
    return excinfo.value


class TestKeepAliveRule:
    @pytest.mark.parametrize(
        "version, connection, keep_alive",
        [
            ("HTTP/1.1", "keep-alive", True),
            ("HTTP/1.1", "Close", False),
            ("HTTP/1.1", "keep-alive, close", False),
            ("HTTP/1.0", "keep-alive", False),
        ],
    )
    def test_keep_alive(self, version, connection, keep_alive):
        head = framed(request(version, f"Connection: {connection}"))
        assert head.keep_alive is keep_alive

    def test_repeated_connection_headers_are_joined(self):
        head = framed(
            request("HTTP/1.1", "Connection: keep-alive", "Connection: close")
        )
        assert head.headers["connection"] == "keep-alive, close"
        assert head.keep_alive is False


class TestExpectContinue:
    @pytest.mark.parametrize(
        "expect, length, expected",
        [
            ("100-Continue", 2, True),
            ("100-continue", 0, False),
            ("something-else", 2, False),
            (None, 2, False),
        ],
    )
    def test_expect_continue(self, expect, length, expected):
        headers = [f"Content-Length: {length}"]
        if expect is not None:
            headers.append(f"Expect: {expect}")
        assert framed(request("HTTP/1.1", *headers)).expect_continue is expected


class TestBodyFraming:
    def test_length_names_and_values_are_normalized(self):
        assert framed(request("HTTP/1.1", "CONTENT-LENGTH:   17  ")).body_length == 17

    def test_a_body_at_the_cap_is_accepted(self):
        length = LIMITS.max_body_bytes
        head = framed(request("HTTP/1.1", f"Content-Length: {length}"))
        assert head.body_length == length

    def test_two_content_lengths_are_400(self):
        # The two values join as "5, 5", which is no integer: a length
        # stated twice is refused rather than guessed at.
        error = refusal(request("HTTP/1.1", "Content-Length: 5", "Content-Length: 5"))
        assert (error.status, error.code) == (400, "bad-request")

    @pytest.mark.parametrize("coding", ["identity", "gzip, chunked"])
    def test_any_transfer_encoding_is_501(self, coding):
        error = refusal(request("HTTP/1.1", f"Transfer-Encoding: {coding}"))
        assert (error.status, error.code) == (501, "unsupported")

    def test_transfer_encoding_beside_a_length_is_501(self):
        error = refusal(
            request("HTTP/1.1", "Content-Length: 2", "Transfer-Encoding: chunked")
        )
        assert error.status == 501

    def test_only_framing_headers_are_kept(self):
        head = framed(
            request("HTTP/1.1", "X-Custom: y", "Content-Length: 2", "Accept: */*")
        )
        assert head.headers == {"content-length": "2"}


class TestHeadLines:
    def test_blank_lines_before_the_request_line_are_skipped(self):
        head = framed(b"\r\n\r\n" + request())
        assert (head.method, head.target, head.version) == (
            "POST", "/satisfiable", "HTTP/1.1"
        )

    def test_blank_lines_before_the_request_line_count_against_the_cap(self):
        # The request line is line MAX_HEADER_LINES + 2 of the head.
        error = refusal(b"\r\n" * (MAX_HEADER_LINES + 1) + request())
        assert error.status == 431

    def test_a_header_line_at_the_cap_is_accepted(self):
        prefix = b"X-Pad: "
        pad = b"p" * (MAX_LINE_BYTES - len(prefix) - 2)
        raw = b"GET /healthz HTTP/1.1\r\n" + prefix + pad + b"\r\n\r\n"
        assert framed(raw).method == "GET"

    @pytest.mark.parametrize(
        "line",
        [
            b"no colon here",
            b": no name",
            b" folded: value",
            b"Name\t: value",
        ],
    )
    def test_malformed_header_line_is_400(self, line):
        error = refusal(b"GET /healthz HTTP/1.1\r\n" + line + b"\r\n\r\n")
        assert (error.status, error.code) == (400, "bad-request")

    @pytest.mark.parametrize(
        "raw",
        [b"", b"GET /healthz HTTP/1.1", b"GET /healthz HTTP/1.1\r\nHost: x"],
        ids=["before-the-head", "mid-request-line", "mid-header"],
    )
    def test_end_of_stream_inside_the_head_is_a_hang_up(self, raw):
        with pytest.raises(ConnectionClosed):
            feed_all(raw)


class TestRender:
    def test_an_unknown_status_still_renders(self):
        assert render(599, b"{}").startswith(b"HTTP/1.1 599 Unknown\r\n")


class TestReject:
    def reject(self, raw: bytes):
        """The refusal ``raw`` earns, the response it renders and the
        metrics table that counted it."""
        reader = io.BytesIO(raw)
        head = RequestHead()
        metrics = ServiceMetrics()
        with pytest.raises(ServiceError) as excinfo:
            while not head.feed(reader.readline(MAX_LINE_BYTES + 1)):
                pass
            head.frame(LIMITS)
        response = head.reject(excinfo.value, metrics)
        return response, metrics.snapshot()["endpoints"]

    def test_counted_under_its_route_and_closes(self):
        response, endpoints = self.reject(
            request("HTTP/1.1", "Transfer-Encoding: chunked")
        )
        assert endpoints["POST /satisfiable"]["by_status"] == {"501": 1}
        assert b"\r\nConnection: close\r\n" in response
        envelope = json.loads(response.split(b"\r\n\r\n", 1)[1])
        assert envelope["command"] == "POST /satisfiable"
        assert envelope["error"]["code"] == "unsupported"

    def test_unrouted_path_is_counted_as_unmatched(self):
        raw = b"GET /nosuch/?x=1 HTTP/1.1\r\nBad Header\r\n\r\n"
        response, endpoints = self.reject(raw)
        assert list(endpoints) == ["unmatched"]
        envelope = json.loads(response.split(b"\r\n\r\n", 1)[1])
        assert envelope["command"] == "GET /nosuch"

    def test_refused_before_a_request_line(self):
        response, endpoints = self.reject(
            b"GET /" + b"a" * MAX_LINE_BYTES + b" HTTP/1.1\r\n"
        )
        assert endpoints["unmatched"]["by_status"] == {"414": 1}
        envelope = json.loads(response.split(b"\r\n\r\n", 1)[1])
        assert envelope["command"] == "?"

    def test_refused_head_request_has_no_body(self):
        response, _ = self.reject(
            request("HTTP/1.1", "Transfer-Encoding: chunked", method="HEAD")
        )
        assert response.startswith(b"HTTP/1.1 501 ")
        assert response.endswith(b"\r\n\r\n")
