"""The daemon's HTTP/1.1 framing (:mod:`repro.service.framing`), over raw
sockets.  The contracts pinned here:

* a malformed or negative ``Content-Length`` answers a structured 400
  before any body byte is read (it used to raise an uncaught
  ``ValueError``, or read to EOF on a keep-alive socket), an oversized
  one a 413, and all three close the connection;
* a malformed request line is a JSON 400, an over-cap head a JSON
  414/431, and both close the connection;
* HTTP/1.1 keeps the connection open, HTTP/1.0 and ``Connection: close``
  close it, and pipelined requests are answered in order;
* ``Expect: 100-continue`` gets ``100 Continue`` only once the framing
  checks pass;
* a client hanging up mid-request (short body, reset) is neither
  dispatched nor counted, and logs nothing;
* the per-endpoint metrics table is keyed by route template, so it
  stays bounded however many distinct paths clients send.

These tests speak raw sockets because ``http.client`` refuses to *send*
most of these requests.
"""

import json
import logging
import socket
import struct
import time

import pytest

from repro.service import ServiceError, TypedQueryService
from repro.service.framing import MAX_HEADER_LINES, MAX_LINE_BYTES, parse_content_length

#: Generous ceiling for "the server answered instead of hanging".  The
#: negative-length bug blocked until the client timed out, so a bounded
#: socket timeout doubles as the hang detector.
SOCKET_TIMEOUT_S = 5.0

SCHEMA = "DOC = [(paper -> P)*]; P = [title -> T]; T = string"


@pytest.fixture(scope="module")
def service():
    with TypedQueryService(port=0) as svc:
        yield svc


def raw_request(host: str, port: int, request: bytes) -> bytes:
    """Send raw bytes, read until the response's body is complete."""
    with socket.create_connection((host, port), timeout=SOCKET_TIMEOUT_S) as sock:
        sock.sendall(request)
        chunks = b""
        while True:
            # Headers and body may arrive in separate segments; read
            # until the Content-Length promise is fulfilled.
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks += chunk
            head, sep, body = chunks.partition(b"\r\n\r\n")
            if not sep:
                continue
            for line in head.split(b"\r\n"):
                if line.lower().startswith(b"content-length:"):
                    expected = int(line.split(b":", 1)[1])
                    if len(body) >= expected:
                        return chunks
        return chunks


def parse_response(raw: bytes):
    head, _, body = raw.partition(b"\r\n\r\n")
    status_line = head.split(b"\r\n", 1)[0].decode("latin-1")
    status = int(status_line.split()[1])
    return status, json.loads(body)


def read_response(reader):
    """One response off a socket file: ``(status, headers, body)``."""
    status_line = reader.readline()
    if not status_line:
        raise EOFError("connection closed before a response")
    headers = {}
    while True:
        line = reader.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = reader.read(int(headers.get("content-length", 0)))
    return int(status_line.split()[1]), headers, body


def post(
    path: str, payload: dict, extra: bytes = b"", version: bytes = b"HTTP/1.1"
) -> bytes:
    body = json.dumps(payload).encode()
    return (
        b"POST " + path.encode() + b" " + version + b"\r\nHost: x\r\n" + extra
        + f"Content-Length: {len(body)}\r\n\r\n".encode() + body
    )


def get(path: str, extra: bytes = b"", version: bytes = b"HTTP/1.1") -> bytes:
    return (
        b"GET " + path.encode() + b" " + version + b"\r\nHost: x\r\n" + extra + b"\r\n"
    )


def connect(service) -> socket.socket:
    return socket.create_connection(
        (service.host, service.port), timeout=SOCKET_TIMEOUT_S
    )


def assert_closed(reader) -> None:
    """The server closed its end (a hang here times out the socket)."""
    assert reader.read() == b""


def endpoint_table(service) -> dict:
    """The daemon's per-endpoint metrics table."""
    with connect(service) as sock:
        sock.sendall(get("/stats"))
        status, _, body = read_response(sock.makefile("rb"))
    assert status == 200
    return json.loads(body)["result"]["service"]["endpoints"]


def requests_for(service, route: str) -> int:
    return endpoint_table(service).get(route, {}).get("requests", 0)


class TestParseContentLength:
    def test_absent_header_means_empty_body(self):
        assert parse_content_length(None) == 0

    def test_valid_lengths(self):
        assert parse_content_length("0") == 0
        assert parse_content_length("  128  ") == 128

    @pytest.mark.parametrize("raw", ["abc", "", "12x", "1.5", "0x10", "nan"])
    def test_non_integer_is_bad_request(self, raw):
        with pytest.raises(ServiceError) as excinfo:
            parse_content_length(raw)
        assert excinfo.value.code == "bad-request"
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("raw", ["-1", "-5", "  -9999 "])
    def test_negative_is_bad_request(self, raw):
        with pytest.raises(ServiceError) as excinfo:
            parse_content_length(raw)
        assert excinfo.value.code == "bad-request"
        # The message names the value so the 400 is actionable.
        assert "negative" in excinfo.value.message


class TestDaemonContentLength:
    def test_malformed_header_yields_structured_400(self, service):
        raw = raw_request(
            service.host,
            service.port,
            b"POST /satisfiable HTTP/1.1\r\n"
            b"Host: x\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: abc\r\n"
            b"\r\n",
        )
        status, envelope = parse_response(raw)
        assert status == 400
        assert envelope["ok"] is False
        assert envelope["error"]["code"] == "bad-request"
        assert "abc" in envelope["error"]["message"]

    def test_negative_length_answers_without_hanging(self, service):
        """The old code passed -5 to ``rfile.read``, i.e. read-to-EOF on a
        keep-alive socket: the request hung until the client died.  Now it
        must answer a structured 400 within the socket timeout — and must
        NOT wait for (nonexistent) body bytes first."""
        raw = raw_request(
            service.host,
            service.port,
            b"POST /satisfiable HTTP/1.1\r\n"
            b"Host: x\r\n"
            b"Content-Length: -5\r\n"
            b"\r\n",
        )
        status, envelope = parse_response(raw)
        assert status == 400
        assert envelope["error"]["code"] == "bad-request"
        assert "-5" in envelope["error"]["message"]

    def test_malformed_length_closes_the_connection(self, service):
        """After a framing violation the connection cannot be trusted —
        the server must close it rather than misinterpret what follows."""
        with connect(service) as sock:
            sock.sendall(
                b"POST /satisfiable HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: nope\r\n\r\n"
            )
            data = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break  # server closed: the behavior under test
                data += chunk
            assert b"400" in data.split(b"\r\n", 1)[0]

    def test_oversized_length_is_413_without_reading_body(self, service):
        declared = service.state.limits.max_body_bytes + 1
        # No body bytes are sent: a server that tried to read the declared
        # length first would block; the correct server answers immediately.
        raw = raw_request(
            service.host,
            service.port,
            b"POST /satisfiable HTTP/1.1\r\nHost: x\r\n"
            + f"Content-Length: {declared}\r\n\r\n".encode(),
        )
        status, envelope = parse_response(raw)
        assert status == 413
        assert envelope["error"]["code"] == "payload-too-large"

    def test_valid_request_still_round_trips(self, service):
        body = json.dumps({"schema": "T = string"}).encode()
        raw = raw_request(
            service.host,
            service.port,
            b"POST /schemas HTTP/1.1\r\nHost: x\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode()
            + body,
        )
        status, envelope = parse_response(raw)
        assert status == 200
        assert envelope["ok"] is True
        assert envelope["result"]["fingerprint"]

    def test_bad_json_body_is_400(self, service):
        raw = raw_request(
            service.host,
            service.port,
            b"POST /satisfiable HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 9\r\n\r\nnot json!",
        )
        status, envelope = parse_response(raw)
        assert status == 400
        assert envelope["error"]["code"] == "bad-request"


class TestRequestHead:
    @pytest.mark.parametrize(
        "line",
        [b"GARBAGE", b"GET /healthz", b"GET /healthz HTTP/1.1 extra", b"GET / FTP/1.0"],
    )
    def test_malformed_request_line_is_json_400_and_closes(self, service, line):
        with connect(service) as sock:
            sock.sendall(line + b"\r\nHost: x\r\n\r\n")
            reader = sock.makefile("rb")
            status, _, body = read_response(reader)
            assert status == 400
            envelope = json.loads(body)
            assert envelope["ok"] is False
            assert envelope["error"]["code"] == "bad-request"
            assert_closed(reader)

    def test_unsupported_version_is_505(self, service):
        with connect(service) as sock:
            sock.sendall(b"GET /healthz HTTP/2.0\r\nHost: x\r\n\r\n")
            reader = sock.makefile("rb")
            status, _, body = read_response(reader)
            assert status == 505
            assert json.loads(body)["error"]["code"] == "unsupported"
            assert_closed(reader)

    def test_over_long_request_line_is_414(self, service):
        with connect(service) as sock:
            sock.sendall(b"GET /" + b"a" * MAX_LINE_BYTES + b" HTTP/1.1\r\n\r\n")
            reader = sock.makefile("rb")
            status, _, body = read_response(reader)
            assert status == 414
            envelope = json.loads(body)
            assert envelope["error"]["code"] == "payload-too-large"
            assert_closed(reader)

    def test_over_long_header_line_is_431(self, service):
        with connect(service) as sock:
            sock.sendall(
                b"GET /healthz HTTP/1.1\r\nX-Big: " + b"b" * MAX_LINE_BYTES + b"\r\n\r\n"
            )
            reader = sock.makefile("rb")
            status, _, body = read_response(reader)
            assert status == 431
            assert json.loads(body)["error"]["code"] == "payload-too-large"
            assert_closed(reader)

    def test_too_many_header_lines_is_431(self, service):
        headers = b"".join(b"X-H%d: v\r\n" % i for i in range(MAX_HEADER_LINES + 1))
        with connect(service) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\n" + headers + b"\r\n")
            reader = sock.makefile("rb")
            status, _, body = read_response(reader)
            assert status == 431
            assert "header lines" in json.loads(body)["error"]["message"]
            assert_closed(reader)

    def test_head_at_the_caps_is_accepted(self, service):
        headers = b"".join(b"X-H%d: v\r\n" % i for i in range(MAX_HEADER_LINES - 1))
        with connect(service) as sock:
            sock.sendall(get("/healthz", extra=headers))
            status, _, body = read_response(sock.makefile("rb"))
        assert status == 200
        assert json.loads(body)["ok"] is True

    def test_transfer_encoding_is_501_and_closes(self, service):
        with connect(service) as sock:
            sock.sendall(
                b"POST /schemas HTTP/1.1\r\nHost: x\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n"
            )
            reader = sock.makefile("rb")
            status, _, body = read_response(reader)
            assert status == 501
            assert json.loads(body)["error"]["code"] == "unsupported"
            assert_closed(reader)

    def test_whitespace_before_colon_is_400(self, service):
        with connect(service) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost : x\r\n\r\n")
            reader = sock.makefile("rb")
            status, _, _ = read_response(reader)
            assert status == 400
            assert_closed(reader)


class TestKeepAlive:
    def test_http11_keeps_the_connection_open(self, service):
        with connect(service) as sock:
            reader = sock.makefile("rb")
            for _ in range(3):
                sock.sendall(get("/healthz"))
                status, headers, _ = read_response(reader)
                assert status == 200
                assert "connection" not in headers

    def test_responses_carry_server_and_date(self, service):
        with connect(service) as sock:
            sock.sendall(get("/healthz"))
            _, headers, _ = read_response(sock.makefile("rb"))
        assert headers["server"] == "repro-typed-query/1"
        assert headers["date"].endswith(" GMT")
        assert headers["content-type"] == "application/json"

    def test_http10_closes_after_the_response(self, service):
        with connect(service) as sock:
            sock.sendall(get("/healthz", version=b"HTTP/1.0"))
            reader = sock.makefile("rb")
            status, headers, _ = read_response(reader)
            assert status == 200
            assert headers["connection"] == "close"
            assert_closed(reader)

    def test_connection_close_closes_after_the_response(self, service):
        with connect(service) as sock:
            sock.sendall(get("/healthz", extra=b"Connection: close\r\n"))
            reader = sock.makefile("rb")
            status, headers, _ = read_response(reader)
            assert status == 200
            assert headers["connection"] == "close"
            assert_closed(reader)

    def test_pipelined_requests_are_answered_in_order(self, service):
        with connect(service) as sock:
            sock.sendall(
                post("/schemas", {"schema": SCHEMA})
                + get("/nosuch")
                + get("/healthz")
            )
            reader = sock.makefile("rb")
            answers = [read_response(reader) for _ in range(3)]
        assert [status for status, _, _ in answers] == [200, 404, 200]
        assert json.loads(answers[0][2])["command"] == "POST /schemas"
        assert json.loads(answers[1][2])["command"] == "GET /nosuch"
        assert json.loads(answers[2][2])["command"] == "GET /healthz"

    def test_head_response_has_no_body(self, service):
        with connect(service) as sock:
            sock.sendall(b"HEAD /healthz HTTP/1.1\r\nHost: x\r\n\r\n" + get("/healthz"))
            reader = sock.makefile("rb")
            status_line = reader.readline()
            headers = {}
            while True:
                line = reader.readline()
                if line == b"\r\n":
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            assert int(headers["content-length"]) > 0
            # The next bytes are the second response, not a HEAD body.
            status, _, body = read_response(reader)
        assert int(status_line.split()[1]) == 405
        assert status == 200
        assert json.loads(body)["command"] == "GET /healthz"


class TestExpectContinue:
    def test_continue_precedes_the_body(self, service):
        body = json.dumps({"schema": SCHEMA}).encode()
        with connect(service) as sock:
            sock.sendall(
                b"POST /schemas HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n"
                + f"Content-Length: {len(body)}\r\n\r\n".encode()
            )
            reader = sock.makefile("rb")
            # A server that never sends 100 Continue times this read out.
            interim, _, _ = read_response(reader)
            assert interim == 100
            sock.sendall(body)
            status, _, answer = read_response(reader)
        assert status == 200
        assert json.loads(answer)["result"]["fingerprint"]

    def test_oversized_body_is_refused_without_continue(self, service):
        declared = service.state.limits.max_body_bytes + 1
        with connect(service) as sock:
            sock.sendall(
                b"POST /schemas HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\n"
                + f"Content-Length: {declared}\r\n\r\n".encode()
            )
            reader = sock.makefile("rb")
            status, _, body = read_response(reader)
            assert status == 413
            assert json.loads(body)["error"]["code"] == "payload-too-large"
            assert_closed(reader)

    def test_http10_expectation_is_ignored(self, service):
        with connect(service) as sock:
            sock.sendall(
                post(
                    "/schemas",
                    {"schema": SCHEMA},
                    b"Expect: 100-continue\r\n",
                    b"HTTP/1.0",
                )
            )
            status, _, _ = read_response(sock.makefile("rb"))
        assert status == 200


class TestHangUps:
    def _quiet(self, capfd, caplog) -> None:
        out, err = capfd.readouterr()
        assert "Traceback" not in err and "Exception" not in err, err
        assert not [
            record for record in caplog.records if record.levelno >= logging.ERROR
        ], caplog.records

    def test_short_body_is_not_dispatched(self, service, capfd, caplog):
        before = requests_for(service, "POST /satisfiable")
        with connect(service) as sock:
            sock.sendall(
                b"POST /satisfiable HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 100\r\n\r\n{\"fingerprint\": "
            )
            sock.shutdown(socket.SHUT_WR)
            assert_closed(sock.makefile("rb"))
        time.sleep(0.2)
        assert requests_for(service, "POST /satisfiable") == before
        self._quiet(capfd, caplog)

    def test_reset_mid_body_is_not_dispatched(self, service, capfd, caplog):
        before = requests_for(service, "POST /satisfiable")
        sock = connect(service)
        sock.sendall(
            b"POST /satisfiable HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 100\r\n\r\n{\"fingerprint\": "
        )
        time.sleep(0.1)  # let the server block on the rest of the body
        # Linger 0: close() sends RST instead of FIN.
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        sock.close()
        time.sleep(0.3)
        assert requests_for(service, "POST /satisfiable") == before
        self._quiet(capfd, caplog)

    def test_hang_up_mid_head_is_quiet(self, service, capfd, caplog):
        with connect(service) as sock:
            sock.sendall(b"POST /satisfiable HTTP/1.1\r\nHost: x")
            sock.shutdown(socket.SHUT_WR)
            assert_closed(sock.makefile("rb"))
        time.sleep(0.2)
        self._quiet(capfd, caplog)


class TestMetricRoutes:
    def test_endpoint_table_is_keyed_by_route(self, service):
        """Raw client paths used to key the table: every unknown path and
        every fingerprint in a path added an entry that never went away."""
        with connect(service) as sock:
            reader = sock.makefile("rb")
            for index in range(40):
                sock.sendall(get(f"/nosuch/{index}"))
                sock.sendall(b"DELETE /schemas/fp%d HTTP/1.1\r\nHost: x\r\n\r\n" % index)
                sock.sendall(get(f"/schemas/fp{index}/history"))
                sock.sendall(post(f"/schemas/fp{index}/migrate", {"schema": SCHEMA}))
                statuses = [read_response(reader)[0] for _ in range(4)]
                assert statuses == [404, 404, 404, 404]
        table = endpoint_table(service)
        assert len(table) <= 12, sorted(table)
        for key in table:
            assert "fp" not in key.replace("{fp}", ""), key
        for route in (
            "unmatched",
            "DELETE /schemas/{fp}",
            "GET /schemas/{fp}/history",
            "POST /schemas/{fp}/migrate",
        ):
            assert table.get(route, {}).get("requests", 0) >= 40, route

    @pytest.mark.parametrize(
        "method, target, status, code",
        [
            ("POST", "/schemas/a/b/migrate", 404, "not-found"),
            ("GET", "/schemas//history", 404, "not-found"),
            ("GET", "/schemas/fp", 405, "method-not-allowed"),
            ("DELETE", "/schemas", 405, "method-not-allowed"),
        ],
    )
    def test_unmatched_requests_are_refused_where_counted(
        self, service, method, target, status, code
    ):
        """Dispatch and the metrics key come from one resolver: a request
        counted as ``unmatched`` is refused once and never reaches an
        endpoint handler."""
        before = requests_for(service, "unmatched")
        request = b"%s %s HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n{}" % (
            method.encode(),
            target.encode(),
        )
        with connect(service) as sock:
            sock.sendall(request)
            got, _, body = read_response(sock.makefile("rb"))
        assert got == status
        assert json.loads(body)["error"]["code"] == code
        assert requests_for(service, "unmatched") == before + 1
