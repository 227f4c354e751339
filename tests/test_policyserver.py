import http.client
import json
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request

import pytest

from edgeplane import policyserver
from edgeplane.errors import PolicyError
from edgeplane.policy import evaluate_query
from edgeplane.policyserver import (
    CONNECTION_TIMEOUT_S,
    MAX_BODY_BYTES,
    PolicyAgentHandler,
    canonical_json,
    data_response,
    evaluate_response,
    make_server,
    serve,
)


@pytest.fixture
def setup(canonical):
    return canonical.graph, canonical.policies


def test_canonical_json_is_stable_and_compact():
    payload = {"b": 1, "a": {"z": [1, 2], "y": "x"}}
    data = canonical_json(payload)
    assert data == b'{"a":{"y":"x","z":[1,2]},"b":1}'
    assert canonical_json(json.loads(data)) == data


def test_data_response_frozen(setup):
    graph, pset = setup
    assert data_response(pset, graph, ["placement_restriction", "m2"]) == \
        (200, {"result": {"mode": "allow", "domains": ["ed3", "ed4"]}})
    assert data_response(pset, graph, ["placement_restriction", "m4"]) == \
        (200, {"result": "unrestricted"})
    assert data_response(pset, graph, ["iot_locality", "m2"]) == \
        (200, {"result": "StrictDomain"})
    assert data_response(pset, graph, ["iot_locality", "m5"]) == \
        (200, {"result": "Global"})
    assert data_response(pset, graph, ["ms_locality", "m2", "m3"]) == \
        (200, {"result": "StrictRegion"})
    assert data_response(pset, graph, ["ms_locality", "m4", "m5"]) == \
        (200, {"result": "Global"})


def test_data_response_unknown_key(setup):
    graph, pset = setup
    assert data_response(pset, graph, []) == (404, {"error": "unknown_key"})
    assert data_response(pset, graph, ["firewall", "m2"]) == \
        (404, {"error": "unknown_key"})
    # wrong arity for the type is an unknown key, not a server error
    assert data_response(pset, graph, ["iot_locality"]) == \
        (404, {"error": "unknown_key"})
    assert data_response(pset, graph, ["iot_locality", "m2", "extra"]) == \
        (404, {"error": "unknown_key"})
    assert data_response(pset, graph, ["ms_locality", "m2"]) == \
        (404, {"error": "unknown_key"})


def test_data_response_unquotes_parts(setup):
    graph, pset = setup
    assert data_response(pset, graph, ["iot_locality", "m%32"]) == \
        (200, {"result": "StrictDomain"})


def evaluate(pset, graph, policy, input_doc):
    body = json.dumps({"policy": policy, "input": input_doc}).encode()
    return evaluate_response(pset, graph, body)


def test_evaluate_response_frozen(setup):
    graph, pset = setup
    status, payload = evaluate(pset, graph, "placement_restriction",
                               {"microservice": "m2", "domain": "cloud"})
    assert status == 200
    assert payload["result"]["allowed"] is False
    assert "excludes cloud" in payload["result"]["reason"]

    status, payload = evaluate(pset, graph, "placement_restriction",
                               {"microservice": "m2", "domain": "ed3"})
    assert (status, payload["result"]["allowed"]) == (200, True)

    status, payload = evaluate(pset, graph, "iot_locality", {
        "microservice": "m2", "device_domain": "ed3", "target_domain": "ed4"})
    assert (status, payload["result"]["allowed"]) == (200, False)

    status, payload = evaluate(pset, graph, "ms_locality", {
        "consumer": "m2", "consumed": "m3",
        "consumer_domain": "ed3", "target_domain": "ed4"})
    assert (status, payload["result"]["allowed"]) == (200, True)


def test_evaluate_response_malformed(setup):
    graph, pset = setup
    assert evaluate_response(pset, graph, b"{not json") == \
        (400, {"error": "body is not valid JSON"})
    # nested too deeply for json.loads, which raises RecursionError on these
    for body in (b"[" * 5000, b'{"policy":' + b"[" * 5000):
        assert evaluate_response(pset, graph, body) == \
            (400, {"error": "body is not valid JSON"})
    assert evaluate_response(pset, graph, b"[]") == \
        (400, {"error": "body must carry 'policy' and 'input'"})
    assert evaluate_response(pset, graph, b'{"policy": "iot_locality"}') == \
        (400, {"error": "body must carry 'policy' and 'input'"})
    assert evaluate_response(
        pset, graph, b'{"policy": "iot_locality", "input": 5}') == \
        (400, {"error": "'input' must be a mapping"})
    status, payload = evaluate(pset, graph, "firewall", {})
    assert status == 400 and "firewall" in payload["error"]
    # a known policy with a missing input field is a client error too
    status, payload = evaluate(pset, graph, "placement_restriction",
                               {"microservice": "m2"})
    assert status == 400


@pytest.mark.parametrize("policy, input_doc, unknown", [
    ("iot_locality", {"microservice": "ghost", "device_domain": "ed3", "target_domain": "ed4"}, "ghost"),
    ("iot_locality", {"microservice": "m2", "device_domain": "nowhere", "target_domain": "ed4"}, "nowhere"),
    ("iot_locality", {"microservice": "m2", "device_domain": "ed3", "target_domain": "nowhere"}, "nowhere"),
    ("ms_locality", {"consumer": "m2", "consumed": "ghost",
                     "consumer_domain": "ed3", "target_domain": "ed4"}, "ghost"),
    ("ms_locality", {"consumer": "m2", "consumed": "m3",
                     "consumer_domain": "nowhere", "target_domain": "ed4"}, "nowhere"),
])
def test_evaluate_response_unknown_ids(setup, policy, input_doc, unknown):
    graph, pset = setup
    assert evaluate(pset, graph, policy, input_doc) == (400, {"error": unknown})


@pytest.fixture
def server(canonical):
    srv = make_server(canonical.policies, canonical.graph)
    thread = threading.Thread(target=srv.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    yield srv, f"http://127.0.0.1:{srv.server_address[1]}"
    srv.shutdown()
    srv.server_close()
    thread.join(timeout=5)


def http_get(base, path):
    try:
        with urllib.request.urlopen(base + path) as resp:
            return resp.status, resp.read(), resp.headers
    except urllib.error.HTTPError as err:
        return err.code, err.read(), err.headers


def http_post(base, path, body: bytes):
    req = urllib.request.Request(base + path, data=body, method="POST",
                                 headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req) as resp:
            return resp.status, resp.read(), resp.headers
    except urllib.error.HTTPError as err:
        return err.code, err.read(), err.headers


@pytest.mark.parametrize("microservice", [2, ["m2"]])
def test_a_microservice_field_that_is_not_a_string_is_a_client_error(server, canonical, microservice):
    """An int or a list where the input names a microservice is a PolicyError
    in process and a 400 over the wire, not a server error."""
    srv, base = server
    input_doc = {"microservice": microservice, "domain": "ed3"}
    error = "evaluate input field 'microservice' missing or not a string"
    with pytest.raises(PolicyError, match=f"^{error}$"):
        evaluate_query(canonical.policies, canonical.graph, "placement_restriction", input_doc)
    body = json.dumps({"policy": "placement_restriction", "input": input_doc}).encode()
    status, body, _ = http_post(base, "/v1/evaluate", body)
    assert (status, body) == (400, canonical_json({"error": error}))


def test_wire_get_matches_in_process(server, canonical):
    srv, base = server
    pset, graph = canonical.policies, canonical.graph
    paths = [
        ["placement_restriction", "m2"],
        ["placement_restriction", "m4"],
        ["iot_locality", "m2"],
        ["iot_locality", "m5"],
        ["ms_locality", "m2", "m3"],
        ["ms_locality", "m4", "m5"],
        ["bogus", "key"],
        ["iot_locality"],
    ]
    for parts in paths:
        status, payload = data_response(pset, graph, parts)
        wire_status, body, headers = http_get(base, "/v1/data/" + "/".join(parts))
        assert wire_status == status
        assert body == canonical_json(payload)
        assert headers["Content-Type"] == "application/json; charset=utf-8"
        assert int(headers["Content-Length"]) == len(body)


def test_wire_post_matches_in_process(server, canonical):
    srv, base = server
    pset, graph = canonical.policies, canonical.graph
    bodies = [
        json.dumps({"policy": "placement_restriction",
                    "input": {"microservice": "m2", "domain": "cloud"}}).encode(),
        json.dumps({"policy": "iot_locality",
                    "input": {"microservice": "m2", "device_domain": "ed3",
                              "target_domain": "ed3"}}).encode(),
        b"{broken",
        b'{"policy": "nope", "input": {}}',
    ]
    for body in bodies:
        status, payload = evaluate_response(pset, graph, body)
        wire_status, wire_body, _ = http_post(base, "/v1/evaluate", body)
        assert wire_status == status
        assert wire_body == canonical_json(payload)


def test_wire_unknown_paths(server):
    srv, base = server
    status, body, _ = http_get(base, "/v2/data/iot_locality/m2")
    assert status == 404
    assert body == canonical_json({"error": "unknown_path"})
    status, body, _ = http_post(base, "/v1/other", b"{}")
    assert status == 404
    assert body == canonical_json({"error": "unknown_path"})


def test_wire_data_with_no_policy_type_is_an_unknown_key(server):
    srv, base = server
    for path in ("/v1/data", "/v1/data/"):
        status, body, _ = http_get(base, path)
        assert (status, body) == (404, canonical_json({"error": "unknown_key"})), path


def test_wire_post_to_an_unknown_path_keeps_the_connection_in_step(server):
    """The body of a POST answered 404 is read, so the request after it on
    the same keep-alive connection is answered, not parsed from that body."""
    srv, base = server
    conn = keep_alive(srv)
    try:
        assert exchange(conn, "POST", "/v1/other", b'{"policy": "x"}') == \
            (404, canonical_json({"error": "unknown_path"}))
        assert exchange(conn, "GET", "/v1/data/iot_locality/m2") == \
            (200, b'{"result":"StrictDomain"}')
    finally:
        conn.close()


def test_wire_get_documented_lookup(server):
    # the README's example lookup for a strict-domain ingress service
    srv, base = server
    status, body, _ = http_get(base, "/v1/data/iot_locality/m2")
    assert status == 200
    assert body == b'{"result":"StrictDomain"}'


def read_until_closed(sock) -> bytes:
    """Everything the server sends before it closes; the socket's timeout fails a hang."""
    chunks = []
    while chunk := sock.recv(4096):
        chunks.append(chunk)
    return b"".join(chunks)


def test_wire_refuses_an_oversized_body_unread(server):
    srv, base = server
    with socket.create_connection(srv.server_address, timeout=5) as sock:
        sock.sendall(b"POST /v1/evaluate HTTP/1.1\r\nHost: t\r\n"
                     b"Content-Length: %d\r\n\r\n" % (MAX_BODY_BYTES + 1))
        head, _, body = read_until_closed(sock).partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 413 ")
    assert b"\r\nConnection: close" in head
    assert body == canonical_json({"error": f"body over {MAX_BODY_BYTES} bytes"})
    # a body of exactly the cap is read and judged
    status, body, _ = http_post(base, "/v1/evaluate", b" " * MAX_BODY_BYTES)
    assert (status, body) == (400, canonical_json({"error": "body is not valid JSON"}))


@pytest.mark.parametrize("length, status, error", [
    (b"abc", 400, "Content-Length must be a decimal number"),
    (b"-5", 400, "Content-Length must be a decimal number"),
    (b"+17", 400, "Content-Length must be a decimal number"),
    (b"", 400, "Content-Length must be a decimal number"),
    (b"9" * 5000, 413, f"body over {MAX_BODY_BYTES} bytes"),  # more digits than int() reads
], ids=["letters", "negative", "signed", "empty", "5000-digits"])
def test_wire_refuses_a_malformed_content_length_unread(server, length, status, error):
    """A Content-Length that is not a decimal number, or one too long to
    read, gets one JSON answer and the connection closes: the body after it
    is never read as a next request."""
    srv, base = server
    body = b'{"policy": "placement_restriction", "input": {}}'
    with socket.create_connection(srv.server_address, timeout=5) as sock:
        sock.sendall(b"POST /v1/evaluate HTTP/1.1\r\nHost: t\r\nContent-Length: %s\r\n\r\n%s" % (length, body))
        sent = read_until_closed(sock)
    head, _, answer = sent.partition(b"\r\n\r\n")
    assert sent.count(b"HTTP/1.1 ") == 1, sent
    assert head.startswith(b"HTTP/1.1 %d " % status)
    assert b"\r\nConnection: close" in head
    assert answer == canonical_json({"error": error})
    # zero-padded digits between optional whitespace are still a length
    want = http_post(base, "/v1/evaluate", body)[:2]
    with socket.create_connection(srv.server_address, timeout=5) as sock:
        sock.sendall(b"POST /v1/evaluate HTTP/1.1\r\nHost: t\r\nConnection: close\r\n"
                     b"Content-Length: \t%06d \r\n\r\n%s" % (len(body), body))
        head, _, answer = read_until_closed(sock).partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 %d " % want[0]) and answer == want[1]


def test_wire_drops_a_client_that_never_sends_its_body(server, monkeypatch):
    """One slow client declares a body and sends none: its connection is
    closed at the handler's timeout, not held open forever.  The timeout is
    shortened here so that the test does not sit it out."""
    assert PolicyAgentHandler.timeout == CONNECTION_TIMEOUT_S
    monkeypatch.setattr(PolicyAgentHandler, "timeout", 0.2)
    srv, base = server
    with socket.create_connection(srv.server_address, timeout=5) as sock:
        sock.sendall(b"POST /v1/evaluate HTTP/1.1\r\nHost: t\r\nContent-Length: 100\r\n\r\n")
        started = time.monotonic()
        assert read_until_closed(sock) == b""
        assert time.monotonic() - started < 4
    assert http_get(base, "/v1/data/iot_locality/m2")[:2] == (200, b'{"result":"StrictDomain"}')


def keep_alive(srv) -> http.client.HTTPConnection:
    return http.client.HTTPConnection("127.0.0.1", srv.server_address[1], timeout=5)


def exchange(conn, method, path, body=None):
    conn.request(method, path, body=body)
    response = conn.getresponse()
    return response.status, response.read()


def test_wire_keep_alive_answers_wait_on_no_timer(server, canonical):
    """Twenty requests, alternating GET and POST, on one keep-alive connection:
    every answer equals the in-process one, and the median round trip stays far
    below the 40 ms delayed-ACK timer that the body, written after the headers,
    waits on when Nagle's algorithm holds it until the headers are ACKed."""
    srv, base = server
    pset, graph = canonical.policies, canonical.graph
    parts = ["ms_locality", "m2", "m3"]
    body = json.dumps({"policy": "placement_restriction",
                       "input": {"microservice": "m2", "domain": "ed3"}}).encode()
    requests = [("GET", "/v1/data/" + "/".join(parts), None, data_response(pset, graph, parts)),
                ("POST", "/v1/evaluate", body, evaluate_response(pset, graph, body))]
    conn = keep_alive(srv)
    round_trips = []
    try:
        for i in range(20):
            method, path, data, (status, payload) = requests[i % 2]
            started = time.perf_counter()
            assert exchange(conn, method, path, data) == (status, canonical_json(payload))
            round_trips.append(time.perf_counter() - started)
    finally:
        conn.close()
    assert statistics.median(round_trips) < 0.010, round_trips


def test_wire_too_deeply_nested_body_keeps_the_connection(server):
    srv, base = server
    conn = keep_alive(srv)
    try:
        assert exchange(conn, "POST", "/v1/evaluate", b"[" * 5000) == \
            (400, canonical_json({"error": "body is not valid JSON"}))
        assert exchange(conn, "GET", "/v1/data/iot_locality/m2") == \
            (200, b'{"result":"StrictDomain"}')
    finally:
        conn.close()


@pytest.mark.parametrize("request_bytes, status, message", [
    (b"PUT /v1/evaluate HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n",
     501, "Unsupported method ('PUT')"),
    (b"this is not http HTTP/1.1\r\n\r\n",
     400, "Bad request syntax ('this is not http HTTP/1.1')"),
    # lines with no version or a bad one, which the stdlib parses as HTTP/0.9
    (b"garbage\r\n", 400, "Bad request syntax ('garbage')"),
    (b"GET / HTTP/x\r\n", 400, "Bad request version ('HTTP/x')"),
    (b"POST /v1/evaluate\r\n", 400, "Bad HTTP/0.9 request type ('POST')"),
    # a request line over the stdlib's 65,536 bytes, sent without its end
    (b"GET /" + b"a" * 65532, 414, http.HTTPStatus(414).phrase),
], ids=["unknown-method", "garbage-request-line", "one-word-request-line",
        "bad-version", "versionless-post", "over-long-request-line"])
def test_wire_http_layer_errors_are_json_and_close(server, request_bytes, status, message):
    srv, base = server
    with socket.create_connection(srv.server_address, timeout=5) as sock:
        sock.sendall(request_bytes)
        head, _, body = read_until_closed(sock).partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 %d " % status)
    assert b"\r\nContent-Type: application/json; charset=utf-8\r\n" in head
    assert b"\r\nContent-Length: %d\r\n" % len(body) in head
    assert b"\r\nConnection: close" in head
    assert body == canonical_json({"error": message})


def test_wire_head_is_refused_without_a_body(server):
    srv, base = server
    with socket.create_connection(srv.server_address, timeout=5) as sock:
        sock.sendall(b"HEAD /v1/data/iot_locality/m2 HTTP/1.1\r\nHost: t\r\n\r\n")
        head, _, body = read_until_closed(sock).partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 501 ")
    assert b"\r\nConnection: close" in head
    assert body == b""


def test_wire_expect_100_continue_is_answered_before_the_body(server):
    """A client that sends `Expect: 100-continue` holds its body back until the
    interim response arrives, so that response must leave at once, not wait in
    a buffer for the final one."""
    srv, base = server
    body = json.dumps({"policy": "placement_restriction",
                       "input": {"microservice": "m2", "domain": "ed3"}}).encode()
    with socket.create_connection(srv.server_address, timeout=2) as sock:
        sock.sendall(b"POST /v1/evaluate HTTP/1.1\r\nHost: t\r\nExpect: 100-continue\r\n"
                     b"Connection: close\r\nContent-Length: %d\r\n\r\n" % len(body))
        interim = b""
        while not interim.endswith(b"\r\n\r\n"):
            chunk = sock.recv(4096)  # a 100 held back times this out
            assert chunk, interim
            interim += chunk
        assert interim.startswith(b"HTTP/1.1 100 ")
        sock.sendall(body)
        head, _, answer = read_until_closed(sock).partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200 ")
    assert answer == canonical_json(evaluate_response(srv.pset, srv.graph, body)[1])


def test_serve_takes_every_port_from_0_to_65535(setup, monkeypatch):
    """The bind's form and port range are checked before any socket opens."""
    graph, pset = setup
    bound = []

    class Unstarted:
        def serve_forever(self):
            pass

        def server_close(self):
            pass

    monkeypatch.setattr(policyserver, "make_server",
                        lambda pset, graph, host, port: bound.append((host, port)) or Unstarted())
    for port in (0, 65535):
        serve(pset, graph, f"127.0.0.1:{port}")
    assert bound == [("127.0.0.1", 0), ("127.0.0.1", 65535)]
    with pytest.raises(ValueError) as info:
        serve(pset, graph, "127.0.0.1:65536")
    assert str(info.value) == "bind must look like host:port with a port of 0-65535, got '127.0.0.1:65536'"


def test_serve_names_why_a_bind_failed(setup):
    """A failed bind reads as the OS error's bare strerror."""
    graph, pset = setup
    with socket.socket() as held:
        held.bind(("127.0.0.1", 0))
        held.listen()
        bind = f"127.0.0.1:{held.getsockname()[1]}"
        with pytest.raises(ValueError) as info:
            serve(pset, graph, bind)
    assert str(info.value) == f"cannot bind {bind}: Address already in use"
