"""HTTP facade exposing policy data and decisions to sidecar-style clients.

Two endpoints, both JSON:

  GET  /v1/data/{policy_type}/{key...}   raw rule data, defaults for unlisted keys
  POST /v1/evaluate                      {"policy": ..., "input": {...}} -> decision

Responses are canonical JSON (sorted keys, no whitespace), so the in-process
functions and the wire endpoints can be compared byte for byte.  The errors
the HTTP layer answers itself (an unknown method, a malformed or over-long
request line) are JSON too, with an HTTP/1.1 status line, and close the
connection.  A body over MAX_BODY_BYTES (413) or with a ``Content-Length``
that is not a decimal number (400) is refused unread, and a silent
connection dropped.

The socket is ``TCP_NODELAY``, so a keep-alive client waits on no timer: a
response leaves as two writes, headers then body, and under Nagle's algorithm
(RFC 896) the body would sit in the kernel until the client's delayed ACK of
the headers, up to 40 ms later (RFC 1122 section 4.2.3.2).
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import unquote, urlparse

from .errors import EdgeplaneError, UnknownPolicyType
from .policy import PolicySet, evaluate_query, get_data
from .topology import InfrastructureGraph

#: Largest ``Content-Length`` a POST may declare; evaluate bodies are tiny.
MAX_BODY_BYTES = 64 * 1024

#: Seconds a connection may stay silent, mid-request or between requests.
CONNECTION_TIMEOUT_S = 10


def canonical_json(payload) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def data_response(pset: PolicySet, graph: InfrastructureGraph, parts: list[str]):
    """Resolve a /v1/data path (already split) to (status, payload)."""
    if not parts:
        return 404, {"error": "unknown_key"}
    key = [unquote(p) for p in parts[1:]]
    try:
        return 200, {"result": get_data(pset, parts[0], key[0] if len(key) == 1 else tuple(key))}
    except UnknownPolicyType:
        return 404, {"error": "unknown_key"}


def evaluate_response(pset: PolicySet, graph: InfrastructureGraph, body: bytes):
    """Resolve a /v1/evaluate request body to (status, payload)."""
    try:
        doc = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError):  # too deeply nested
        return 400, {"error": "body is not valid JSON"}
    if not isinstance(doc, dict) or "policy" not in doc or "input" not in doc:
        return 400, {"error": "body must carry 'policy' and 'input'"}
    if not isinstance(doc["input"], dict):
        return 400, {"error": "'input' must be a mapping"}
    try:
        decision = evaluate_query(pset, graph, doc["policy"], doc["input"])
    except EdgeplaneError as exc:
        return 400, {"error": str(exc)}
    return 200, {"result": {"allowed": decision.allowed, "reason": decision.reason}}


class PolicyAgentHandler(BaseHTTPRequestHandler):
    server_version = "edgeplane-policy/0.1"
    protocol_version = "HTTP/1.1"
    timeout = CONNECTION_TIMEOUT_S  # a timed-out read closes the connection
    disable_nagle_algorithm = True  # TCP_NODELAY: the body never waits on the peer's ACK

    def log_message(self, fmt, *args):  # request logging is the CLI's concern
        pass

    def send_error(self, code, message=None, explain=None):
        """The stdlib's own refusals (unknown method, bad request line, 414,
        431), as JSON like every other answer; the connection then closes.
        A line with no version or a bad one leaves request_version at
        HTTP/0.9, which would send the body alone; the refusal keeps its
        status line and headers."""
        if message is None:
            message = self.responses[code][0]
        self.request_version = self.protocol_version
        self._send(code, {"error": message}, close=True)

    def _send(self, status: int, payload, close: bool = False):
        data = canonical_json(payload)
        self.send_response(status)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(data)))
        if close:  # also ends this connection once the response is out
            self.send_header("Connection", "close")
        self.end_headers()
        if self.command != "HEAD":  # only send_error answers a HEAD, and without a body
            self.wfile.write(data)

    def do_GET(self):
        path = urlparse(self.path).path
        parts = [p for p in path.split("/") if p]
        if len(parts) >= 2 and parts[0] == "v1" and parts[1] == "data":
            status, payload = data_response(self.server.pset, self.server.graph, parts[2:])
        else:
            status, payload = 404, {"error": "unknown_path"}
        self._send(status, payload)

    def do_POST(self):
        """Read the body, whatever the path, so that the next request on the
        connection starts where this one ends; then answer."""
        text = self.headers.get("Content-Length", "0").strip(" \t")
        if not (text.isascii() and text.isdigit()):  # where the body ends is unknown: it stays unread
            self._send(400, {"error": "Content-Length must be a decimal number"}, close=True)
            return
        digits = text.lstrip("0") or "0"  # int() would refuse a value of over 4,300 digits
        length = int(digits) if len(digits) <= len(str(MAX_BODY_BYTES)) else MAX_BODY_BYTES + 1
        if length > MAX_BODY_BYTES:  # the body stays unread, so the connection cannot go on
            self._send(413, {"error": f"body over {MAX_BODY_BYTES} bytes"}, close=True)
            return
        body = self.rfile.read(length)
        if urlparse(self.path).path == "/v1/evaluate":
            self._send(*evaluate_response(self.server.pset, self.server.graph, body))
        else:
            self._send(404, {"error": "unknown_path"})


def make_server(
    pset: PolicySet,
    graph: InfrastructureGraph,
    host: str = "127.0.0.1",
    port: int = 0,
) -> ThreadingHTTPServer:
    """Build (but do not start) the policy server; port 0 picks a free port."""
    server = ThreadingHTTPServer((host, port), PolicyAgentHandler)
    server.pset = pset
    server.graph = graph
    return server


def serve(pset: PolicySet, graph: InfrastructureGraph, bind: str = "127.0.0.1:8181",
          on_bound=lambda: None):
    """Run the policy server until interrupted, calling ``on_bound`` once it
    holds its socket.  A malformed ``bind``, a port outside 0-65535 or a
    failed bind raises ValueError."""
    host, _, port_text = bind.rpartition(":")
    if not host or not port_text.isdigit() or int(port_text) > 65535:
        raise ValueError(f"bind must look like host:port with a port of 0-65535, got {bind!r}")
    try:
        server = make_server(pset, graph, host, int(port_text))
    except OSError as exc:
        raise ValueError(f"cannot bind {bind}: {exc.strerror or exc}") from exc
    try:
        on_bound()
        server.serve_forever()
    finally:
        server.server_close()
