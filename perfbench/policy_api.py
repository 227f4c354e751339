"""policy-api: ``edgeplane serve-policy`` answering a sidecar.

The server runs in a child process on the bundled canonical scenario.  One
client sends a seeded mix of ``GET /v1/data/*`` and ``POST /v1/evaluate``
requests in a closed loop over one persistent keep-alive connection, as
sidecars do; the end-to-end metrics come from this phase.  A traced run also
spends half its time on a second phase with a fresh connection per request,
reported as the per-layer ``policyserver.fresh_ms_*``, so that a change to
connection handling shows whether it moves the other path: its run-to-run
spread on a shared 2-CPU host (p90 up to twofold) is too wide for a bound.
A fresh connection asks the server to close after its response and resets
its own end, so that no TIME_WAIT socket is left: thousands a second would
otherwise run the ephemeral ports low over a series of runs.  Every
response must equal, byte for byte, what the in-process
``data_response``/``evaluate_response`` return for the same request.  One
unit is a pass over the mix; ``run_s`` is the time its requests spend in
flight.
"""

from __future__ import annotations

import http.client
import json
import random
import signal
import socket
import statistics
import struct
import subprocess
import time

from edgeplane import policyserver, scenario

from common import (
    SCENARIOS,
    SETUP_REPEATS,
    Context,
    Result,
    child_env,
    cli,
    cpu_s,
    peak_rss_mb,
    wait_child,
    windowed_p90,
)
from hostspeed import Sampler
from spans import Tracer

SCENARIO = SCENARIOS / "uav_canonical.yaml"
MIX_SIZE = 40
MIN_OPS = 100
#: The request whose answer marks the server as up.
PROBE = ("GET", "/v1/data/iot_locality/m2", None)


def request_mix(rng: random.Random, size: int) -> list[tuple[str, str, bytes | None]]:
    """Seeded (method, path, body) requests; about a fifth are answered 400 or 404."""
    ms = ["m1", "m2", "m3", "m4", "m5", "m9"]  # m9 is unlisted: defaulted or refused
    domains = ["ed3", "ed4", "cloud"]
    mix = []
    for _ in range(size):
        roll = rng.random()
        if roll < 0.15:
            path = f"/v1/data/placement_restriction/{rng.choice(ms)}"
        elif roll < 0.27:
            path = f"/v1/data/iot_locality/{rng.choice(ms)}"
        elif roll < 0.42:
            path = f"/v1/data/ms_locality/{rng.choice(ms)}/{rng.choice(ms)}"
        elif roll < 0.47:
            path = rng.choice(["/v1/data/ms_locality/m2", "/v1/data/bogus/m2", "/v2/data"])
        else:
            body = rng.choice([
                {"policy": "placement_restriction",
                 "input": {"microservice": rng.choice(ms), "domain": rng.choice(domains)}},
                {"policy": "iot_locality",
                 "input": {"microservice": rng.choice(ms), "device_domain": rng.choice(domains),
                           "target_domain": rng.choice(domains)}},
                {"policy": "ms_locality",
                 "input": {"consumer": rng.choice(ms), "consumed": rng.choice(ms),
                           "consumer_domain": rng.choice(domains),
                           "target_domain": rng.choice(domains)}},
            ])
            data = json.dumps(body).encode()
            if rng.random() < 0.1:
                data = rng.choice([data[:-3], b'{"policy": "ms_locality"}', b"[]"])
            mix.append(("POST", "/v1/evaluate", data))
            continue
        mix.append(("GET", path, None))
    return mix


def in_process(loaded, method: str, path: str, body: bytes | None):
    """(status, bytes) the server should send, from the in-process functions."""
    parts = [p for p in path.split("?")[0].split("/") if p]
    if method == "POST":
        status, payload = policyserver.evaluate_response(loaded.policies, loaded.graph, body)
    elif parts[:2] == ["v1", "data"]:
        status, payload = policyserver.data_response(loaded.policies, loaded.graph, parts[2:])
    else:
        status, payload = 404, {"error": "unknown_path"}
    return status, policyserver.canonical_json(payload)


def exchange(conn: http.client.HTTPConnection, method: str, path: str, body: bytes | None,
             close: bool = False):
    headers = {"Content-Type": "application/json"} if body is not None else {}
    if close:
        headers["Connection"] = "close"
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    return response.status, response.read()


def fresh_connection(port: int) -> http.client.HTTPConnection:
    """A connected client socket that resets rather than lingers on close."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
    conn.connect()
    conn.sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    return conn


def default_sigint():
    """Let SIGINT stop the server even when this process was started with it
    ignored, as background jobs of a non-interactive shell are."""
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """One ``serve-policy`` child; ``start`` returns once it answers correctly."""

    def __init__(self, expected_probe):
        self.expected_probe = expected_probe
        self.port = free_port()
        self.proc = None

    def start(self, limit: float = 30.0, sampler: Sampler | None = None):
        """Launch the server and return once it answers the probe.

        With a ``sampler``, host speed is sampled between probes.
        """
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            cli("serve-policy", "--quiet", "--scenario", str(SCENARIO),
                "--bind", f"127.0.0.1:{self.port}"),
            env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            preexec_fn=default_sigint)
        while time.perf_counter() - started < limit:
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
            try:
                if exchange(conn, *PROBE) == self.expected_probe:
                    return
            except OSError:
                if sampler is not None:
                    sampler.sample()
                time.sleep(0.002)
            finally:
                conn.close()
            if self.proc.poll() is not None:
                break
        self.stop()
        raise RuntimeError("serve-policy did not answer the probe")

    def stop(self):
        """SIGINT (the server's clean shutdown), then reap; returns its rusage or None."""
        usage = None
        if self.proc is not None and self.proc.returncode is None:
            self.proc.send_signal(signal.SIGINT)
            _, usage = wait_child(self.proc, timeout=10)
        self.proc = None
        return usage


def measure(port: int, mix, expected, persistent: bool, seconds: float, min_ops: int,
            result: Result, tracer: Tracer | None = None):
    """Closed loop over the mix until ``seconds`` and ``min_ops`` are reached.

    Returns (latencies, in-flight time per pass keyed by traced, status counts
    of the first pass); with a tracer, odd passes run traced.
    """
    latencies, unit_times, responses = [], {False: [], True: []}, {}
    conn = None
    started = time.perf_counter()
    unit = 0
    try:
        while unit < (2 if tracer else 1) or len(latencies) < min_ops \
                or time.perf_counter() - started < seconds:
            traced = tracer is not None and unit % 2 == 1
            if traced:
                tracer.install()
            in_flight = 0.0
            for request, want in zip(mix, expected):
                result.attempted += 1
                op_started = time.perf_counter()
                try:
                    if conn is None:
                        conn = (http.client.HTTPConnection("127.0.0.1", port, timeout=10)
                                if persistent else fresh_connection(port))
                    got = exchange(conn, *request, close=not persistent)
                except (OSError, http.client.HTTPException) as exc:
                    result.fail(f"{request[0]} {request[1]}: {type(exc).__name__}: {exc}")
                    if conn is not None:
                        conn.close()
                    conn = None
                    continue
                finally:
                    if not persistent and conn is not None:
                        conn.close()
                        conn = None
                latencies.append(time.perf_counter() - op_started)
                in_flight += latencies[-1]
                if got != want:
                    result.fail(f"{request[0]} {request[1]}: got {got!r}, want {want!r}")
                elif unit == 0:
                    responses[got[0]] = responses.get(got[0], 0) + 1
                    if persistent:
                        result.digest.add(b"%d " % got[0] + got[1])
            if traced:
                tracer.uninstall()
            unit_times[traced].append(in_flight)
            unit += 1
    finally:
        if conn is not None:
            conn.close()
    return latencies, unit_times, responses


def run(ctx: Context) -> Result:
    result = Result()
    tracer = Tracer()
    if ctx.trace:
        tracer.install()
    loaded = scenario.load_scenario(SCENARIO)
    tracer.uninstall()
    mix = request_mix(random.Random(ctx.seed), 12 if ctx.tiny else MIX_SIZE)
    expected = [in_process(loaded, *request) for request in mix]
    decide = []
    for _ in range(1 if ctx.tiny else 20):
        for request in mix:
            started = time.perf_counter()
            in_process(loaded, *request)
            decide.append(time.perf_counter() - started)

    probe = in_process(loaded, *PROBE)
    setups = []
    for _ in range(SETUP_REPEATS):
        # The server's CPU time from launch to its clean exit after the probe,
        # scaled like the other workloads' set-up (common.time_validate).
        server, sampler = Server(probe), Sampler()
        sampler.sample()
        try:
            server.start(sampler=sampler)
        finally:
            usage = server.stop()
        setups.append(cpu_s(usage) * sampler.factor())
    result.end_to_end["setup_s"] = statistics.median(setups)

    min_ops = 0 if ctx.tiny else MIN_OPS
    seconds = ctx.seconds / 2 if ctx.trace else ctx.seconds
    server = Server(probe)
    try:
        server.start()
        latencies, unit_times, responses = measure(
            server.port, mix, expected, True, seconds, min_ops, result,
            tracer if ctx.trace else None)
        if ctx.trace:
            fresh, _, _ = measure(server.port, mix, expected, False, seconds, min_ops, result)
    finally:
        usage = server.stop()

    result.end_to_end["peak_rss_mb"] = peak_rss_mb(usage.ru_maxrss if usage else 0)
    result.end_to_end["op_ms_p50"] = 1000 * statistics.median(latencies)
    result.end_to_end["op_ms_p90"] = 1000 * windowed_p90(latencies)
    result.end_to_end["run_s"] = statistics.median(unit_times[False])
    result.extra.update(ops=len(latencies), mix=len(mix))
    result.extra["named"] = {
        "policy_ms_p50": (result.end_to_end["op_ms_p50"], "ms"),
        "policy_ms_p90": (result.end_to_end["op_ms_p90"], "ms"),
    }
    if ctx.trace:
        decide_us = 1e6 * statistics.median(decide)
        for name, seconds in tracer.self_times().items():
            result.per_layer[name + "_s"] = seconds
        result.per_layer["policy.decide_us"] = decide_us
        result.per_layer["policyserver.wire_overhead_us"] = (
            1e6 * statistics.median(latencies) - decide_us)
        result.per_layer["policyserver.fresh_ms_p50"] = 1000 * statistics.median(fresh)
        result.per_layer["policyserver.fresh_ms_p90"] = 1000 * windowed_p90(fresh)
        result.extra["named"].update(
            policy_fresh_ms_p50=(result.per_layer["policyserver.fresh_ms_p50"], "ms"),
            policy_fresh_ms_p90=(result.per_layer["policyserver.fresh_ms_p90"], "ms"))
        for status in (200, 400, 404):
            result.per_layer[f"policyserver.responses.{status}"] = responses.get(status, 0)
        result.per_layer["trace.overhead_pct"] = 100 * (
            statistics.median(unit_times[True]) / statistics.median(unit_times[False]) - 1)
        tracer.write(ctx.work / "spans.jsonl")
    return result
