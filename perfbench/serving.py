"""The ``serve_hot`` workload: open-loop traffic against a served engine.

The server is a ``repro-eval serve --topology threads --workers 2
--no-cache`` subprocess.  One connection carries the load, driven by
one thread that writes each request at its scheduled time and reads the
in-order responses in between, so every latency is measured from the
request's due time and a sender stall shows up as lag, not as a faster
request.
"""

from __future__ import annotations

import json
import math
import random
import re
import selectors
import signal
import socket
import statistics
import subprocess
import sys
import time
import uuid

from repro.api import (
    AnalyzeRequest,
    ExecuteRequest,
    StatsRequest,
    TraceRequest,
    response_from_json,
    wire_json,
)
from repro.server.client import ServerClient
from repro.server.loadgen import ZipfSampler, build_mix

from . import arith
from .checks import analyze_outcome, execute_outcome, reference_trace

#: The program mix is one fixed ``build_mix`` draw (seed 0, 32 fuzz
#: programs): the zipf head's own service time sets the median, so a
#: mix drawn per seed would move it.  The seed draws the request stream.
MIX_SEED = 0
MIX_PROGRAMS = 32
ZIPF_S = 1.1
ANALYZE_SHARE = 0.5

#: Offered rates of the ladder, ascending; the first is the nominal rate.
#: On a 2-core host one connection saturates at 850-1600 rps, depending
#: on the host's load: the top rung always fails on its delivered rate
#: (the connection's pipelining bound turns the overload into
#: backpressure, not shed requests) and the others clear the limit.  A
#: rung inside the saturation range would pass in some runs only.
LADDER_RPS = (200, 400, 3200)
#: p99 latency limit of a window, from each request's due time: loose
#: enough that a busy stretch of a shared 2-core host does not fail the
#: 400 rps rung, tight enough that the saturated top rung fails on it
#: as well as on its delivered rate.
LIMIT_MS = 250.0
#: Requests per measurement window: enough for a p99 with ten samples
#: beyond it.
WINDOW_REQUESTS = arith.min_samples(0.99)
#: Windows per rung.  Stalls of tens of milliseconds (host load, the
#: server's garbage collections) land in some windows and not others;
#: a rung passes when most of its windows do.  The nominal windows are
#: spread over the run, interleaved with the higher rungs.
WINDOWS = 3
#: The reported tail of the nominal rate.  Its p99 moves by a factor of
#: two to six between windows of one run on a 2-core host, with the
#: stalls above; p90 keeps 300 samples beyond it and stays steady.
TAIL_Q = 0.90
#: A traced run fetches the force-sampled traces every TRACE_WINDOW
#: requests (the store keeps the newest 512 traces).
TRACE_WINDOW = 200
#: Past this multiple of ``--seconds`` the ladder stops climbing.
DEADLINE_FACTOR = 3.0
#: Give up on a response after this long.
TIMEOUT_S = 30.0

SERVE_ARGS = (
    "-m", "repro.evaluation", "serve", "--port", "0",
    "--topology", "threads", "--workers", "2", "--no-cache",
)

_BANNER = re.compile(r"listening on ([0-9.]+):(\d+)")


class Server:
    """One server subprocess, from spawn to released port."""

    def __init__(self, env: dict):
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, *SERVE_ARGS], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        try:
            self.host, self.port = self._await_banner(started + 60.0)
            with ServerClient(self.host, self.port, timeout=TIMEOUT_S) as client:
                client.call(StatsRequest())
        except BaseException:
            self.stop()
            raise
        #: spawn to first answered request
        self.ready_s = time.perf_counter() - started

    def _await_banner(self, deadline: float) -> tuple:
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            while time.perf_counter() < deadline:
                if not selector.select(timeout=max(0.0, deadline - time.perf_counter())):
                    break
                line = self.proc.stdout.readline()
                if not line:
                    break
                match = _BANNER.search(line)
                if match:
                    return match.group(1), int(match.group(2))
        raise RuntimeError("server did not report a listening port")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()

    def stats(self) -> dict:
        with ServerClient(self.host, self.port, timeout=TIMEOUT_S) as client:
            return client.stats().stats


def spawn_setup(env: dict, repeats: int = 5) -> tuple:
    """Spawn the server *repeats* times; returns the last (kept) server
    and the median spawn-to-ready time."""
    walls = []
    server = None
    for attempt in range(repeats):
        server = Server(env)
        walls.append(server.ready_s)
        if attempt < repeats - 1:
            server.stop()
    return server, statistics.median(walls)


def mix_items() -> list:
    items = build_mix(seed=MIX_SEED, programs=MIX_PROGRAMS,
                      include_workloads=False)
    traces = [reference_trace(m.source, m.loop, m.params, m.arrays)
              for m in items]
    return list(zip(items, traces))


def make_request(item, verb: str, trace_id=None):
    trace = {"trace_id": trace_id, "sampled": True} if trace_id else None
    if verb == "analyze":
        return AnalyzeRequest(source=item.source, loop=item.loop,
                              options=item.options, trace=trace)
    return ExecuteRequest(source=item.source, loop=item.loop,
                          params=item.params, arrays=item.arrays,
                          options=item.options, trace=trace)


def draw(rng: random.Random, sampler: ZipfSampler, count: int) -> list:
    """*count* ``(mix index, verb)`` pairs, zipf-skewed, 1:1 verbs."""
    return [
        (sampler.sample(rng),
         "analyze" if rng.random() < ANALYZE_SHARE else "execute")
        for _ in range(count)
    ]


def judge(mix, index: int, verb: str, response) -> str:
    item, trace = mix[index]
    if verb == "analyze":
        return analyze_outcome(response, trace)
    return execute_outcome(response, trace)


def open_loop(server: Server, mix, stream, rate: float, traced: bool = False):
    """Send *stream* at *rate* on one connection; returns per-request
    rows ``[due, sent, done, outcome, index, verb, response]`` and, when
    *traced*, the trace documents of the force-sampled requests.

    One thread both sends and receives: it writes every line that is
    due, then waits for responses until the next due time, so no thread
    hand-over sits between a due time and its send.  Responses are
    stamped as they arrive and parsed once the window is over."""
    lines = []
    trace_ids = set()
    for position, (index, verb) in enumerate(stream):
        trace_id = uuid.uuid4().hex if traced else None
        trace_ids.add(trace_id)
        lines.append(wire_json(make_request(mix[index][0], verb, trace_id).to_json()))
        if traced and (position + 1) % TRACE_WINDOW == 0:
            lines.append(None)  # a trace-store fetch rides the stream
    fetch = wire_json(TraceRequest(limit=2 * TRACE_WINDOW).to_json()).encode() + b"\n"
    encoded = [fetch if line is None else line.encode() + b"\n" for line in lines]
    count = len(stream)
    sent = [0.0] * count
    arrivals = []  # (monotonic time, raw response line), in order
    sock = socket.create_connection((server.host, server.port), timeout=TIMEOUT_S)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.setblocking(False)
    start = time.monotonic() + 0.05
    due = [start + i / rate for i in range(count)]
    pending = bytearray()
    inbox = bytearray()
    next_line = position = 0
    quiet_since = time.monotonic()
    with selectors.DefaultSelector() as selector, sock:
        selector.register(sock, selectors.EVENT_READ)
        while len(arrivals) < len(lines):
            now = time.monotonic()
            while next_line < len(lines) and (
                lines[next_line] is None or due[position] <= now
            ):
                if lines[next_line] is not None:
                    sent[position] = now
                    position += 1
                pending += encoded[next_line]
                next_line += 1
            if pending:
                try:
                    del pending[: sock.send(pending)]
                except BlockingIOError:
                    pass  # the server is pushing back; retry when writable
            wait = TIMEOUT_S  # while pushed back, until the socket is writable
            if position < count and not pending:
                wait = max(0.0, due[position] - time.monotonic())
            selector.modify(sock, selectors.EVENT_READ
                            | (selectors.EVENT_WRITE if pending else 0))
            if not selector.select(wait):
                if time.monotonic() - quiet_since > TIMEOUT_S:
                    break
                continue
            try:
                chunk = sock.recv(1 << 16)
            except BlockingIOError:
                continue  # only writable
            except OSError:
                break
            if not chunk:
                break  # the server closed the connection
            stamp = time.monotonic()
            quiet_since = stamp
            inbox += chunk
            if b"\n" in chunk:
                *complete, rest = inbox.split(b"\n")
                inbox = bytearray(rest)
                arrivals += [(stamp, line) for line in complete]
        if traced and len(arrivals) == len(lines):
            # every response is in, so every trace is in the store
            sock.settimeout(TIMEOUT_S)
            sock.sendall(fetch)
            while b"\n" not in inbox:
                chunk = sock.recv(1 << 16)
                if not chunk:
                    break
                inbox += chunk
            if b"\n" in inbox:
                lines.append(None)
                arrivals.append((time.monotonic(), bytes(inbox).partition(b"\n")[0]))
    rows = []
    traces: dict = {}
    for line, (stamp, raw) in zip(lines, arrivals):
        response = response_from_json(json.loads(raw))
        if line is None:
            traces.update((d["trace_id"], d) for d in response.traces)
            continue
        rows.append([due[len(rows)], sent[len(rows)], stamp, None,
                     *stream[len(rows)], response])
    while len(rows) < count:  # unanswered: timed out or connection lost
        rows.append([due[len(rows)], sent[len(rows)], math.inf, "timeout",
                     *stream[len(rows)], None])
    for row in rows:
        if row[3] is None:
            row[3] = judge(mix, row[4], row[5], row[6])
    return rows, [doc for tid, doc in traces.items() if tid in trace_ids]


def latencies_ms(rows) -> list:
    """Due-time latencies, failures at infinity."""
    return arith.limit_latencies(
        [(row[2] - row[0]) * 1e3 for row in rows], [row[3] for row in rows]
    )


def finite_ms(value: float) -> float:
    return value if math.isfinite(value) else TIMEOUT_S * 1e3


def delivered_rps(rows) -> float:
    done = [row[2] for row in rows if row[3] == "ok"]
    if len(done) < 2:
        return 0.0
    return len(done) / (max(done) - rows[0][0])


def warm(server: Server, mix) -> list:
    """Set-up: every program once as analyze and once as execute."""
    outcomes = []
    with ServerClient(server.host, server.port, timeout=120.0) as client:
        for index, (item, _trace) in enumerate(mix):
            for verb in ("analyze", "execute"):
                response = client.call(make_request(item, verb))
                outcomes.append((index, verb, response,
                                 judge(mix, index, verb, response)))
    return outcomes


def serve_hot(seed: int, seconds: float, traced: bool, env: dict) -> dict:
    mix = mix_items()
    server, setup_s = spawn_setup(env)
    try:
        return _drive(server, mix, seed, traced, setup_s,
                      time.perf_counter() + DEADLINE_FACTOR * seconds)
    finally:
        server.stop()


def run_rung(server: Server, mix, stream_of, rate: float) -> tuple:
    """Measure one ladder rung in windows until the majority verdict is
    settled; returns ``(windows, passed)`` where each window is ``(rows,
    passed)``."""
    windows = []
    verdict = None
    while verdict is None:
        rows, _ = open_loop(server, mix, stream_of(), rate)
        windows.append((rows, arith.window_passes(
            latencies_ms(rows), rate, delivered_rps(rows), LIMIT_MS
        )))
        verdict = arith.rung_verdict([ok for _, ok in windows], WINDOWS)
    return windows, verdict


def _window_doc(rows, passed: bool) -> dict:
    latencies = latencies_ms(rows)
    return {
        "passed": passed,
        "p50_ms": finite_ms(arith.percentile(latencies, 0.50)["value"]),
        "p90_ms": finite_ms(arith.percentile(latencies, TAIL_Q)["value"]),
        "p99_ms": finite_ms(arith.percentile(latencies, 0.99)["value"]),
        "delivered_rps": delivered_rps(rows),
    }


def _drive(server: Server, mix, seed: int, traced: bool, setup_s: float,
           deadline: float) -> dict:
    warm_rows = warm(server, mix)
    outcomes = [row[3] for row in warm_rows]
    ran_parallel: dict = {}
    for index, verb, response, outcome in warm_rows:
        if verb == "execute" and outcome == "ok":
            ran_parallel[index] = response.parallel
    rng = random.Random(seed)
    sampler = ZipfSampler(len(mix), ZIPF_S)

    def stream_of():
        return draw(rng, sampler, WINDOW_REQUESTS)

    nominal = LADDER_RPS[0]
    result = {"setup_s": setup_s, "per_layer": {}}
    provenance = {
        "nominal_rps": nominal, "ladder_rps": list(LADDER_RPS),
        "limit_ms": LIMIT_MS, "windows": WINDOWS,
        "window_requests": WINDOW_REQUESTS,
        "mix_programs": len(mix), "mix_seed": MIX_SEED,
    }
    if traced:
        stream = stream_of()
        plain, _ = open_loop(server, mix, stream, nominal)
        before = server.stats()
        tracked, docs = open_loop(server, mix, stream, nominal, traced=True)
        after = server.stats()
        result["per_layer"] = server_layers(before, after, docs, plain, tracked)
        outcomes += [row[3] for row in plain] + [row[3] for row in tracked]
        nominal_windows = [plain]
        per_s = delivered_rps(plain)
        provenance["traces"] = len(docs)
    else:
        # nominal windows interleave with the higher rungs, so that one
        # slow stretch of the host cannot cover all of them
        nominal_rung = []
        rungs = []
        for position in range(WINDOWS):
            rows, _ = open_loop(server, mix, stream_of(), nominal)
            nominal_rung.append((rows, arith.window_passes(
                latencies_ms(rows), nominal, delivered_rps(rows), LIMIT_MS)))
            climbing = (not rungs or rungs[-1][1]) and time.perf_counter() < deadline
            if position + 1 < len(LADDER_RPS) and climbing:
                rate = LADDER_RPS[position + 1]
                windows, passed = run_rung(server, mix, stream_of, rate)
                rungs.append((rate, passed, windows))
        rungs.insert(0, (nominal, arith.rung_verdict(
            [ok for _, ok in nominal_rung], WINDOWS), nominal_rung))
        for _rate, _passed, windows in rungs:
            outcomes += [row[3] for rows, _ in windows for row in rows]
        best, climbed = arith.ladder_result([(r, p) for r, p, _ in rungs])
        nominal_windows = [rows for rows, _ in nominal_rung]
        per_s = (
            statistics.median(delivered_rps(rows) for rows, _ in rungs[best][2])
            if best is not None else 0.0
        )
        provenance["rungs"] = [
            {"rps": r, "passed": p,
             "windows": [_window_doc(rows, ok) for rows, ok in windows]}
            for r, p, windows in rungs
        ]
        provenance["rungs_climbed"] = climbed
    pooled = [lat for rows in nominal_windows for lat in latencies_ms(rows)]
    p50 = arith.percentile(pooled, 0.50)
    tail = arith.percentile(pooled, TAIL_Q)
    result["metrics"] = {
        "p50_ms": finite_ms(p50["value"]),
        "tail_ms": finite_ms(tail["value"]),
        "per_s": per_s,
        "parallel_frac": (
            sum(1 for v in ran_parallel.values() if v) / len(ran_parallel)
        ),
    }
    p99 = arith.percentile(pooled, 0.99)
    provenance["p99_ms"] = finite_ms(p99["value"])
    result["samples"] = {
        "p50": p50["n"], "tail_q": TAIL_Q, "tail_n": tail["n"],
        "tail_beyond": tail["beyond"], "p99_beyond": p99["beyond"],
    }
    provenance["loadgen_lag_p99_ms"] = arith.percentile(
        [(row[1] - row[0]) * 1e3 for rows in nominal_windows for row in rows],
        0.99,
    )["value"]
    result["outcomes"] = outcomes
    result["provenance"] = provenance
    return result


def server_layers(before: dict, after: dict, docs: list, plain, tracked) -> dict:
    """Server layer metrics of the traced pass (stats deltas plus the
    force-sampled traces); *plain* is the untraced pass of the same
    stream."""
    queue_waits, admissions = [], []
    compile_s = execute_s = overhead_s = 0.0
    for doc in docs:
        spans = doc["spans"]
        root = next(s for s in spans if s["span_id"] == doc["root_span_id"])
        for span in spans:
            if span["name"] == "queue_wait":
                queue_waits.append(span["duration_s"] * 1e3)
                admissions.append((span["start_s"] - root["start_s"]) * 1e3)
            elif span["name"] == "compile":
                compile_s += span["duration_s"]
            elif span["name"] == "execute":
                execute_s += span["duration_s"]
        # the tier lists each span after its parent
        index = {s["span_id"]: i for i, s in enumerate(spans)}
        overhead_s += arith.self_times([
            (s["name"], s["start_s"], s["end_s"], index.get(s["parent_span_id"]))
            for s in spans
        ])["request"][0]
    n = max(1, len(docs))

    def delta(key: str) -> float:
        return after.get(key, 0) - before.get(key, 0)

    served = sum(after["requests"][v] - before["requests"][v]
                 for v in ("analyze", "execute"))
    hits = sum(c["hits"] for c in after["analysis_cache"]) - sum(
        c["hits"] for c in before["analysis_cache"])
    misses = sum(c["misses"] for c in after["analysis_cache"]) - sum(
        c["misses"] for c in before["analysis_cache"])
    plain_ms = [(row[2] - row[0]) * 1e3 for row in plain if row[3] == "ok"]
    tracked_ms = [(row[2] - row[0]) * 1e3 for row in tracked if row[3] == "ok"]
    return {
        "server.queue_wait_p50_ms": (
            arith.percentile(queue_waits, 0.50)["value"] if queue_waits else 0.0),
        "server.queue_wait_p99_ms": (
            arith.percentile(queue_waits, 0.99)["value"] if queue_waits else 0.0),
        "server.admission_ms": statistics.mean(admissions) if admissions else 0.0,
        "server.compile_ms": compile_s * 1e3 / n,
        "server.execute_ms": execute_s * 1e3 / n,
        "server.overhead_ms": overhead_s * 1e3 / n,
        "server.warm_hit_frac": delta("warm_hits") / served if served else 0.0,
        "api.analysis_cache_hit_frac": (
            hits / (hits + misses) if hits + misses else 0.0),
        "server.coalesced": delta("coalesced"),
        "server.shed_frac": delta("shed") / served if served else 0.0,
        "serve_p99_ms": finite_ms(
            arith.percentile(latencies_ms(plain), 0.99)["value"]),
        "loadgen.lag_p99_ms": arith.percentile(
            [(row[1] - row[0]) * 1e3 for row in plain], 0.99)["value"],
        "trace.overhead_frac": (
            statistics.median(tracked_ms) / statistics.median(plain_ms) - 1.0
            if plain_ms and tracked_ms else 0.0),
    }
