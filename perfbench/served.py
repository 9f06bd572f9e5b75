"""The server layer, probed through the real ``repro serve`` over HTTP.

Every traced run spawns ``repro serve --dataset movies --dataset courses
--artifact-dir <tmp> --port 0`` (one worker per shard, default cache),
warms it with every shipped text, and sends it a seeded open-loop Poisson
schedule over at most CONNECTIONS concurrent connections (the server
closes each connection after one request).  Latency runs from the moment
a request was due, so a stall also charges the wait it imposes on the
requests queued behind it; how late the client itself sent is reported
as ``server.client_lag_ms``.

These are per-layer figures, not a bounded workload: on a 2-core host
shared with other tenants, the p50 of this four-process path moved by up
to 1.8x and its p99 by 3x between consecutive runs, beyond any bound a
regression check could use.
"""

from __future__ import annotations

import gc
import json
import os
import re
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time

from inputs import poisson_schedule, shipped_pool
from oracle import Oracle
from inproc import BenchError, build_databases
from tally import Tally, percentile, ratio

#: arrivals per second: an eighth of the closed-loop capacity measured
#: on a 2-core host with two connections (~850 req/s)
RATE = 100.0
#: length of the probe schedule
PROBE_SECONDS = 6.0
#: concurrent connections of the client (the host's core count)
CONNECTIONS = 2
#: a request slower than this (or failed) misses the SLO
SLO_SECONDS = 0.010
READY_TIMEOUT = 90.0
HTTP_TIMEOUT = 30.0


class Server:
    """One ``repro serve`` subprocess, from spawn until drained."""

    def __init__(self, root: str, scratch: str) -> None:
        self.artifact_dir = os.path.join(scratch, f"artifacts-{time.time_ns()}")
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--dataset", "movies", "--dataset", "courses",
             "--artifact-dir", self.artifact_dir, "--port", "0"],
            cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        self.lines: list[str] = []
        self._port = threading.Event()
        self.port = None
        self._reader = threading.Thread(target=self._read_stderr, daemon=True)
        self._reader.start()
        self.ready_s = self._wait_ready()

    def _read_stderr(self) -> None:
        for line in self.process.stderr:
            self.lines.append(line)
            match = re.search(r"listening on \('127\.0\.0\.1', (\d+)\)", line)
            if match and self.port is None:
                self.port = int(match.group(1))
                self._port.set()
        self._port.set()

    def _wait_ready(self) -> float:
        deadline = self.started + READY_TIMEOUT
        if not self._port.wait(READY_TIMEOUT) or self.port is None:
            self.stop()
            raise BenchError("repro serve did not start:\n" + "".join(self.lines))
        while time.perf_counter() < deadline:
            try:
                status, _ = http(self.port, "GET", "/readyz")
            except OSError:
                status = None
            if status == 200:
                return time.perf_counter() - self.started
            time.sleep(0.005)
        self.stop()
        raise BenchError("repro serve never became ready")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait for every process to end."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._reader.join(timeout=10)
        shutil.rmtree(self.artifact_dir, ignore_errors=True)


def http(port: int, method: str, path: str, body: bytes = b""):
    """One request on a fresh connection; ``(status, body bytes)``."""
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        "Connection: close\r\n\r\n"
    ).encode("latin-1")
    with socket.create_connection(("127.0.0.1", port), timeout=HTTP_TIMEOUT) as sock:
        sock.sendall(head + body)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    header, _, payload = b"".join(chunks).partition(b"\r\n\r\n")
    status = header.split(b" ", 2)[1:2]
    if not status or not status[0].isdigit():
        raise ConnectionError(f"malformed HTTP response: {header[:80]!r}")
    return int(status[0]), payload


def query(port: int, text) -> tuple[int, dict]:
    body = json.dumps({"query": text.sfsql, "database": text.database}).encode()
    status, payload = http(port, "POST", "/query", body)
    try:
        doc = json.loads(payload)
    except ValueError:
        doc = {}
    return status, doc


def peak_rss_mb(pids) -> float:
    """Summed VmHWM (resident high-water mark) of live processes."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def metric_total(port: int, name: str) -> float:
    """Sum of one counter's samples in the /metrics exposition."""
    status, payload = http(port, "GET", "/metrics")
    if status != 200:
        raise BenchError(f"/metrics answered {status}")
    total = 0.0
    for line in payload.decode("utf-8").splitlines():
        if line.startswith(name) and not line.startswith("#"):
            total += float(line.rsplit(" ", 1)[1])
    return total


def send_schedule(port: int, schedule) -> list:
    """Send every scheduled request on time (or as soon as a connection
    frees up); returns one record per request."""
    records = [None] * len(schedule)
    cursor = iter(range(len(schedule)))
    lock = threading.Lock()
    origin = time.perf_counter() + 0.05

    def worker() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            offset, text = schedule[index]
            due = origin + offset
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            try:
                status, doc = query(port, text)
            except OSError as error:
                status, doc = None, {"error": repr(error)}
            done = time.perf_counter()
            records[index] = (text, due, sent, done, status, doc)

    threads = [threading.Thread(target=worker) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


def score(records, oracle: Oracle, expected: dict) -> Tally:
    """Check every served answer (outside the timed window) and tally."""
    tally = Tally(SLO_SECONDS)
    for text, due, sent, done, status, doc in records:
        latency = done - due
        sql = doc.get("sql")
        if status != 200 or not doc.get("ok") or not sql:
            tally.request(latency, False, f"http-{status}")
            continue
        if expected.setdefault(text.sfsql, sql) != sql:
            tally.request(latency, False, "sql-changed-between-requests")
            continue
        got = oracle.rows(text.database, sql)
        tally.request(latency, got is not None, "oracle-cannot-run-top1")
        want = oracle.rows(text.database, text.gold)
        if want is None:
            raise BenchError(f"the oracle cannot run gold SQL: {text.gold}")
        tally.score(got == want)
        tally.translations += 1
        tally.degraded += doc.get("outcome") == "degraded"
        tally.counters["cached"] += bool(doc.get("cached"))
        tally.counters["worker_s"] += float(doc.get("elapsed", 0.0))
        tally.counters["transport_s"] += (done - sent) - float(doc.get("elapsed", 0.0))
        tally.counters["lag_s"] += max(0.0, sent - due)
    return tally


def server_layers(root: str, scratch: str, seed: int) -> tuple[dict, Tally]:
    """The server layer's per-layer metrics, and the probe's tally."""
    server = Server(root, scratch)
    try:
        pool = shipped_pool()
        warm = [(t, 0.0, 0.0, 0.0, *query(server.port, t)) for t in pool]
        schedule = poisson_schedule(pool, seed, RATE, PROBE_SECONDS)
        # the client's own collector must not stall the schedule
        gc.collect()
        gc.disable()
        try:
            records = send_schedule(server.port, schedule)
        finally:
            gc.enable()
        pids = {server.process.pid} | {
            r[5]["worker_pid"] for r in records if r[5].get("worker_pid")
        }
        rss = peak_rss_mb(pids)
        restarts = metric_total(server.port, "repro_server_worker_restarts_total")
    finally:
        server.stop()
    # answers are checked after the server is gone, outside every timer
    oracle = Oracle(build_databases())
    expected: dict[str, str] = {}
    tally = score(warm, oracle, expected)
    probe = score(records, oracle, expected)
    oracle.close()
    for name in ("attempted", "failed"):
        setattr(tally, name, getattr(tally, name) + getattr(probe, name))
    tally.failures.update(probe.failures)
    c, ok = probe.counters, probe.translations
    ms = [s * 1000.0 for s in probe.latencies]
    metrics = {
        "server.setup_s": server.ready_s,
        "server.latency_p50_ms": percentile(ms, 50),
        "server.latency_p99_ms": percentile(ms, 99),
        "server.slo_met_frac": ratio(probe.slo_met, probe.attempted),
        "server.peak_rss_mb": rss,
        "server.worker_ms": 1000 * ratio(c["worker_s"], ok),
        "server.transport_ms": 1000 * ratio(c["transport_s"], ok),
        "server.worker_cache_hit_ratio": ratio(c["cached"], ok),
        "server.restarts": restarts,
        "server.client_lag_ms": 1000 * ratio(c["lag_s"], ok),
        "server.top1_match_frac": ratio(probe.matched, probe.scored),
    }
    return metrics, tally
