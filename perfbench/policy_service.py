"""Workload ``policy-service``: ``repro serve`` under open- and closed-loop load.

The server runs at its default configuration in its own process (only the
port is ephemeral).  Traffic comes from a population of :data:`USERS`
independent users, each with its own ``X-Client-Id`` and well under the
50 req/s per-client budget.  The route mix is :data:`MIX`.  ``/evaluate``
bodies carry the synthetic web's real ``Permissions-Policy``/
``Feature-Policy`` headers and iframe ``allow`` attributes, Zipf-popular
over four times the 1024-entry response cache so that both hits and
misses occur.

The request corpus is drawn from the seed before set-up.  Set-up boots the
server and warms its cache.  The measured part then runs, with one request
outstanding on each keep-alive connection:

1. an open-loop Poisson run at the reference rate over ``nproc``
   connections, for latency from each request's due time, generator
   lateness and end-of-run backlog;
2. an open-loop ladder of fixed rates over ``nproc`` connections, for the
   highest rate whose p99 stays within :data:`LATENCY_LIMIT_MS` with no
   backlog left over;
3. closed-loop batches of :data:`BATCH` requests over
   :data:`CLOSED_CONNECTIONS` connections, each connection sending its
   next request when the previous response has arrived; their median
   wall time (``total_s``) and server CPU time (``cpu_s``) are the gated
   metrics.

The server runs on the first allowed CPU and the generator on the others.
"""

from __future__ import annotations

import bisect
import contextlib
import http.client
import json
import os
import random
import select
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import loadgen
from common import (BENCH_DIR, CPUS, Checks, cli, median, percentile,
                    program_env, spans_path)
from spans import clock

#: Distinct client ids.  The limiter refills each at 50 req/s, so this
#: population stays unthrottled up to 200,000 req/s, far above what one
#: server process answers; it stays under the limiter's 4,096 tracked
#: clients, so no bucket is evicted.
USERS = 4000
#: Route shares.  The first three keep the 2:1:1 mix of
#: ``repro.experiments.service_bench``; the small ``/recommend`` share is an
#: assumption of this benchmark, as no source gives one.
MIX = (("evaluate", 0.50), ("generate-header", 0.24), ("registry", 0.24),
       ("recommend", 0.02))
EVALUATE_BODIES = 4096
CORPUS_SITES = 8192
ZIPF_S = 1.1
SETUPS = 3
#: Warm-up requests per set-up: their distinct bodies fill the 1,024-entry
#: response cache.
WARM_REQUESTS = 8000
#: Connections of the open-loop runs: one per CPU.
CONNECTIONS = CPUS
#: Connections of the closed-loop batches and the warm-up.  With one per
#: CPU the server answers both outstanding requests, then idles until the
#: generator's next ones arrive, and a batch times the host's wake-up
#: latency: the same 4,000 requests took 0.7 s on one batch and 1.5 s on
#: another.  With eight, a request is always waiting and a batch times the
#: server's own work; every request still pays its own read, parse and
#: round trip.
CLOSED_CONNECTIONS = 8

REFERENCE_RPS = 500
#: About 1,200 samples at the reference rate.
REFERENCE_SECONDS = 2.4
#: The open-loop run fails when the generator's median lateness exceeds
#: this: a generator that cannot keep up falls further behind with every
#: request.  A stall of the host shows in the reported p99 lateness and
#: latency instead.
LATENESS_BOUND_MS = 5.0
LATENCY_LIMIT_MS = 10.0
LADDER_RPS = (1000, 1500, 2000, 2500, 3000, 3500, 4000, 5000)
LADDER_STEP_SECONDS = 0.8
BATCH = 4000
MIN_BATCHES = 3
#: /evaluate responses compared with an in-process evaluation per run
SAMPLED_RESPONSES = 50

_FEATURES = ("camera", "microphone", "geolocation", "fullscreen", "payment",
             "autoplay", "clipboard-write", "display-capture", "usb",
             "serial", "midi", "web-share", "picture-in-picture",
             "encrypted-media", "gyroscope", "accelerometer")


_CUMULATIVE_MIX = [sum(share for _, share in MIX[:i + 1])
                   for i in range(len(MIX))]


def _request(method: str, path: str, body: "bytes | None",
             client: str) -> bytes:
    head = (f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"X-Client-Id: {client}\r\n")
    if body is not None:
        head += ("Content-Type: application/json\r\n"
                 f"Content-Length: {len(body)}\r\n")
    return head.encode("ascii") + b"\r\n" + (body or b"")


def _encode(document: dict) -> bytes:
    return json.dumps(document, separators=(",", ":")).encode("utf-8")


class Corpus:
    """Every distinct request the workload can send, drawn from the seed."""

    def __init__(self, seed: int) -> None:
        from repro.registry.features import DEFAULT_REGISTRY
        from repro.service.adapters import ToolAdapters
        from repro.synthweb.generator import SyntheticWeb

        adapters = ToolAdapters()
        rng = random.Random(seed)
        known = set(DEFAULT_REGISTRY.names())
        features = [name for name in _FEATURES if name in known]
        web = SyntheticWeb(CORPUS_SITES, seed=seed)
        rich, plain = [], []
        for rank in range(CORPUS_SITES):
            spec = web.site(rank)
            framed = [e for e in spec.iframe_elements() if e.src]
            has_policy = ("permissions-policy" in spec.headers
                          or any(e.allow for e in framed))
            (rich if has_policy else plain).append((spec, framed))
        self.evaluate: "list[bytes]" = []
        for spec, framed in (rich + plain):
            if len(self.evaluate) == EVALUATE_BODIES:
                break
            entry: dict = {"top_url": spec.url,
                           "features": rng.sample(features, 3)}
            for key, header in (("header", "permissions-policy"),
                                ("fp_header", "feature-policy")):
                if header in spec.headers:
                    entry[key] = spec.headers[header]
            if framed:
                frame = max(framed, key=lambda e: e.allow is not None)
                entry["frames"] = [{"url": frame.src, **(
                    {"allow": frame.allow} if frame.allow else {})}]
            payload = {"requests": [entry]}
            try:
                adapters.evaluate(payload)
            except Exception:  # a body the service would refuse: skip it
                continue
            self.evaluate.append(_encode(payload))
        weights = [1.0 / (k + 1) ** ZIPF_S for k in range(len(self.evaluate))]
        rng.shuffle(self.evaluate)
        total = sum(weights)
        running, self._cumulative = 0.0, []
        for weight in weights:
            running += weight
            self._cumulative.append(running / total)
        headers = [{"preset": "disable-all"}, {"preset": "disable-powerful"}]
        for _ in range(30):
            chosen = rng.sample(features, 3)
            headers.append({"disable": chosen[:2], "self_only": chosen[2:],
                            "disable_rest": rng.random() < 0.5})
        self.generate_header = [_encode(body) for body in headers]
        self.registry = ["/registry"] + [
            f"/registry?permission={name}" for name in features]
        self.recommend = []
        for rank in range(64):
            body = {"rank": rank, "sites": 1000, "seed": seed,
                    "interact": False}
            try:  # synthetic sites that fail to load answer 4xx: skip them
                adapters.recommend(body)
            except Exception:
                continue
            self.recommend.append(_encode(body))

    def evaluate_index(self, rng: random.Random) -> int:
        return min(bisect.bisect_left(self._cumulative, rng.random()),
                   len(self.evaluate) - 1)


class RequestStream:
    """Seeded request draws: (payload bytes, evaluate body index or -1)."""

    def __init__(self, corpus: Corpus, seed: int) -> None:
        self.corpus = corpus
        self.rng = random.Random(seed)

    def take(self, count: int) -> "tuple[list[bytes], list[int]]":
        corpus, rng = self.corpus, self.rng
        payloads, indices = [], []
        for _ in range(count):
            client = f"user-{rng.randrange(USERS)}"
            pick = rng.random()
            index = -1
            if pick < _CUMULATIVE_MIX[0]:
                index = corpus.evaluate_index(rng)
                payload = _request("POST", "/evaluate",
                                   corpus.evaluate[index], client)
            elif pick < _CUMULATIVE_MIX[1]:
                payload = _request("POST", "/generate-header",
                                   rng.choice(corpus.generate_header),
                                   client)
            elif pick < _CUMULATIVE_MIX[2]:
                payload = _request("GET", rng.choice(corpus.registry), None,
                                   client)
            else:
                payload = _request("POST", "/recommend",
                                   rng.choice(corpus.recommend), client)
            payloads.append(payload)
            indices.append(index)
        return payloads, indices

    def poisson(self, rate: float, seconds: float) -> "list[float]":
        offsets, now = [], 0.0
        while True:
            now += self.rng.expovariate(rate)
            if now >= seconds:
                return offsets
            offsets.append(now)


class Server:
    """One ``serve`` process on an ephemeral port."""

    def __init__(self, argv: "list[str]", env: dict, work: Path,
                 cpus: "set[int]") -> None:
        self.log = open(work / "serve.log", "ab")
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                     stderr=self.log, cwd=work, env=env,
                                     start_new_session=True)
        os.sched_setaffinity(self.proc.pid, cpus)
        line = b""
        deadline = time.monotonic() + 60.0
        while b"policy service on http://" not in line:
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        max(0.0, deadline - time.monotonic()))
            line = self.proc.stdout.readline() if ready else b""
            if not ready or (not line and self.proc.poll() is not None):
                self.stop()
                raise RuntimeError("policy service did not start")
        address = line.split(b"http://", 1)[1].split()[0].decode()
        self.host, port = address.rsplit(":", 1)
        self.port = int(port)

    def stats(self) -> dict:
        connection = http.client.HTTPConnection(self.host, self.port,
                                                timeout=30)
        try:
            connection.request("GET", "/stats")
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    def cpu_s(self) -> float:
        """CPU time of all the server's threads so far (ns resolution)."""
        total = 0
        for task in Path(f"/proc/{self.proc.pid}/task").iterdir():
            total += int((task / "schedstat").read_text().split()[0])
        return total / 1e9

    def peak_rss_mb(self) -> float:
        """The server's own peak RSS so far (``VmHWM``).  ``wait4`` would
        also count the benchmark process, whose peak Linux carries into
        the children it forks."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text(
                ).splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the policy service process")

    def stop(self) -> int:
        """Drain and reap; returns the exit code."""
        if self.proc.returncode is not None:
            return self.proc.returncode
        self.proc.send_signal(signal.SIGINT)
        timer = threading.Timer(30.0, os.killpg, args=(self.proc.pid,
                                                        signal.SIGKILL))
        timer.start()
        try:
            self.proc.wait()
        finally:
            timer.cancel()
        self.proc.stdout.close()
        self.log.close()
        return self.proc.returncode


@contextlib.contextmanager
def _apart_from_server():
    """Run this load generator on other CPUs than the server.

    Sharing one CPU, the two hand it back and forth and a batch's wall time
    measures their sum; the scheduler puts them together on some runs and
    apart on others.  Yields the CPUs for the server (the first allowed
    one) and restores this process's CPUs afterwards.
    """
    allowed = os.sched_getaffinity(0)
    if len(allowed) < 2:
        yield allowed
        return
    server_cpus = {min(allowed)}
    os.sched_setaffinity(0, allowed - server_cpus)
    try:
        yield server_cpus
    finally:
        os.sched_setaffinity(0, allowed)


def _setup(seed: int, corpus: Corpus, argv: "list[str]", env: dict,
           work: Path, server_cpus: "set[int]",
           checks: Checks) -> "tuple[float, Server]":
    """Boot the server and warm its cache; returns the time both took."""
    payloads, _ = RequestStream(corpus, seed + 1).take(WARM_REQUESTS)
    start = clock()
    server = Server(argv, env, work, server_cpus)
    warm = loadgen.run_closed(server.host, server.port, payloads,
                              CLOSED_CONNECTIONS)
    elapsed = clock() - start
    checks.check(warm.non_200 == 0 and not warm.socket_errors,
                 f"warm-up: {warm.non_200} non-200 responses, "
                 f"{warm.socket_errors} socket errors")
    return elapsed, server


def _check_identity(server: Server, corpus: Corpus, checks: Checks) -> None:
    """Two cosmetic spellings of one policy must return the same bytes."""
    top = json.loads(corpus.evaluate[0])["requests"][0]["top_url"]
    spellings = ("camera=(self), microphone=()",
                 "camera=(self),   microphone=()")
    bodies = []
    connection = http.client.HTTPConnection(server.host, server.port,
                                            timeout=30)
    try:
        for header in (*spellings, spellings[0]):
            connection.request("POST", "/evaluate", body=_encode(
                {"requests": [{"top_url": top, "header": header,
                               "features": ["camera", "microphone"]}]}),
                headers={"X-Client-Id": "identity-probe"})
            response = connection.getresponse()
            bodies.append((response.status, response.read()))
    finally:
        connection.close()
    checks.check(all(status == 200 for status, _ in bodies)
                 and bodies[0][1] == bodies[1][1] == bodies[2][1],
                 "cosmetic spellings of one policy got different responses")


def _check_load(name: str, result: loadgen.LoadResult,
                checks: Checks) -> None:
    checks.check(result.non_200 == 0 and not result.socket_errors,
                 f"{name}: {result.non_200} non-200 responses, "
                 f"{result.socket_errors} socket errors")


def _check_sampled(result: loadgen.LoadResult, payloads: "list[bytes]",
                   checks: Checks) -> None:
    """Sampled /evaluate responses equal an in-process evaluation."""
    from repro.service.adapters import ToolAdapters
    from repro.service.http import encode_json

    adapters = ToolAdapters()
    mismatched = 0
    for index, body in result.bodies.items():
        request = payloads[index]
        expected = encode_json(adapters.evaluate(
            json.loads(request.split(b"\r\n\r\n", 1)[1])))
        mismatched += body != expected
    checks.check(bool(result.bodies) and not mismatched,
                 f"{mismatched} of {len(result.bodies)} sampled /evaluate "
                 "responses differ from ToolAdapters.evaluate")


def _open_loop(server: Server, stream: RequestStream, rate: float,
               seconds: float, keep_sample: bool = False):
    offsets = stream.poisson(rate, seconds)
    payloads, indices = stream.take(len(offsets))
    keep: "set[int]" = set()
    if keep_sample:
        evaluated = [i for i, index in enumerate(indices) if index >= 0]
        keep = set(stream.rng.sample(evaluated,
                                     min(SAMPLED_RESPONSES, len(evaluated))))
    result = loadgen.run_open(server.host, server.port, payloads, offsets,
                              CONNECTIONS, keep)
    return result, payloads


def _latency_summary(result: loadgen.LoadResult) -> dict:
    ms = [value * 1000 for value in result.latencies_s]
    late = [value * 1000 for value in result.lateness_s]
    return {
        "samples": len(ms),
        "p50_ms": percentile(ms, 0.50),
        "p99_ms": percentile(ms, 0.99),
        "generator_lateness_p50_ms": percentile(late, 0.50),
        "generator_lateness_p99_ms": percentile(late, 0.99),
        "backlog_at_end": result.backlog_at_end,
    }


def _check_unthrottled(before: dict, after: dict, checks: Checks) -> int:
    """The user population keeps every client under its budget: the
    limiter must have refused nothing.  Returns the refusals."""
    limited = after["rate_limited"] - before["rate_limited"]
    checks.check(limited == 0, f"rate limiter refused {limited} requests")
    return limited


def _closed_batches(server: Server, stream: RequestStream, checks: Checks,
                    deadline: float) -> "tuple[list[float], list[float]]":
    walls, cpus = [], []
    while len(walls) < MIN_BATCHES or clock() < deadline:
        payloads, _ = stream.take(BATCH)
        cpu_before = server.cpu_s()
        result = loadgen.run_closed(server.host, server.port, payloads,
                                    CLOSED_CONNECTIONS)
        cpus.append(server.cpu_s() - cpu_before)
        walls.append(result.wall_s)
        _check_load("closed-loop batch", result, checks)
    return walls, cpus


def measure(seed: int, seconds: float, work: Path) -> dict:
    with _apart_from_server() as server_cpus:
        return _measure(seed, seconds, work, server_cpus)


def _measure(seed: int, seconds: float, work: Path,
             server_cpus: "set[int]") -> dict:
    env = program_env(work)
    checks = Checks()
    corpus = Corpus(seed)
    setups, server = [], None
    for _ in range(SETUPS):
        if server is not None:
            server.stop()
        elapsed, server = _setup(seed, corpus, cli("serve", "--port", "0"),
                                 env, work, server_cpus, checks)
        setups.append(elapsed)
    try:
        started = clock()
        stream = RequestStream(corpus, seed)
        _check_identity(server, corpus, checks)
        stats_before = server.stats()
        reference, payloads = _open_loop(server, stream, REFERENCE_RPS,
                                         REFERENCE_SECONDS, keep_sample=True)
        _check_load("reference-rate run", reference, checks)
        _check_sampled(reference, payloads, checks)
        latency = _latency_summary(reference)
        checks.check(
            latency["generator_lateness_p50_ms"] <= LATENESS_BOUND_MS,
            f"generator fell behind its schedule: median lateness "
            f"{latency['generator_lateness_p50_ms']:.2f} ms > "
            f"{LATENESS_BOUND_MS} ms")
        ladder, max_rps = [], 0
        for rate in LADDER_RPS:
            step, _ = _open_loop(server, stream, rate, LADDER_STEP_SECONDS)
            _check_load(f"ladder {rate} req/s", step, checks)
            summary = {"rps": rate, **_latency_summary(step)}
            ladder.append(summary)
            # A backlog the service clears within the latency limit is
            # queueing; a larger one is growing.
            if (summary["p99_ms"] > LATENCY_LIMIT_MS
                    or summary["backlog_at_end"]
                    > rate * LATENCY_LIMIT_MS / 1000):
                break
            max_rps = rate
        walls, cpus = _closed_batches(server, stream, checks,
                                      started + seconds)
        stats_after = server.stats()
        peak_rss = server.peak_rss_mb()
    finally:
        code = server.stop()
    checks.check(code == 0, f"serve exited with {code}")
    rate_limited = _check_unthrottled(stats_before, stats_after, checks)
    hits = stats_after["cache"]["hits"] - stats_before["cache"]["hits"]
    misses = stats_after["cache"]["misses"] - stats_before["cache"]["misses"]
    return {
        "metrics": {
            "setup_s": (median(setups), "s"),
            "total_s": (median(walls), "s"),
            "cpu_s": (median(cpus), "s"),
            "peak_rss_mb": (peak_rss, "MiB"),
        },
        "checks": checks,
        "detail": {
            "users": USERS, "connections": CONNECTIONS,
            "closed_connections": CLOSED_CONNECTIONS,
            "mix": dict(MIX), "rate_limited": rate_limited,
            "evaluate_bodies": len(corpus.evaluate),
            "cache_entries": stats_after["cache"]["max_entries"],
            "reference_rps": REFERENCE_RPS, **latency,
            "latency_limit_ms": LATENCY_LIMIT_MS, "max_rps": max_rps,
            "ladder": ladder, "batch_requests": BATCH,
            "batches": len(walls), "batch_walls_s": walls,
            "setup_runs_s": setups,
            "batch_rps": BATCH / median(walls),
            "cache_hit_rate": hits / (hits + misses) if hits + misses
            else 0.0,
            "setups": len(setups),
        },
    }


def traced(seed: int, seconds: float, work: Path) -> dict:
    """Per-layer run: an untraced server, then one started through the
    wrapper launcher, under the same closed-loop batches."""
    with _apart_from_server() as server_cpus:
        return _traced(seed, work, server_cpus)


def _traced(seed: int, work: Path, server_cpus: "set[int]") -> dict:
    import layers
    from spans import SpanTable

    env = program_env(work)
    checks = Checks()
    spans = spans_path("policy-service", seed)
    corpus = Corpus(seed)
    bare_walls, walls = [], []
    for traced_run in (False, True):
        argv = ([sys.executable, str(BENCH_DIR / "serve_traced.py"),
                 str(spans), "--port", "0"] if traced_run
                else cli("serve", "--port", "0"))
        _, server = _setup(seed, corpus, argv, env, work, server_cpus,
                           checks)
        try:
            stream = RequestStream(corpus, seed)
            before = server.stats()
            start = clock()
            run_walls, _ = _closed_batches(server, stream, checks, 0.0)
            reference, _ = _open_loop(server, stream, REFERENCE_RPS, 1.0)
            _check_load("reference-rate run", reference, checks)
            window = (start, clock())
            after = server.stats()
        finally:
            code = server.stop()
        checks.check(code == 0, f"serve exited with {code}")
        _check_unthrottled(before, after, checks)
        (walls if traced_run else bare_walls).extend(run_walls)

    ledger = SpanTable.load(spans).ledger(window)
    hits = after["cache"]["hits"] - before["cache"]["hits"]
    misses = after["cache"]["misses"] - before["cache"]["misses"]
    entries = after["cache"]["entries"] - before["cache"]["entries"]
    counts = {
        "service.cache_hit_rate": hits / (hits + misses)
        if hits + misses else 0.0,
        "service.cache_evictions": misses - entries,
        "service.rate_limited": after["rate_limited"]
        - before["rate_limited"],
        "trace.overhead": median(walls) / median(bare_walls) - 1.0,
    }
    return {
        "metrics": layers.per_layer_metrics({"serve": ledger}, counts),
        "checks": checks,
        "ledgers": {"serve": ledger},
        "detail": {"closed_connections": CLOSED_CONNECTIONS,
                   "batch_requests": BATCH,
                   "batches": len(walls)},
    }
