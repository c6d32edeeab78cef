"""HTTP/1.1 keep-alive load generator for the policy service (asyncio).

Both modes share one connection worker, which keeps one request
outstanding on its connection, as an ``http.client`` caller does:

* **open loop** — requests are due on a Poisson schedule drawn from the
  workload seed, whether or not earlier ones have finished, as from a
  population of independent users.  Latency runs from each request's due
  time, so a stall also counts against the requests queued behind it; the
  generator's own lateness and the backlog left when the schedule ends
  are reported beside it.
* **closed loop** — every connection takes the next request of a fixed
  batch as soon as its previous response has arrived; latency runs from
  the send.  The batch's wall time is what the service sustains for that
  many callers, each paying its own read, parse and round trip.

The connection count bounds concurrency in both modes.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

from spans import clock


@dataclass
class LoadResult:
    """Per-request outcomes of one load run, by request index."""

    statuses: "list[int]"
    latencies_s: "list[float]"
    lateness_s: "list[float]" = field(default_factory=list)
    bodies: "dict[int, bytes]" = field(default_factory=dict)
    socket_errors: int = 0
    wall_s: float = 0.0
    #: requests due but not finished when the last one fell due
    backlog_at_end: int = 0

    @property
    def non_200(self) -> int:
        return sum(1 for status in self.statuses if status != 200)


async def _read_response(reader: asyncio.StreamReader) -> "tuple[int, bytes]":
    head = await reader.readuntil(b"\r\n\r\n")
    length = 0
    for line in head.split(b"\r\n"):
        if line[:15].lower() == b"content-length:":
            length = int(line[15:])
    return int(head[9:12]), await reader.readexactly(length)


async def _worker(host: str, port: int, queue: asyncio.Queue,
                  result: LoadResult, keep: "set[int]",
                  finished: "list[float]") -> None:
    """One request at a time, taken from ``queue`` until a ``None``.

    An item is ``(index, due, payload)``; latency runs from ``due``, or
    from the send when ``due`` is ``None`` (closed loop).
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        while True:
            item = await queue.get()
            if item is None:
                return
            index, due, payload = item
            sent = clock()
            try:
                writer.write(payload)
                status, body = await _read_response(reader)
            except (OSError, asyncio.IncompleteReadError, ValueError):
                result.socket_errors += 1
                result.statuses[index] = -1
                writer.close()
                reader, writer = await asyncio.open_connection(host, port)
                continue
            done = clock()
            finished.append(done)
            result.statuses[index] = status
            result.latencies_s[index] = done - (sent if due is None else due)
            if index in keep:
                result.bodies[index] = body
    finally:
        writer.close()


async def _run_open(host: str, port: int, payloads: "list[bytes]",
                    offsets: "list[float]", connections: int,
                    keep: "set[int]") -> LoadResult:
    count = len(payloads)
    result = LoadResult(statuses=[0] * count, latencies_s=[0.0] * count,
                        lateness_s=[0.0] * count)
    queue: asyncio.Queue = asyncio.Queue()
    finished: "list[float]" = []
    workers = [asyncio.create_task(
        _worker(host, port, queue, result, keep, finished))
        for _ in range(connections)]
    await asyncio.sleep(0.05)  # let the connections open
    start = clock()
    for index, (offset, payload) in enumerate(zip(offsets, payloads)):
        due = start + offset
        delay = due - clock()
        if delay > 0:
            await asyncio.sleep(delay)
        result.lateness_s[index] = clock() - due
        queue.put_nowait((index, due, payload))
    last_due = start + offsets[-1] if offsets else start
    result.backlog_at_end = count - sum(
        1 for done in finished if done <= last_due)
    for _ in workers:
        queue.put_nowait(None)
    await asyncio.gather(*workers)
    result.wall_s = clock() - start
    return result


async def _run_closed(host: str, port: int, payloads: "list[bytes]",
                      connections: int) -> LoadResult:
    count = len(payloads)
    result = LoadResult(statuses=[0] * count, latencies_s=[0.0] * count)
    queue: asyncio.Queue = asyncio.Queue()
    for index, payload in enumerate(payloads):
        queue.put_nowait((index, None, payload))
    for _ in range(connections):
        queue.put_nowait(None)
    start = clock()
    await asyncio.gather(*(
        _worker(host, port, queue, result, frozenset(), [])
        for _ in range(connections)))
    result.wall_s = clock() - start
    return result


def run_closed(host: str, port: int, payloads: "list[bytes]",
               connections: int) -> LoadResult:
    return asyncio.run(_run_closed(host, port, payloads, connections))


def run_open(host: str, port: int, payloads: "list[bytes]",
             offsets: "list[float]", connections: int,
             keep: "set[int]" = frozenset()) -> LoadResult:
    return asyncio.run(_run_open(host, port, payloads, offsets, connections,
                                 keep))
