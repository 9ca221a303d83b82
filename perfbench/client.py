"""Closed-loop HTTP/1.1 load client: one asyncio loop, no threads.

Each of ``connections`` keep-alive connections sends its next request
only after the previous response has been read in full, so a slower
server receives less load (a closed loop, the shape of callers that
wait for their answer).  The client speaks just enough HTTP for the
service: ``Content-Length`` framed requests and responses.
"""

from __future__ import annotations

import asyncio
import time

import stats
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, List, Optional, Tuple

RequestFn = Callable[[int], Tuple[int, bytes]]


class HttpError(Exception):
    pass


class Connection:
    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=1 << 20
        )
        return cls(reader, writer)

    async def call(self, wire: bytes) -> Tuple[int, bytes]:
        self.writer.write(wire)
        await self.writer.drain()
        head = await self.reader.readuntil(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        try:
            status = int(lines[0].split(b" ", 2)[1])
        except (IndexError, ValueError) as e:
            raise HttpError(f"malformed status line {lines[0]!r}") from e
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        body = await self.reader.readexactly(length) if length else b""
        return status, body

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def get(port: int, path: str) -> Tuple[int, bytes]:
    """One-shot GET on a fresh connection."""
    conn = await Connection.open(port)
    try:
        return await conn.call(
            b"GET %s HTTP/1.1\r\nHost: localhost\r\n"
            b"Content-Length: 0\r\n\r\n" % path.encode()
        )
    finally:
        await conn.close()


async def post(port: int, path: str, body: bytes) -> Tuple[int, bytes]:
    conn = await Connection.open(port)
    try:
        return await conn.call(
            b"POST %s HTTP/1.1\r\nHost: localhost\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n" % (path.encode(), len(body))
            + body
        )
    finally:
        await conn.close()


@dataclass
class LoadResult:
    """What one closed-loop run observed."""

    #: Window bounds on the shared monotonic clock (server traces use it).
    window_start: float = 0.0
    window_end: float = 0.0
    #: Latency [s] and end time of every request that started and ended
    #: in the window.
    latencies: List[float] = field(default_factory=list)
    ends: List[float] = field(default_factory=list)
    #: Requests sent, and those answered with a status other than 200.
    sent: int = 0
    warmup_sent: int = 0
    non_200: int = 0
    statuses: Dict[int, int] = field(default_factory=dict)
    #: Last response body per sampled body id.
    samples: Dict[int, bytes] = field(default_factory=dict)
    client_cpu_s: float = 0.0
    #: The window is cut into slices this long; ``steal[k]`` is the share
    #: of the host CPUs' time the hypervisor stole during slice ``k``
    #: (None where ``/proc/stat`` cannot be read).
    slice_s: float = 0.0
    steal: List[Optional[float]] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return len(self.latencies)

    @property
    def seconds(self) -> float:
        return self.window_end - self.window_start

    def slices(self) -> List[List[float]]:
        """Latencies of the requests that ended in each slice."""
        out: List[List[float]] = [[] for _ in self.steal]
        for end, latency in zip(self.ends, self.latencies):
            k = int((end - self.window_start) / self.slice_s)
            out[min(len(out) - 1, k)].append(latency)
        return out


async def closed_loop(
    port: int,
    connections: int,
    request: RequestFn,
    warmup_s: float,
    seconds: float,
    sampled: Callable[[int], bool],
    slice_s: float,
    before_window: Callable[[], Awaitable[None]],
) -> LoadResult:
    """Drive ``connections`` closed loops: ``warmup_s`` discarded, then
    ``seconds`` measured in equal slices of about ``slice_s`` seconds.
    ``request(i)`` gives the ``i``-th request's
    (body id, wire bytes); responses for body ids where
    ``sampled(body_id)`` are kept for the output check.
    ``before_window`` is awaited just before the window opens (the
    server's counter snapshot), and its cost falls in the warm-up."""
    result = LoadResult()
    counter = [0]
    clock = time.monotonic
    t0 = clock()
    window = (t0 + warmup_s, t0 + warmup_s + seconds)
    n_slices = max(1, int(seconds / slice_s))
    result.slice_s = seconds / n_slices

    async def watch_host() -> None:
        """Read the host's steal counters at every slice boundary."""
        ticks = []
        for k in range(n_slices + 1):
            await asyncio.sleep(max(0.0, window[0] + k * result.slice_s
                                    - clock()))
            ticks.append(stats.cpu_ticks())
        for a, b in zip(ticks, ticks[1:]):
            ok = a is not None and b is not None and b[1] > a[1]
            result.steal.append((b[0] - a[0]) / (b[1] - a[1]) if ok else None)

    async def worker(conn: Connection) -> None:
        while True:
            now = clock()
            if now >= window[1]:
                return
            i = counter[0]
            counter[0] += 1
            body_id, wire = request(i)
            status, body = await conn.call(wire)
            end = clock()
            result.statuses[status] = result.statuses.get(status, 0) + 1
            if status != 200:
                result.non_200 += 1
            if now < window[0]:
                result.warmup_sent += 1
                continue
            result.sent += 1
            if end <= window[1]:
                result.latencies.append(end - now)
                result.ends.append(end)
            if sampled(body_id):
                result.samples[body_id] = body

    conns: List[Connection] = []
    tasks: List[asyncio.Future] = []
    try:
        for _ in range(connections):
            conns.append(await Connection.open(port))
        tasks = [asyncio.ensure_future(worker(c)) for c in conns]
        await asyncio.sleep(max(0.0, window[0] - 0.05 - clock()))
        await before_window()
        tasks.append(asyncio.ensure_future(watch_host()))
        await asyncio.sleep(max(0.0, window[0] - clock()))
        cpu0 = time.process_time()
        await asyncio.gather(*tasks)
        result.client_cpu_s = time.process_time() - cpu0
    finally:
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        for conn in conns:
            await conn.close()
    result.window_start, result.window_end = window
    return result
