"""Seeded ``/v1/predict`` request bodies for the serving workloads.

Every body is the paper's §VII "ask the model" grid (19 point queries:
latency per MESIF state and location, bandwidth per op and memory
kind, a sparse contention curve) plus a seeded subset of the dense
sweep's 1280 curve points (contention at 1..256 accessors, multiline
transfers of 64 B..32 KiB from the tile and remote locations).  The
pool spans the bare grid (19 queries, ~1 KB) to the full dense sweep
(1299 queries, ~73 KB) on a fixed ladder of sizes spaced evenly over
that range (mean 659 queries, ~37 KB).  Nothing says which sizes
clients send most, so no size is favoured; the spread of sizes lets
the traced run fit each layer as ``alpha + beta * bytes``, and every
seed sends the same mix of sizes.  The seed picks which curve points
each body carries and the order bodies are sent in.

Every body in a pool has a distinct query count, so a layer that only
sees the parsed query list (compile, evaluate, render) can still be
mapped back to the body's size in bytes.
"""

from __future__ import annotations

import json
import random
from typing import Dict, List, Tuple

POOL_SIZE = 64

_GRID = [
    {"metric": "latency", "location": "local"},
    *[
        {"metric": "latency", "location": loc, "state": st}
        for loc in ("tile", "remote")
        for st in ("M", "E", "S")
    ],
    *[
        {"metric": "latency", "location": "memory", "kind": kind}
        for kind in ("ddr", "mcdram")
    ],
    *[
        {"metric": "bandwidth", "op": op, "kind": kind}
        for op in ("copy", "triad", "read")
        for kind in ("ddr", "mcdram")
    ],
    *[{"metric": "contention", "n": n} for n in (2, 16, 64, 256)],
]

_CURVE_POINTS = [
    *[{"metric": "contention", "n": n} for n in range(1, 257)],
    *[
        {"metric": "multiline", "location": loc, "bytes": 64 * i}
        for loc in ("tile", "remote")
        for i in range(1, 513)
    ],
]

#: Unique bodies append one contention query with ``n`` from here up,
#: a value no pool body uses, so no two unique bodies share bytes.
_UNIQUE_N0 = 1000


def _ladder(n_max: int) -> List[int]:
    """``POOL_SIZE`` distinct curve-point counts, evenly spaced from 0
    to ``n_max``: the same sizes for every seed, so runs on different
    seeds do the same amount of work."""
    return [round(j * n_max / (POOL_SIZE - 1)) for j in range(POOL_SIZE)]


def _template_queries(seed: int) -> List[List[dict]]:
    """``POOL_SIZE`` query lists, one per ladder size, with seeded curve
    points in a seeded order."""
    rng = random.Random(seed)
    n_max = len(_CURVE_POINTS)
    counts = _ladder(n_max)
    rng.shuffle(counts)
    pool = []
    for k in counts:
        picked = sorted(rng.sample(range(n_max), k))
        pool.append(_GRID + [_CURVE_POINTS[i] for i in picked])
    return pool


def _request(body: bytes) -> bytes:
    return (
        b"POST /v1/predict HTTP/1.1\r\nHost: localhost\r\n"
        b"Content-Type: application/json\r\n"
        b"Content-Length: %d\r\n\r\n" % len(body)
    ) + body


class RepeatPool:
    """The ``predict-repeat`` inputs: 64 bodies, cycled."""

    def __init__(self, seed: int) -> None:
        queries = _template_queries(seed)
        self.bodies = [json.dumps({"queries": q}).encode() for q in queries]
        self.requests = [_request(b) for b in self.bodies]
        #: query count -> body bytes, for the traced run's size fits.
        self.size_of: Dict[int, float] = {
            len(q): float(len(b)) for q, b in zip(queries, self.bodies)
        }

    def request(self, i: int) -> Tuple[int, bytes]:
        """(body id, wire bytes) of the ``i``-th request sent."""
        k = i % POOL_SIZE
        return k, self.requests[k]

    def body(self, body_id: int) -> bytes:
        return self.bodies[body_id]


class UniquePool:
    """The ``predict-unique`` inputs: request ``i`` is pool body
    ``template[i]`` plus one query no other request carries."""

    def __init__(self, seed: int, capacity: int) -> None:
        queries = _template_queries(seed)
        rng = random.Random(seed ^ 0x5EED)
        self.capacity = capacity
        # "...last query]}" -> "...last query, " so a suffix can follow.
        self.prefixes = [
            json.dumps({"queries": q}).encode()[:-2] + b", " for q in queries
        ]
        # Each run of POOL_SIZE consecutive requests covers every size
        # once, so the size mix of a timed window does not depend on luck.
        order = list(range(POOL_SIZE))
        self.templates = []
        while len(self.templates) < capacity:
            rng.shuffle(order)
            self.templates.extend(order)
        suffix = float(len(self._suffix(capacity // 2)))
        self.size_of: Dict[int, float] = {
            len(q) + 1: len(p) + suffix for q, p in zip(queries, self.prefixes)
        }

    def _suffix(self, i: int) -> bytes:
        return b'{"metric": "contention", "n": %d}]}' % (_UNIQUE_N0 + i)

    def request(self, i: int) -> Tuple[int, bytes]:
        if i >= self.capacity:
            raise IndexError(f"unique pool exhausted at request {i}")
        return i, _request(self.body(i))

    def body(self, body_id: int) -> bytes:
        return self.prefixes[self.templates[body_id]] + self._suffix(body_id)
