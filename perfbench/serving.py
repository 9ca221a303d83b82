"""The ``predict-repeat`` and ``predict-unique`` workloads.

One run starts ``repro serve`` (one worker, default batching and
vectorization, fixed fit iterations and seed, no persistence) as a
child process several times:

1. three vector servers, only to sample set-up time;
2. a vector server that takes the load: warm-up (discarded), then the
   timed window;
3. with ``--trace 1``: the same server under ``serve_traced.py``, for
   the per-layer numbers and the tracing overhead;
4. a scalar server (``--no-vector``, same fit), the reference the
   sampled responses of (2) must equal byte for byte.

``setup_s`` is the median spawn-to-``/healthz`` time of servers 1, 2
and 4 (five spawns); each includes the one artifact fit.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import re
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import client
import stats
from bodies import RepeatPool, UniquePool
from procs import wait_line

#: The server's fit: fixed, so every spawn fits the same artifact.
FIT_ITERATIONS = 20
FIT_SEED = 1234
WARMUP_S = 1.5
#: Servers started only to sample set-up time (the loaded and the
#: scalar server are sampled too).
SETUP_ONLY_SPAWNS = 3
#: End-to-end figures are taken per slice of the window this long, and
#: only from the calm slices: the ``CALM_SHARE`` of them in which the
#: hypervisor stole the least CPU time from this VM.  Steal comes in
#: bursts of seconds and sets a slice's speed (on a 2-vCPU VM, slice
#: throughput against slice steal correlates at -0.91); a change in the
#: program moves every slice, calm ones included.
SLICE_S = 2.0
CALM_SHARE = 0.5
#: Calm slices that still lost more than this share of the CPUs to the
#: hypervisor flag the run as measured on a noisy host.
NOISY_STEAL = 0.01
#: Layer-sum tolerance: the timed layers may leave at most this share of
#: ``app.dispatch_ms`` unexplained (the remainder holds the content hash,
#: plan-cache lookups and waking the request's coroutine, which have no
#: public function to wrap), and may not overshoot it by more than
#: ``OVERSHOOT`` (that would mean double counting).
RESIDUAL_TOLERANCE = 0.35
OVERSHOOT = 0.05


@dataclass
class Server:
    proc: object
    port: int
    setup_s: float


def _serve_flags(art_dir: str, scalar: bool) -> List[str]:
    flags = [
        "--port", "0", "--workers", "1",
        "--iterations", str(FIT_ITERATIONS), "--seed", str(FIT_SEED),
        "--no-persist", "--artifact-dir", art_dir,
    ]
    return flags + (["--no-vector"] if scalar else [])


def start_server(ctx, name: str, scalar: bool = False,
                 trace_out: Optional[str] = None) -> Server:
    art_dir = tempfile.mkdtemp(prefix="artifacts-", dir=ctx.tmp)
    flags = _serve_flags(art_dir, scalar)
    if trace_out is None:
        argv = [sys.executable, "-m", "repro", "serve", *flags]
    else:
        argv = [sys.executable, os.path.join(ctx.here, "serve_traced.py"),
                trace_out, *flags]
    t0 = time.monotonic()
    proc = ctx.children.spawn(argv, ctx.env, ctx.root, ctx.log(name))
    line = wait_line(proc, b"listening on", 120.0)
    match = re.search(rb":(\d+) \(", line)
    if match is None:
        raise RuntimeError(f"no port in {line!r}")
    port = int(match.group(1))
    asyncio.run(_wait_healthy(port, deadline=time.monotonic() + 30.0))
    return Server(proc, port, time.monotonic() - t0)


async def _wait_healthy(port: int, deadline: float) -> None:
    while True:
        try:
            status, _ = await client.get(port, "/healthz")
            if status == 200:
                return
        except OSError:
            pass
        if time.monotonic() > deadline:
            raise RuntimeError(f"/healthz on port {port} never answered")
        await asyncio.sleep(0.01)


async def _metrics(port: int) -> Dict[str, dict]:
    status, body = await client.get(port, "/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    return json.loads(body)["metrics"]


def peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def _load(server: Server, pool, seconds: float, sampled, connections: int
          ) -> Tuple[client.LoadResult, Dict[str, dict]]:
    snaps = {}

    async def snapshot_before() -> None:
        snaps["before"] = await _metrics(server.port)

    async def go():
        load = await client.closed_loop(
            server.port, connections, pool.request, WARMUP_S, seconds,
            sampled, SLICE_S, snapshot_before,
        )
        snaps["after"] = await _metrics(server.port)
        return load

    load = asyncio.run(go())
    return load, stats.deltas(snaps["before"], snaps["after"])


async def _reference(port: int, pool, samples: Dict[int, bytes]) -> int:
    """Sampled responses that differ from the scalar server's bytes."""
    mismatches = 0
    for body_id in sorted(samples):
        status, want = await client.post(port, "/v1/predict",
                                         pool.body(body_id))
        if status != 200 or want != samples[body_id]:
            mismatches += 1
    return mismatches


def run(ctx, workload: str, seed: int, seconds: float, trace: bool):
    connections = len(os.sched_getaffinity(0))
    rng = random.Random(seed)
    if workload == "predict-repeat":
        pool = RepeatPool(seed)
        chosen = set(rng.sample(range(len(pool.bodies)), 16))
        sampled = chosen.__contains__
    else:
        # Far more distinct bodies than any run can send.
        pool = UniquePool(seed, capacity=int((WARMUP_S + seconds) * 4000))
        residue = rng.randrange(23)
        sampled = lambda body_id: body_id % 23 == residue  # noqa: E731

    setups = []
    record: Dict[str, object] = {"connections": connections}

    for i in range(SETUP_ONLY_SPAWNS):
        spare = start_server(ctx, f"serve-setup-{i}")
        setups.append(spare.setup_s)
        ctx.children.stop(spare.proc)

    server = start_server(ctx, "serve")
    setups.append(server.setup_s)
    load, deltas = _load(server, pool, seconds, sampled, connections)
    rss = peak_rss_mb(server.proc.pid)
    ctx.children.stop(server.proc)

    traced = None
    if trace:
        trace_out = os.path.join(ctx.tmp, "serve-trace.json")
        tserver = start_server(ctx, "serve-traced", trace_out=trace_out)
        tload, tdeltas = _load(tserver, pool, seconds, sampled, connections)
        code = ctx.children.stop(tserver.proc)
        if code != 0:
            raise RuntimeError(f"traced server exited with {code}")
        with open(trace_out) as f:
            events = json.load(f)
        traced = (tload, tdeltas, events)

    ref = start_server(ctx, "serve-scalar", scalar=True)
    setups.append(ref.setup_s)
    mismatches = asyncio.run(_reference(ref.port, pool, load.samples))
    ctx.children.stop(ref.proc)

    attempted = load.warmup_sent + load.sent + len(load.samples)
    failed = load.non_200 + mismatches
    if load.completed == 0:
        raise RuntimeError("no request completed in the timed window")
    ops, p50, p95, per_slice, calm = sliced(load)
    calm_steal = [per_slice[k][3] for k in calm if per_slice[k][3] is not None]
    metrics = {
        "ops_per_s": (ops, "1/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p95_ms": (p95, "ms"),
        "setup_s": (stats.median(setups), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    client_cpu_share = load.client_cpu_s / load.seconds
    record.update({
        "latency_samples": load.completed,
        "slices": per_slice,
        "calm_slices": calm,
        "host_noisy": stats.mean(calm_steal) > NOISY_STEAL,
        "statuses": {str(k): v for k, v in sorted(load.statuses.items())},
        "warmup_requests": load.warmup_sent,
        "failed_share": failed / attempted,
        "checked_samples": len(load.samples),
        "sample_mismatches": mismatches,
        "setup_samples_s": setups,
        "client_cpu_ms_per_request": load.client_cpu_s * 1e3 / load.completed,
        "client_cpu_share": client_cpu_share,
        "client_saturated": client_cpu_share > 0.9,
        "server_metric_deltas": deltas,
    })
    checks_ok = True
    if traced is not None:
        tload, tdeltas, events = traced
        layers, breakdown, fits, sum_ok = serve_layers(
            events, tdeltas, tload, ops, pool.size_of
        )
        record["layer_breakdown_ms"] = breakdown
        record["layer_fits"] = fits
        record["layer_sum_ok"] = sum_ok
        record["traced_server_metric_deltas"] = tdeltas
        checks_ok = sum_ok
        failed += tload.non_200
        attempted += tload.warmup_sent + tload.sent
        metrics = layers
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and checks_ok,
        "metrics": metrics,
        "record": record,
    }


def sliced(load: client.LoadResult):
    """(ops_per_s, p50 ms, p95 ms), each the median over the calm slices
    of the window; the per-slice figures; the calm slices' indices."""
    per_slice = [
        (len(s) / load.slice_s,
         stats.percentile(s, 50) * 1e3 if s else None,
         stats.percentile(s, 95) * 1e3 if s else None,
         steal)
        for s, steal in zip(load.slices(), load.steal)
    ]
    order = list(range(len(per_slice)))
    if None not in load.steal:
        order.sort(key=lambda k: load.steal[k])
        order = order[:max(1, round(len(order) * CALM_SHARE))]
    calm = [per_slice[k] for k in order if per_slice[k][1] is not None]
    return (
        stats.median([p[0] for p in calm]),
        stats.median([p[1] for p in calm]),
        stats.median([p[2] for p in calm]),
        per_slice,
        sorted(order),
    )


def _in_window(rows, load) -> list:
    return [r for r in rows if load.window_start <= r[0] <= load.window_end]


def _fit(name: str, xs, ys) -> dict:
    fit = stats.linear_fit(xs, ys)
    if fit is None:
        return {"layer": name, "samples": len(xs), "fit": None}
    alpha, beta, r2 = fit
    return {
        "layer": name,
        "samples": len(xs),
        "alpha_ms": alpha,
        "beta_ms_per_kb": beta * 1024,
        "r2": r2,
    }


def serve_layers(events, deltas, load, untraced_ops, size_of):
    """Per-layer metrics of one traced window, the dispatch breakdown,
    the alpha + beta * bytes fits, and whether the layers sum to the
    measured ``app.dispatch_ms`` within tolerance."""
    reads = _in_window(events["reads"], load)
    writes = _in_window(events["writes"], load)
    requests = _in_window(events["requests"], load)
    batches = _in_window(events["batches"], load)
    compiles = _in_window(events["compiles"], load)
    evaluates = _in_window(events["evaluates"], load)
    renders = _in_window(events["renders"], load)

    def per_request(col: int) -> float:
        return stats.mean([r[col] for r in requests]) * 1e3

    dispatch = stats.hist_mean(deltas, "serve.latency_ms")
    parts = {
        "batcher.wait": per_request(2),
        "artifacts.resolve": per_request(3),
        "app.parse": per_request(4),
        "app.thread_hop": per_request(5),
        "vector.compile": per_request(6),
        "vector.evaluate": per_request(7),
        "app.render": per_request(8),
    }
    timed = sum(parts.values())
    residual = dispatch - timed
    breakdown = dict(parts, **{"app.residual": residual,
                               "app.dispatch": dispatch})
    sum_ok = (dispatch > 0
              and -OVERSHOOT * dispatch <= residual
              <= RESIDUAL_TOLERANCE * dispatch)

    client_ms = stats.mean(load.latencies) * 1e3
    traced_ops = sliced(load)[0]
    plan_hits = stats.counter(deltas, "serve.vector.plan_cache.hits")
    plan_misses = stats.counter(deltas, "serve.vector.plan_cache.misses")
    render_hits = stats.counter(deltas, "serve.vector.render_cache.hits")
    rendered = stats.counter(deltas, "serve.vector.plans")
    requests_n = stats.counter(deltas, "serve.batch.requests")
    sweeps_q = [sum(r[2]) for r in evaluates]
    layers = {
        "protocol.read_ms": (stats.mean([r[1] for r in reads]) * 1e3, "ms"),
        "protocol.write_ms": (stats.mean([r[1] for r in writes]) * 1e3, "ms"),
        "protocol.bytes_in": (stats.mean([r[2] for r in reads]), "B"),
        "protocol.bytes_out": (stats.mean([r[2] for r in writes]), "B"),
        "batcher.wait_ms": (parts["batcher.wait"], "ms"),
        "batcher.batch_size": (stats.hist_mean(deltas, "serve.batch.size"),
                               "count"),
        "batcher.dedup_ratio": (
            stats.counter(deltas, "serve.batch.deduped") / requests_n
            if requests_n else 0.0, "share"),
        "batcher.shed": (stats.counter(deltas, "serve.shed"), "count"),
        "artifacts.resolve_ms": (
            sum(r[3] for r in batches) * 1e3 / len(batches)
            if batches else 0.0, "ms"),
        "artifacts.fits": (stats.counter(deltas, "serve.artifacts.fits"),
                           "count"),
        "app.dispatch_ms": (dispatch, "ms"),
        "app.parse_ms": (parts["app.parse"], "ms"),
        "app.thread_hop_ms": (parts["app.thread_hop"], "ms"),
        "app.render_ms": (stats.mean([r[1] for r in renders]) * 1e3, "ms"),
        "app.residual_ms": (residual, "ms"),
        "client.overhead_ms": (client_ms - dispatch, "ms"),
        "vector.compile_ms": (stats.mean([r[1] for r in compiles]) * 1e3,
                              "ms"),
        "vector.compiles": (len(compiles), "count"),
        "vector.evaluate_ms": (stats.mean([r[1] for r in evaluates]) * 1e3,
                               "ms"),
        "vector.queries_per_sweep": (stats.mean(sweeps_q), "count"),
        "cache.plan_hit_ratio": (
            plan_hits / (plan_hits + plan_misses)
            if plan_hits + plan_misses else 0.0, "share"),
        "cache.render_hit_ratio": (
            render_hits / (render_hits + rendered)
            if render_hits + rendered else 0.0, "share"),
        "layers.explained_share": (timed / dispatch if dispatch else 0.0,
                                   "share"),
        "trace.ops_delta_per_s": (traced_ops - untraced_ops, "1/s"),
        "client.cpu_ms_per_op": (
            load.client_cpu_s * 1e3 / load.completed, "ms"),
    }

    def body_bytes(n_queries: int) -> float:
        return size_of.get(n_queries, 0.0)

    fits = [
        _fit("protocol.read_ms", [r[2] for r in reads],
             [r[1] * 1e3 for r in reads]),
        _fit("vector.compile_ms", [body_bytes(r[2]) for r in compiles],
             [r[1] * 1e3 for r in compiles]),
        _fit("vector.evaluate_ms",
             [sum(body_bytes(n) for n in r[2]) for r in evaluates],
             [r[1] * 1e3 for r in evaluates]),
        _fit("app.render_ms", [body_bytes(r[2]) for r in renders],
             [r[1] * 1e3 for r in renders]),
    ]
    return layers, breakdown, fits, sum_ok
