"""``repro serve`` with timing wrappers around each serving layer.

Usage: ``python perfbench/serve_traced.py TRACE_OUT [repro serve flags]``

The program is unchanged: this launcher wraps the entry points the
server calls into each layer, from outside, then runs the real
``main_serve``.  When the server has drained (SIGTERM), the recorded
events are written to ``TRACE_OUT`` as JSON.  Every event carries its
end time on ``time.monotonic()``, the clock the load client uses for
its timed window, so warm-up events can be dropped afterwards.

Layers wrapped (name as bound where the server calls it):

* ``serve.app.read_request`` / ``write_response`` — protocol; the
  reader and writer are proxied to count bytes, and read time starts
  when the request head has arrived (idle keep-alive wait excluded);
* ``MicroBatcher.submit`` and ``ServeApp._evaluate_batch`` — batch wait
  and the batch each request rode (the batcher binds the evaluator at
  construction, so the class is patched before the app exists);
* ``ArtifactRegistry.get`` — artifact resolution;
* ``json.loads`` while a batch evaluates — the body parse;
* ``asyncio.to_thread`` while a batch evaluates — the hand-off to the
  evaluator thread and back (the work inside is timed by the layers
  below, not here);
* ``serve.app.compile_queries`` / ``evaluate_plan_values`` — the
  vectorized predict path;
* ``_PlanEntry`` construction (the response's pre-rendered JSON
  skeleton) and ``_PlanEntry.render`` — rendering.

Per request, the batch's layer times are charged in proportion to the
part of the batch the request waited through, so per-request layer
times add up to the request's time inside the batcher.
"""

from __future__ import annotations

import asyncio
import contextvars
import json
import sys
import time

from repro.serve import app as app_mod
from repro.serve.artifacts import ArtifactRegistry
from repro.serve.batcher import MicroBatcher

clock = time.monotonic

EVENTS = {
    # (end, read_s, bytes_in)
    "reads": [],
    # (end, write_s, bytes_out)
    "writes": [],
    # (end, submit_s, wait_s, resolve_s, parse_s, hop_s, compile_s,
    #  evaluate_s, render_s), the batch's layer times charged to this request
    "requests": [],
    # (end, size, duration_s, resolve_s, parse_s, hop_s, compile_s,
    #  evaluate_s, render_s)
    "batches": [],
    # (end, compile_s, n_queries)
    "compiles": [],
    # (end, evaluate_s, [n_queries per plan])
    "evaluates": [],
    # (end, render_s, n_values); skeleton builds are charged to the
    # batch's render time but not listed here
    "renders": [],
}

#: Layer-time accumulator [resolve, parse, hop, compile, evaluate, render]
#: of the batch the current task (or its evaluator thread) is working on.
_batch_acc: contextvars.ContextVar = contextvars.ContextVar("batch_acc")
#: key -> (start, end, accumulator) of the last batch that evaluated it.
_last_batch = {}

_RESOLVE, _PARSE, _HOP, _COMPILE, _EVALUATE, _RENDER = range(6)


def _charge(slot: int, seconds: float) -> None:
    acc = _batch_acc.get(None)
    if acc is not None:
        acc[slot] += seconds


class _TimedReader:
    __slots__ = ("_reader", "head_at", "nbytes")

    def __init__(self, reader) -> None:
        self._reader = reader
        self.head_at = None
        self.nbytes = 0

    async def readuntil(self, separator):
        data = await self._reader.readuntil(separator)
        self.head_at = clock()
        self.nbytes += len(data)
        return data

    async def readexactly(self, n):
        data = await self._reader.readexactly(n)
        self.nbytes += len(data)
        return data


class _CountingWriter:
    __slots__ = ("_writer", "nbytes")

    def __init__(self, writer) -> None:
        self._writer = writer
        self.nbytes = 0

    def write(self, data) -> None:
        self.nbytes += len(data)
        self._writer.write(data)

    async def drain(self) -> None:
        await self._writer.drain()


def _install() -> None:
    read_request = app_mod.read_request
    write_response = app_mod.write_response
    submit = MicroBatcher.submit
    evaluate_batch = app_mod.ServeApp._evaluate_batch
    registry_get = ArtifactRegistry.get
    compile_queries = app_mod.compile_queries
    evaluate_plan_values = app_mod.evaluate_plan_values
    render = app_mod._PlanEntry.render
    plan_entry_init = app_mod._PlanEntry.__init__
    loads = json.loads
    to_thread = asyncio.to_thread

    async def timed_read_request(reader):
        proxy = _TimedReader(reader)
        request = await read_request(proxy)
        if request is not None and proxy.head_at is not None:
            end = clock()
            EVENTS["reads"].append((end, end - proxy.head_at, proxy.nbytes))
        return request

    async def timed_write_response(writer, response, keep_alive=True):
        proxy = _CountingWriter(writer)
        t0 = clock()
        await write_response(proxy, response, keep_alive=keep_alive)
        end = clock()
        EVENTS["writes"].append((end, end - t0, proxy.nbytes))

    async def timed_submit(self, key, payload):
        t0 = clock()
        result = await submit(self, key, payload)
        end = clock()
        batch = _last_batch.get(key)
        if batch is not None:
            start, stop, acc = batch
            duration = stop - start
            share = (stop - max(start, t0)) / duration if duration > 0 else 0.0
            EVENTS["requests"].append(
                (end, end - t0, max(0.0, start - t0),
                 *(x * share for x in acc))
            )
        return result

    async def timed_evaluate_batch(self, batch):
        acc = [0.0] * 6
        token = _batch_acc.set(acc)
        start = clock()
        try:
            return await evaluate_batch(self, batch)
        finally:
            stop = clock()
            _batch_acc.reset(token)
            for key in batch:
                _last_batch[key] = (start, stop, acc)
            EVENTS["batches"].append((stop, len(batch), stop - start, *acc))

    async def timed_get(self, config, content_key=None):
        t0 = clock()
        artifact = await registry_get(self, config, content_key)
        _charge(_RESOLVE, clock() - t0)
        return artifact

    def timed_loads(*args, **kwargs):
        acc = _batch_acc.get(None)
        if acc is None:
            return loads(*args, **kwargs)
        t0 = clock()
        try:
            return loads(*args, **kwargs)
        finally:
            acc[_PARSE] += clock() - t0

    async def timed_to_thread(func, /, *args, **kwargs):
        acc = _batch_acc.get(None)
        if acc is None:
            return await to_thread(func, *args, **kwargs)
        inside = {}

        def run():
            inside["start"] = clock()
            try:
                return func(*args, **kwargs)
            finally:
                inside["end"] = clock()

        called = clock()
        try:
            return await to_thread(run)
        finally:
            back = clock()
            acc[_HOP] += (inside.get("start", back) - called
                          + back - inside.get("end", back))

    def timed_compile(queries):
        t0 = clock()
        plan = compile_queries(queries)
        end = clock()
        _charge(_COMPILE, end - t0)
        EVENTS["compiles"].append((end, end - t0, plan.n_queries))
        return plan

    def timed_evaluate(cap, plans):
        t0 = clock()
        values = evaluate_plan_values(cap, plans)
        end = clock()
        _charge(_EVALUATE, end - t0)
        EVENTS["evaluates"].append(
            (end, end - t0, [p.n_queries for p in plans])
        )
        return values

    def timed_render(self, config_label, machine_name, values):
        t0 = clock()
        body = render(self, config_label, machine_name, values)
        end = clock()
        _charge(_RENDER, end - t0)
        EVENTS["renders"].append((end, end - t0, len(values)))
        return body

    def timed_plan_entry_init(self, plan, machine, config):
        t0 = clock()
        plan_entry_init(self, plan, machine, config)
        _charge(_RENDER, clock() - t0)

    app_mod.read_request = timed_read_request
    app_mod.write_response = timed_write_response
    MicroBatcher.submit = timed_submit
    app_mod.ServeApp._evaluate_batch = timed_evaluate_batch
    ArtifactRegistry.get = timed_get
    app_mod.compile_queries = timed_compile
    app_mod.evaluate_plan_values = timed_evaluate
    app_mod._PlanEntry.render = timed_render
    app_mod._PlanEntry.__init__ = timed_plan_entry_init
    json.loads = timed_loads
    asyncio.to_thread = timed_to_thread


def main(argv) -> int:
    trace_out, serve_argv = argv[0], argv[1:]
    _install()
    code = app_mod.main_serve(serve_argv)
    with open(trace_out, "w") as f:
        json.dump(EVENTS, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
