"""The virtual-time engine.

Threads are advanced in global virtual-time order (a heap keyed by each
thread's clock), one op at a time.  Flags implement the happens-before
edges: a :class:`PollFlag` blocks until the writer's clock reaches the
corresponding :class:`WriteFlag`, then pays the machine's cost for
pulling the flag line (plus payload) — with queueing when several pollers
hit the same flag, following the measured contention model
``T_C(N) = α + β·N``.

Processing in clock order makes contention ranks consistent: when a
poller starts its transfer, every transfer that started earlier in
virtual time has already been registered.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.machine.coherence import MESIF
from repro.machine.machine import KNLMachine
from repro.sim.trace import Trace, TraceEvent
from repro.sim.program import (
    Compute,
    CopyFrom,
    Delay,
    LocalCopy,
    MemRead,
    MemWrite,
    Op,
    PollFlag,
    Program,
    WriteFlag,
)
from repro.units import CACHE_LINE_BYTES, lines_in


@dataclass
class _FlagState:
    set_time: Optional[float] = None
    writer_core: Optional[int] = None
    #: Finish time of the latest transfer in the contention queue.
    queue_tail: float = -np.inf
    #: Number of transfers served so far (for rank accounting).
    served: int = 0
    #: Threads blocked waiting for the flag.
    waiters: List[int] = field(default_factory=list)


@dataclass(frozen=True)
class RunResult:
    """Outcome of one engine run."""

    finish_ns: Mapping[int, float]
    flag_set_ns: Mapping[str, float]
    #: Present when the engine ran with ``record_trace=True``.
    trace: Optional[Trace] = None

    @property
    def makespan_ns(self) -> float:
        """Time when the last thread finished."""
        return max(self.finish_ns.values())

    def finish_of(self, thread: int) -> float:
        return self.finish_ns[thread]


class Engine:
    """Runs a set of per-thread programs to completion on a machine."""

    def __init__(
        self,
        machine: KNLMachine,
        noisy: bool = True,
        record_trace: bool = False,
    ) -> None:
        self.machine = machine
        self.noisy = noisy
        self.record_trace = record_trace

    # ------------------------------------------------------------------

    def run(self, programs: Sequence[Program]) -> RunResult:
        from repro.obs import counter

        counter("sim.runs").inc()
        threads = [p.thread for p in programs]
        if len(set(threads)) != len(threads):
            raise SimulationError("duplicate thread ids in program set")
        # Run state lives in locals: the programs are only read, so one
        # program list can be rerun episode after episode, and one Engine
        # holds no per-run state.
        ops_of: Dict[int, List[Op]] = {p.thread: p.ops for p in programs}
        # Each thread's core, resolved once per run rather than per op.
        core_of = self.machine.topology.core_of_thread
        cores: Dict[int, int] = {t: core_of(t) for t in threads}
        clock: Dict[int, float] = {t: 0.0 for t in threads}
        pc: Dict[int, int] = {t: 0 for t in threads}
        flags: Dict[str, _FlagState] = {}
        finished: Dict[int, float] = {}

        record = self.record_trace
        noisy = self.noisy
        op_cost = self._op_cost
        serve_poll = self._serve_poll
        visibility_ns = self.machine.flag_visibility_ns
        push, pop = heapq.heappush, heapq.heappop

        # Heap of (clock, tiebreak, thread). Blocked threads leave the heap.
        events: List[TraceEvent] = []
        tick = itertools.count().__next__
        heap = [(0.0, tick(), t) for t in threads]
        heapq.heapify(heap)
        blocked: Dict[int, str] = {}  # thread -> flag name it waits on

        while heap:
            now, _, t = pop(heap)
            if now != clock[t]:
                continue  # stale entry
            ops = ops_of[t]
            i = pc[t]
            if i >= len(ops):
                finished[t] = now
                continue
            op = ops[i]
            kind = type(op)
            if kind is PollFlag:
                st = flags.get(op.flag)
                if st is None:
                    st = flags[op.flag] = _FlagState()
                if st.set_time is None:
                    blocked[t] = op.flag
                    st.waiters.append(t)
                    continue
                finish = serve_poll(st, op, cores[t], now)
                if record:
                    events.append(TraceEvent(
                        t, i, op, max(now, st.set_time), finish
                    ))
                clock[t] = finish
                pc[t] = i + 1
                push(heap, (finish, tick(), t))
                continue

            done = now + op_cost(op, cores[t])
            if record:
                events.append(TraceEvent(t, i, op, now, done))
            clock[t] = done
            pc[t] = i + 1
            if kind is WriteFlag:
                st = flags.get(op.flag)
                if st is None:
                    st = flags[op.flag] = _FlagState()
                if st.set_time is not None:
                    raise SimulationError(
                        f"flag {op.flag!r} written twice (by thread {t})"
                    )
                st.set_time = done + visibility_ns(
                    op.n_pollers, op.cold, noisy=noisy
                )
                st.writer_core = cores[t]
                if st.waiters:
                    # Wake waiters in their arrival (clock) order.  A wide
                    # wake (broadcast fan-out) batches all waiters' noise
                    # draws through one array kernel; a single waiter
                    # takes the scalar path.
                    waking = sorted(st.waiters, key=clock.__getitem__)
                    st.waiters.clear()
                    wops = [ops_of[w][pc[w]] for w in waking]
                    if len(waking) > 1:
                        finishes = self._serve_poll_batch(
                            st, [(cores[w], wop, clock[w])
                                 for w, wop in zip(waking, wops)]
                        )
                    else:
                        w, wop = waking[0], wops[0]
                        finishes = [serve_poll(st, wop, cores[w], clock[w])]
                    for w, wop, finish in zip(waking, wops, finishes):
                        assert type(wop) is PollFlag and wop.flag == op.flag
                        if record:
                            events.append(TraceEvent(
                                w, pc[w], wop, max(clock[w], st.set_time),
                                finish,
                            ))
                        clock[w] = finish
                        pc[w] += 1
                        del blocked[w]
                        push(heap, (finish, tick(), w))
            push(heap, (done, tick(), t))

        if blocked:
            missing = sorted(set(blocked.values()))
            raise SimulationError(
                f"deadlock: threads {sorted(blocked)} wait on flags never "
                f"written: {missing}"
            )
        # Threads that ran off the end of their op list inside the loop are
        # already in `finished`; catch any zero-op programs too.
        for t in threads:
            finished.setdefault(t, clock[t])
        trace = Trace(events) if record else None
        if trace is not None:
            self._publish_trace(trace)
        return RunResult(
            finish_ns=finished,
            flag_set_ns={
                name: st.set_time
                for name, st in flags.items()
                if st.set_time is not None
            },
            trace=trace,
        )

    def _publish_trace(self, trace: Trace) -> None:
        """Export hook: attach the finished virtual-time trace to the
        process-global tracer (a no-op unless tracing is enabled), so a
        ``--trace`` run exports sim timelines on their own clock track.
        """
        from repro.obs import counter, get_tracer

        tracer = get_tracer()
        if not tracer.enabled:
            return
        counter("sim.ops.traced").inc(len(trace))
        tracer.add_sim_trace(
            trace, label=f"{self.machine.config.label()}/{len(trace)}ops"
        )

    # ------------------------------------------------------------------

    def _serve_poll(
        self, st: _FlagState, op: PollFlag, reader: int, arrival: float
    ) -> float:
        """Completion time of a poller's transfer (flag + payload).

        The first reader pays the plain cache-to-cache cost; readers whose
        transfer overlaps an in-flight one queue at β per reader, so N
        simultaneous pollers complete at ``set + α + iβ`` — the measured
        T_C shape.
        """
        m = self.machine
        start = max(arrival, st.set_time)
        base = m.flag_read_ns(reader, st.writer_core, noisy=self.noisy)
        if op.payload_bytes > CACHE_LINE_BYTES:
            extra_lines = lines_in(op.payload_bytes) - 1
            bw = m._multiline_plateau_bw(  # noqa: SLF001 - engine is a friend
                reader, op.payload_state, st.writer_core, "copy", True
            )
            base += extra_lines * CACHE_LINE_BYTES / bw
        solo_finish = start + base
        if st.served == 0 or st.queue_tail <= start:
            finish = solo_finish
        else:
            beta = m.calibration.contention_beta
            if self.noisy:
                beta = m.noise.jitter_only(beta)
            finish = max(solo_finish, st.queue_tail + beta)
        st.queue_tail = finish
        st.served += 1
        return finish

    def _serve_poll_batch(
        self, st: _FlagState, wakes: List[tuple]
    ) -> List[float]:
        """Array-kernel twin of :meth:`_serve_poll` for a whole wake of
        ``(reader core, op, arrival)`` triples: per-waiter solo costs are
        drawn in one vectorized noise call, the contention-queue
        recurrence folds over the results
        (:func:`repro.sim.kernels.flag_wake_finishes`)."""
        from repro.sim.kernels import flag_wake_finishes

        m = self.machine
        starts: List[float] = []
        base_true: List[float] = []
        extra: List[float] = []
        for reader, op, arrival in wakes:
            assert isinstance(op, PollFlag)
            starts.append(max(arrival, st.set_time))
            base_true.append(
                m.line_transfer_true_ns(reader, MESIF.MODIFIED, st.writer_core)
            )
            if op.payload_bytes > CACHE_LINE_BYTES:
                extra_lines = lines_in(op.payload_bytes) - 1
                bw = m._multiline_plateau_bw(  # noqa: SLF001 - friend
                    reader, op.payload_state, st.writer_core, "copy", True
                )
                extra.append(extra_lines * CACHE_LINE_BYTES / bw)
            else:
                extra.append(0.0)
        finishes, st.queue_tail, st.served = flag_wake_finishes(
            m, starts, base_true, extra, st.queue_tail, st.served, self.noisy
        )
        return finishes

    def _op_cost(self, op: Op, core: int) -> float:
        """Cost [ns] of one non-poll op on ``core``.  Op types are final,
        so an exact type test picks the branch."""
        m = self.machine
        noisy = self.noisy
        kind = type(op)
        if kind is WriteFlag:
            return m.flag_write_ns(op.n_pollers, noisy=noisy)
        if kind is Delay:
            return op.ns if not noisy else m.noise.jitter_only(op.ns)
        if kind is Compute:
            value = lines_in(op.nbytes) * op.ns_per_line
            return value if not noisy else m.noise.jitter_only(value)
        if kind is LocalCopy:
            return m.multiline_ns(
                core, op.nbytes, MESIF.EXCLUSIVE, core, "copy", noisy=noisy
            )
        if kind is CopyFrom:
            return m.multiline_ns(
                core, op.nbytes, op.state, op.owner_core, "copy",
                vectorized=op.vectorized, noisy=noisy,
            )
        if kind is MemRead:
            lat = m.memory_latency_ns(core, kind=op.kind, noisy=noisy)
            stream = op.nbytes / 8.0  # single-thread ~8 GB/s (§V-B)
            return lat + (m.noise.jitter_only(stream) if noisy else stream)
        if kind is MemWrite:
            bw = 8.0 if op.nt else 8.0 * 0.52
            stream = op.nbytes / bw
            return (m.noise.jitter_only(stream) if noisy else stream)
        raise SimulationError(f"unknown op {op!r}")
