"""One campaign process: the Figs. 6-8 collective sweeps, run through
the public runtime entry point.

Usage: ``python perfbench/campaign_child.py SEED MIN_REPS ITERATIONS
SECONDS TRACE [CHECK_SEED]``

Protocol on stdout: ``ready`` once the runtime is imported (and, traced,
the wrappers installed); then, after reading ``go`` on stdin, it runs
campaigns of ``SEED`` back to back until ``SECONDS`` of campaign time
have passed and ``MIN_REPS`` have run, then, if ``CHECK_SEED`` is
given, Fig. 8 alone with that seed (untimed: it only shows that the
seed reaches the program), and prints ``result {json}``.  Each campaign is
``execute(plan_run(["fig6", "fig7", "fig8"], kwargs={iterations, seed},
no_cache=True))``, one job, in this process.

Every campaign is cut into segments at sweep-point boundaries: a point
runs from its ``pin_threads`` call to the return of its last
``run_episodes`` (tuned, OpenMP-style and MPI-style episodes), and the
gaps between points hold each figure's characterize -> derive step and
the runtime's own work.  The same seed gives the same segments, so the
parent can compare each one across campaigns.

With ``TRACE`` = 1 the layer entry points the sweeps call are wrapped:
``KNLMachine`` construction, ``characterize``, ``derive_capability_model``,
the tuned planners, the program builders, ``Engine.run``.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time

clock = time.monotonic


class Recorder:
    """Layer times [s] of the traced campaign, summed over the run."""

    def __init__(self) -> None:
        self.layers = {
            "machine.build": 0.0,
            "bench.characterize": 0.0,
            "model.derive": 0.0,
            "algorithms.plan": 0.0,
            "algorithms.build": 0.0,
            "sim.run": 0.0,
        }
        self.sim_ops = 0
        self.sim_runs = 0

    def timed(self, layer, fn):
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.layers[layer] += clock() - t0

        return wrapper

    def install(self) -> None:
        from repro.experiments import _collectives as coll
        from repro.sim.engine import Engine

        coll.KNLMachine = self.timed("machine.build", coll.KNLMachine)
        coll.characterize = self.timed("bench.characterize", coll.characterize)
        coll.derive_capability_model = self.timed(
            "model.derive", coll.derive_capability_model
        )
        for name in ("tune_barrier", "plan_broadcast", "plan_reduce"):
            setattr(coll, name, self.timed("algorithms.plan",
                                           getattr(coll, name)))
        run_episodes = coll.run_episodes

        def traced_run_episodes(machine, build, iterations, *args, **kw):
            return run_episodes(
                machine, self.timed("algorithms.build", build), iterations,
                *args, **kw
            )

        coll.run_episodes = traced_run_episodes
        engine_run = Engine.run
        recorder = self

        def traced_engine_run(engine, programs):
            t0 = clock()
            try:
                return engine_run(engine, programs)
            finally:
                recorder.layers["sim.run"] += clock() - t0
                recorder.sim_runs += 1
                recorder.sim_ops += sum(len(p) for p in programs)

        Engine.run = traced_engine_run


class PointClock:
    """Start and end stamps of every sweep point of the current campaign."""

    def __init__(self) -> None:
        self.points = []

    def install(self) -> None:
        from repro.experiments import _collectives as coll

        pin_threads, run_episodes = coll.pin_threads, coll.run_episodes
        points = self.points

        def stamped_pin_threads(*args, **kwargs):
            points.append([clock(), None])
            return pin_threads(*args, **kwargs)

        def stamped_run_episodes(*args, **kwargs):
            try:
                return run_episodes(*args, **kwargs)
            finally:
                points[-1][1] = clock()

        coll.pin_threads = stamped_pin_threads
        coll.run_episodes = stamped_run_episodes

    def segments(self, t0: float, t1: float):
        """(point times, gap times) [s]: gap k precedes point k, and the
        last gap runs from the last point's end to ``t1``."""
        points = self.points[:]
        self.points.clear()
        ends = [t0] + [end for _, end in points]
        starts = [start for start, _ in points] + [t1]
        return ([end - start for start, end in points],
                [start - end for end, start in zip(ends, starts)])


FIGURES = ("fig6", "fig7", "fig8")


def campaign(seed: int, iterations: int, points: PointClock,
             figures=FIGURES) -> dict:
    from repro.runtime import execute, plan_run

    t0 = clock()
    report = execute(plan_run(
        list(figures),
        kwargs={"iterations": iterations, "seed": seed},
        no_cache=True,
        progress=False,
    ))
    t1 = clock()
    point_s, gap_s = points.segments(t0, t1)
    rows = [o.result.rows if o.ok else None for o in report.outcomes]
    return {
        "seed": seed,
        "wall_s": t1 - t0,
        "figure_s": [o.duration_s for o in report.outcomes],
        "point_s": point_s,
        "gap_s": gap_s,
        "points": sum(len(r) for r in rows if r is not None),
        "failed_tasks": sum(1 for o in report.outcomes if not o.ok),
        "rows_sha256": {
            fig: hashlib.sha256(
                json.dumps(r, sort_keys=True).encode()
            ).hexdigest()
            for fig, r in zip(figures, rows)
        },
    }


def main(argv) -> int:
    seed, min_reps, iterations = int(argv[0]), int(argv[1]), int(argv[2])
    seconds, trace = float(argv[3]), argv[4] == "1"
    check_seed = int(argv[5]) if len(argv) > 5 else None
    from repro.obs import metrics_snapshot
    import repro.runtime  # noqa: F401 — set-up ends once it is imported

    recorder = Recorder()
    if trace:
        recorder.install()
    points = PointClock()
    points.install()
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 2

    reps = []
    spent = 0.0
    while len(reps) < min_reps or spent < seconds:
        reps.append(campaign(seed, iterations, points))
        spent += reps[-1]["wall_s"]
    check = None
    if check_seed is not None:
        check = campaign(check_seed, iterations, points, ("fig8",))

    counters = {
        name: m.get("value") for name, m in metrics_snapshot().items()
        if m.get("type") == "counter"
    }
    result = {
        "reps": reps,
        "check": check,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "counters": counters,
    }
    if trace:
        result["layers_s"] = recorder.layers
        result["sim_runs"] = recorder.sim_runs
        result["sim_ops"] = recorder.sim_ops
    print("result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
