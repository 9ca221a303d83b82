"""The ``campaign`` workload: Figs. 6-8 collective sweeps on the sim
engine, in their own processes, bypassing the serving stack.

Every campaign process is started with ``campaign_child.py`` and timed
from spawn to ``ready``; ``setup_s`` is the median over all of them,
ten of which are started only for that.

The timed phase runs two campaign processes at once, one per CPU of a
2-CPU host, each running campaigns of seed S back to back until
``--seconds`` have passed and at least three have run.  Every campaign
of one seed does the same work, cut into the same segments: 48 sweep
points and the gaps between them (each figure's characterize -> derive
step, the runtime's own work).  Each segment's time is the fastest of
its repetitions in the run, over both processes, and the figures come
from those: ``ops_per_s`` is the points of a campaign over the sum of
its fastest segments, and the latencies are percentiles of the 48
fastest point times.  The host is a shared VM whose cores run the same
work up to 1.6x slower for seconds at a time, each core on its own;
best-of-N per segment reads the program's cost on the run's calmest
moments on either core, as the predict workloads read it on their
calmest slices, and a change in the program moves every repetition.
The plain all-campaigns throughput is in the record.

After the window one process runs Fig. 8 alone with seed S + 1
(untimed).  The rows double as the output check: every campaign of
seed S must give byte-identical rows, figure by figure, and seed
S + 1's Fig. 8 rows must differ from seed S's, so the seed reaches the
program.

With ``--trace 1`` a second phase runs a traced process T and an
untraced process U at once, one campaign of seed S each: T gives the
per-layer numbers, T against U the tracing overhead, and T's rows must
equal seed S's (tracing does not change results).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from typing import Dict, List, Optional

import stats
from procs import wait_line

#: Episodes per sweep point (the paper's boxplots use more; 10 keeps a
#: campaign near 10 s on a 2-CPU host while every layer still runs).
#: Fewer would not shorten it much: the baselines run at least 10
#: episodes a point and each figure's characterization is fixed.
ITERATIONS = 10
#: Campaigns per timed window at least: every segment's best-of-N
#: needs a few repetitions to find a calm moment.
MIN_REPS = 3
#: Layer-sum tolerance: the untimed remainder (thread pinning, sample
#: statistics, the scheduler's bookkeeping) may be at most this share of
#: the campaign wall time.
RESIDUAL_TOLERANCE = 0.10
OVERSHOOT = 0.02
#: Processes started only to sample set-up time.
SETUP_ONLY_SPAWNS = 10


class Child:
    def __init__(self, ctx, name: str, seed: int, min_reps: int,
                 seconds: float, trace: bool,
                 check_seed: Optional[int] = None) -> None:
        argv = [sys.executable, os.path.join(ctx.here, "campaign_child.py"),
                str(seed), str(min_reps), str(ITERATIONS), repr(seconds),
                "1" if trace else "0"]
        if check_seed is not None:
            argv.append(str(check_seed))
        t0 = time.monotonic()
        self.proc = ctx.children.spawn(argv, ctx.env, ctx.root, ctx.log(name),
                                       stdin=subprocess.PIPE)
        wait_line(self.proc, b"ready", 120.0)
        self.setup_s = time.monotonic() - t0
        self.ctx = ctx

    def go(self) -> None:
        self.proc.stdin.write(b"go\n")
        self.proc.stdin.flush()

    def result(self) -> dict:
        line = wait_line(self.proc, b"result ", 170.0)
        self.ctx.children.stop(self.proc)
        return dict(json.loads(line.split(b" ", 1)[1]),
                    setup_s=self.setup_s)


def _together(children: List[Child]) -> List[dict]:
    """Set started children going at once; their results."""
    for child in children:
        child.go()
    return [child.result() for child in children]


def fastest_segments(reps: List[dict]):
    """Per segment, the fastest time [s] over ``reps``: (points, gaps)."""
    shapes = {(len(r["point_s"]), len(r["gap_s"])) for r in reps}
    if len(shapes) != 1:
        raise RuntimeError(f"campaigns of one seed cut into different "
                           f"segments: {sorted(shapes)}")
    return ([min(seg) for seg in zip(*(r["point_s"] for r in reps))],
            [min(seg) for seg in zip(*(r["gap_s"] for r in reps))])


def run(ctx, seed: int, seconds: float, trace: bool):
    setups = []
    for i in range(SETUP_ONLY_SPAWNS):
        spare = Child(ctx, f"campaign-setup-{i}", seed, 1, 0.0, trace=False)
        setups.append(spare.setup_s)
        ctx.children.stop(spare.proc)
    timed = _together([
        Child(ctx, "campaign-p", seed, MIN_REPS, seconds, False,
              check_seed=seed + 1),
        Child(ctx, "campaign-q", seed, MIN_REPS, seconds, False),
    ])
    children = list(timed)
    traced = untraced = None
    if trace:
        traced, untraced = _together([
            Child(ctx, "campaign-traced", seed, 1, 0.0, True),
            Child(ctx, "campaign-untraced", seed, 1, 0.0, False),
        ])
        children += [traced, untraced]
    setups += [c["setup_s"] for c in children]

    reps = [r for c in timed for r in c["reps"]]
    check = timed[0]["check"]
    same_seed = {json.dumps(r["rows_sha256"], sort_keys=True)
                 for c in children for r in c["reps"]}
    same_seed_ok = len(same_seed) == 1
    other_seed_ok = (check["rows_sha256"]["fig8"]
                     != reps[0]["rows_sha256"]["fig8"])
    failed_tasks = sum(r["failed_tasks"]
                       for c in children for r in c["reps"] + [c["check"]]
                       if r is not None)
    point_s, gap_s = fastest_segments(reps)
    points = reps[0]["points"]
    if not points or len(point_s) != points:
        raise RuntimeError(f"{len(point_s)} timed sweep points for "
                           f"{points} rows")
    campaign_s = sum(point_s) + sum(gap_s)
    attempted = points * len(reps) + 2
    failed = failed_tasks + (not same_seed_ok) + (not other_seed_ok)
    lat_ms = [t * 1e3 for t in point_s]
    metrics = {
        "ops_per_s": (points / campaign_s, "1/s"),
        "latency_p50_ms": (stats.percentile(lat_ms, 50), "ms"),
        "latency_p95_ms": (stats.percentile(lat_ms, 95), "ms"),
        "setup_s": (stats.median(setups), "s"),
        "peak_rss_mb": (max(c["peak_rss_kb"] for c in timed) / 1024.0,
                        "MB"),
    }
    walls = [r["wall_s"] for r in reps]
    record: Dict[str, object] = {
        "iterations": ITERATIONS,
        "campaigns": len(reps),
        "campaign_walls_s": walls,
        "campaign_figures_s": [r["figure_s"] for r in reps],
        "fastest_campaign_s": campaign_s,
        "ops_per_s_all_campaigns": points * len(reps) / sum(walls),
        "points": points,
        "latency_samples": len(lat_ms),
        "fastest_points_ms": lat_ms,
        "failed_share": failed / attempted,
        "same_seed_identical": same_seed_ok,
        "other_seed_differs": other_seed_ok,
        "setup_samples_s": setups,
        "program_counters": timed[0]["counters"],
    }
    checks_ok = True
    if traced is not None:
        (u,) = untraced["reps"]
        layers, breakdown, sum_ok = campaign_layers(
            traced, u["points"] / u["wall_s"])
        metrics = layers
        record["layer_breakdown_ms"] = breakdown
        record["layer_sum_ok"] = sum_ok
        checks_ok = sum_ok
    return {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and checks_ok,
        "metrics": metrics,
        "record": record,
    }


def campaign_layers(traced: dict, untraced_ops: float):
    """Per-layer totals [ms per campaign] of the traced child, and
    whether they sum to its campaign wall time within tolerance."""
    (rep,) = traced["reps"]
    wall = rep["wall_s"] * 1e3
    layers_ms = {k: v * 1e3 for k, v in traced["layers_s"].items()}
    runtime_ms = (rep["wall_s"] - sum(rep["figure_s"])) * 1e3
    timed = sum(layers_ms.values()) + runtime_ms
    residual = wall - timed
    breakdown = dict(layers_ms, **{"runtime.overhead": runtime_ms,
                                   "campaign.residual": residual,
                                   "campaign.wall": wall})
    sum_ok = -OVERSHOOT * wall <= residual <= RESIDUAL_TOLERANCE * wall
    ops = traced["sim_ops"]
    layers = {
        "machine.build_ms": (layers_ms["machine.build"], "ms"),
        "bench.characterize_ms": (layers_ms["bench.characterize"], "ms"),
        "bench.samples": (traced["counters"].get("bench.samples", 0),
                          "count"),
        "model.derive_ms": (layers_ms["model.derive"], "ms"),
        "algorithms.plan_ms": (layers_ms["algorithms.plan"], "ms"),
        "algorithms.build_ms": (layers_ms["algorithms.build"], "ms"),
        "sim.run_ms": (layers_ms["sim.run"], "ms"),
        "sim.runs": (traced["sim_runs"], "count"),
        "sim.host_us_per_op": (
            layers_ms["sim.run"] * 1e3 / ops if ops else 0.0, "us"),
        "runtime.overhead_ms": (runtime_ms, "ms"),
        "campaign.residual_ms": (residual, "ms"),
        "layers.explained_share": (timed / wall, "share"),
        "trace.ops_delta_per_s": (rep["points"] / rep["wall_s"]
                                  - untraced_ops, "1/s"),
    }
    return layers, breakdown, sum_ok
