"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload predict-repeat --seed 1 \\
        --seconds 10 --trace 0

Run from the root of a source checkout.  Workloads (perfbench/README.md
says why each exists): ``predict-repeat`` and ``predict-unique`` drive
``repro serve`` over HTTP from this process; ``campaign`` runs the
Figs. 6-8 collective sweeps in a child process.  Inputs come from
``--seed`` alone.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` adds a
traced run and prints the per-layer metrics instead.  Either way the
last stdout line is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``; the lines before it give every metric by name
and unit and the run record.  Every child runs in its own process
group and is torn down on every exit path; a run that leaves one alive
exits non-zero without a result.  Scratch files live in a temporary
directory inside the checkout, removed at exit.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from importlib import metadata  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402
from procs import Children, install_signal_handlers, log  # noqa: E402

WORKLOADS = ("predict-repeat", "predict-unique", "campaign")
TMP_ROOT = ".perfbench_tmp"


class Context:
    """Where a run's children live: checkout root, scratch dir, env."""

    def __init__(self, root: str, tmp: str, children: Children) -> None:
        self.root = root
        self.here = HERE
        self.tmp = tmp
        self.children = children
        env = {k: v for k, v in os.environ.items()
               if not k.startswith(("REPRO_", "PYTHON"))}
        env.update(
            PYTHONPATH=os.path.join(root, "src"),
            PYTHONDONTWRITEBYTECODE="1",
            REPRO_CACHE_DIR=os.path.join(tmp, "cache"),
            TMPDIR=tmp,
        )
        self.env = env

    def log(self, name: str) -> str:
        return os.path.join(self.tmp, f"{name}.stderr")


def _source_digest(root: str) -> str:
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def _git_rev(root: str) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "none (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
        return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _host_record(root: str, args) -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "not installed"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host_cpus": len(os.sched_getaffinity(0)),
        "host_cpus_online": os.cpu_count(),
        "git_rev": _git_rev(root),
        "src_sha256": _source_digest(root),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def _declared_metrics(root: str, trace: bool) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def _run_workload(ctx: Context, args) -> dict:
    if args.workload == "campaign":
        import campaign

        return campaign.run(ctx, args.seed, args.seconds, bool(args.trace))
    import serving

    return serving.run(ctx, args.workload, args.seed, args.seconds,
                       bool(args.trace))


def _finish(out: dict, declared: dict) -> dict:
    """The result object: every declared metric, by name and unit.

    A per-layer metric of a layer this workload never enters (a serving
    layer on ``campaign``, a sim layer on a predict workload) is 0.
    """
    metrics = {}
    for name, unit in declared.items():
        value, got_unit = out["metrics"].get(name, (0.0, unit))
        if got_unit != unit:
            raise RuntimeError(f"{name}: unit {got_unit!r}, declared {unit!r}")
        metrics[name] = {"value": value, "unit": unit}
    extra = set(out["metrics"]) - set(declared)
    if extra:
        raise RuntimeError(f"undeclared metrics {sorted(extra)}")
    return {
        "correct": bool(out["correct"]),
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        log(f"no repro source tree under {root}/src; run from a checkout")
        return 2
    declared = _declared_metrics(root, bool(args.trace))

    install_signal_handlers()
    tmp_root = os.path.join(root, TMP_ROOT)
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    children = Children()
    ctx = Context(root, tmp, children)
    result = None
    code = 1
    try:
        record = _host_record(root, args)
        ticks0 = stats.cpu_ticks()
        out = _run_workload(ctx, args)
        ticks1 = stats.cpu_ticks()
        record.update(out["record"])
        if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
            record["host_steal_share"] = (
                (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1]))
        result = _finish(out, declared)
        code = 0
    except KeyboardInterrupt as e:
        log(f"interrupted ({e or 'SIGINT'}); tearing down")
        code = 130
    except Exception:  # noqa: BLE001 — report, tear down, exit non-zero
        traceback.print_exc()
        code = 1
    finally:
        children.stop_all()
        survivors = children.survivors()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass  # another run's scratch dir is still there
    if survivors:
        log(f"process groups still alive after teardown: {survivors}")
        return 3
    if result is None:
        return code

    for name, m in result["metrics"].items():
        print(f"{name:28s} {m['value']:>16.6f} {m['unit']}")
    print(f"{'failed_share':28s} {record['failed_share']:>16.6f} share")
    for fit in record.get("layer_fits", ()):
        if fit.get("alpha_ms") is None:
            print(f"fit {fit['layer']}: {fit['samples']} samples, no fit")
        else:
            print(f"fit {fit['layer']} = {fit['alpha_ms']:.4f} ms + "
                  f"{fit['beta_ms_per_kb']:.5f} ms/KB * size "
                  f"(n={fit['samples']}, r2={fit['r2']:.3f})")
    if record.get("client_saturated"):
        print("WARNING: the load client saturated a core; latencies of "
              "this run measure the client, not the server")
    if record.get("host_noisy"):
        print("WARNING: the hypervisor stole CPU time even in the calmest "
              "slices; this run measures the host as much as the program")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
