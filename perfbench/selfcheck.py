"""Self-check of the benchmark's process hygiene and failure modes.

    python3 perfbench/selfcheck.py

Run from the root of a source checkout.  Each case starts ``run.py``
in its own session and checks what it leaves behind:

* interrupted mid-load (SIGTERM, then SIGINT) on a serving workload and
  mid-campaign (SIGTERM): the run exits non-zero, prints no result, and
  no process group it announced — nor any process whose command line
  names its scratch directory — is still alive;
* a directory holding only ``BENCHMARK.json`` and ``perfbench/``: the
  run exits non-zero without printing a result.

Exits 0 when every case passes.
"""

from __future__ import annotations

import json
import os
import re
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)

import campaign  # noqa: E402
import serving  # noqa: E402
from run import TMP_ROOT, WORKLOADS  # noqa: E402


def _alive_groups(pgids):
    alive = []
    for pgid in pgids:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            continue
        alive.append(pgid)
    return alive


def _processes_naming(needle: str):
    """PIDs whose command line contains ``needle`` (Linux /proc)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as f:
                cmdline = f.read().replace(b"\0", b" ").decode(errors="replace")
        except OSError:
            continue
        if needle in cmdline:
            found.append(int(entry))
    return found


def _read_lines(proc, until: float):
    """Yield stderr lines of ``proc`` until it closes or ``until``."""
    buf = b""
    while time.monotonic() < until:
        ready, _, _ = select.select([proc.stderr], [], [],
                                    max(0.0, until - time.monotonic()))
        if not ready:
            continue
        chunk = os.read(proc.stderr.fileno(), 4096)
        if not chunk:
            return
        buf += chunk
        while b"\n" in buf:
            line, buf = buf.split(b"\n", 1)
            yield line.decode(errors="replace")


def interrupt_case(root: str, workload: str, sig: int, after_spawns: int,
                   delay_s: float) -> list:
    """Interrupt a run ``delay_s`` after its ``after_spawns``-th child
    started; return the problems found."""
    problems = []
    proc = subprocess.Popen(
        [sys.executable, RUN, "--workload", workload, "--seed", "1",
         "--seconds", "30", "--trace", "0"],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    pgids = []
    try:
        deadline = time.monotonic() + 120.0
        for line in _read_lines(proc, deadline):
            m = re.search(r"started pid=(\d+) pgid=(\d+)", line)
            if m:
                pgids.append(int(m.group(2)))
                if len(pgids) == after_spawns:
                    break
        if len(pgids) < after_spawns:
            problems.append(f"only {len(pgids)} child(ren) ever started")
        time.sleep(delay_s)
        os.kill(proc.pid, sig)
        try:
            stdout, _ = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            problems.append("run did not exit within 60 s of the signal")
            os.killpg(proc.pid, signal.SIGKILL)
            stdout, _ = proc.communicate()
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode == 0:
        problems.append("interrupted run exited 0")
    if stdout.strip().startswith(b"{") or b'"correct"' in stdout:
        problems.append("interrupted run printed a result")
    alive = _alive_groups(pgids)
    if alive:
        problems.append(f"process groups alive after exit: {alive}")
        for pgid in alive:
            os.killpg(pgid, signal.SIGKILL)
    stray = _processes_naming(os.path.join(root, TMP_ROOT))
    if stray:
        problems.append(f"processes naming the scratch dir: {stray}")
    return problems


def bare_directory_case(root: str) -> list:
    problems = []
    os.makedirs(os.path.join(root, TMP_ROOT), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(root, TMP_ROOT))
    try:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        for workload in WORKLOADS:
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, timeout=170,
            )
            if out.returncode == 0:
                problems.append(f"{workload}: run in a bare directory "
                                "exited 0")
            lines = out.stdout.strip().splitlines()
            if lines:
                try:
                    json.loads(lines[-1])
                    problems.append(f"{workload}: run in a bare directory "
                                    "printed a result")
                except ValueError:
                    pass
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return problems


def main() -> int:
    root = os.getcwd()
    # Interrupt once the loaded server, or both timed campaign
    # processes, have started and the window is open.
    loaded = serving.SETUP_ONLY_SPAWNS + 1
    timed = campaign.SETUP_ONLY_SPAWNS + 2
    mid_load = serving.WARMUP_S + 2.0
    cases = [
        ("SIGTERM mid-load, predict-unique",
         lambda: interrupt_case(root, "predict-unique", signal.SIGTERM,
                                loaded, mid_load)),
        ("SIGINT mid-load, predict-repeat",
         lambda: interrupt_case(root, "predict-repeat", signal.SIGINT,
                                loaded, mid_load)),
        ("SIGTERM mid-campaign",
         lambda: interrupt_case(root, "campaign", signal.SIGTERM, timed, 4.0)),
        ("bare directory", lambda: bare_directory_case(root)),
    ]
    failed = 0
    for name, case in cases:
        problems = case()
        print(f"[selfcheck] {name:36s} {'FAIL' if problems else 'ok'}")
        for p in problems:
            print(f"[selfcheck]     {p}")
        failed += bool(problems)
    try:
        os.rmdir(os.path.join(root, TMP_ROOT))
    except OSError:
        pass
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
