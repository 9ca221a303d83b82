"""Child-process hygiene for the benchmark.

Every process the benchmark starts goes through :class:`Children`:

* it runs in its own session (so its own process group), which lets
  teardown signal the child *and anything it forked* with one
  ``killpg``;
* on Linux it gets ``PR_SET_PDEATHSIG = SIGKILL``, so even a benchmark
  killed with SIGKILL cannot leave it running;
* teardown is SIGTERM, a bounded drain wait, SIGKILL, then reap — on
  normal exit, on an exception, on Ctrl-C and on SIGTERM to the
  benchmark (``install_signal_handlers`` turns SIGTERM into the same
  ``KeyboardInterrupt`` path as Ctrl-C);
* ``survivors()`` asserts afterwards that no started process group has
  a live member.

Each spawn is announced on stderr as ``[perfbench] started pid=.. pgid=..``
so the interrupt self-check can look for survivors from outside.
"""

from __future__ import annotations

import ctypes
import os
import select
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

_PR_SET_PDEATHSIG = 1
#: Seconds a child may take to exit after SIGTERM before it is killed.
DRAIN_S = 5.0


def _die_with_parent() -> None:
    """``preexec_fn``: SIGKILL this child when the benchmark dies."""
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
        prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
        prctl.restype = ctypes.c_int
        prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: teardown still covers every orderly exit


def install_signal_handlers() -> None:
    """Make SIGTERM unwind like Ctrl-C, so every ``finally`` runs."""

    def on_term(signum, frame):  # noqa: ARG001 — signal handler signature
        raise KeyboardInterrupt(f"signal {signum}")

    signal.signal(signal.SIGTERM, on_term)


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


class Children:
    """Owner of every child process one benchmark run starts."""

    def __init__(self) -> None:
        self._live: Dict[int, subprocess.Popen] = {}
        self._groups: List[int] = []

    def spawn(
        self,
        argv: Sequence[str],
        env: Dict[str, str],
        cwd: str,
        log_path: str,
        stdin: Optional[int] = None,
    ) -> subprocess.Popen:
        """Start ``argv`` with a piped stdout and stderr to ``log_path``."""
        with open(log_path, "ab") as stderr:
            proc = subprocess.Popen(
                list(argv),
                env=env,
                cwd=cwd,
                stdin=stdin,
                stdout=subprocess.PIPE,
                stderr=stderr,
                bufsize=0,
                start_new_session=True,
                preexec_fn=_die_with_parent,
            )
        self._live[proc.pid] = proc
        self._groups.append(proc.pid)
        log(f"started pid={proc.pid} pgid={proc.pid}")
        return proc

    def stop(self, proc: subprocess.Popen) -> Optional[int]:
        """SIGTERM the child's group, wait ``DRAIN_S``, SIGKILL, reap.

        Returns the exit code (negative: killed by that signal).
        """
        try:
            if proc.poll() is None:
                _killpg(proc.pid, signal.SIGTERM)
                try:
                    proc.wait(timeout=DRAIN_S)
                except subprocess.TimeoutExpired:
                    log(f"pid={proc.pid} did not drain in "
                        f"{DRAIN_S:g}s; SIGKILL")
            # The leader may be gone while something it forked lingers.
            _killpg(proc.pid, signal.SIGKILL)
            return proc.wait(timeout=DRAIN_S)
        finally:
            for stream in (proc.stdin, proc.stdout):
                if stream is not None:
                    stream.close()
            self._live.pop(proc.pid, None)

    def stop_all(self) -> None:
        for proc in list(self._live.values()):
            try:
                self.stop(proc)
            except (OSError, subprocess.TimeoutExpired) as e:
                log(f"teardown of pid={proc.pid} failed: {e}")

    def survivors(self) -> List[int]:
        """Process groups this run started that still have a member."""
        alive = []
        for pgid in self._groups:
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                continue
            except PermissionError:
                pass  # exists, owned by someone else: pid reused? count it
            alive.append(pgid)
        return alive


def _killpg(pgid: int, sig: int) -> None:
    try:
        os.killpg(pgid, sig)
    except ProcessLookupError:
        pass


def wait_line(proc: subprocess.Popen, marker: bytes, deadline_s: float) -> bytes:
    """Read the child's stdout until a line containing ``marker``.

    Raises ``RuntimeError`` if the child exits or ``deadline_s`` passes
    first.  The pipe is unbuffered and polled with ``select``, so a hung
    child cannot hang the benchmark.
    """
    end = time.monotonic() + deadline_s
    assert proc.stdout is not None
    line = b""
    while True:
        remaining = end - time.monotonic()
        if remaining <= 0:
            raise RuntimeError(
                f"pid={proc.pid}: no {marker!r} in {deadline_s:g}s"
            )
        ready, _, _ = select.select([proc.stdout], [], [], remaining)
        if not ready:
            continue
        chunk = proc.stdout.read(1)
        if not chunk:
            raise RuntimeError(
                f"pid={proc.pid} exited (code {proc.poll()}) before "
                f"printing {marker!r}"
            )
        line += chunk
        if chunk == b"\n":
            if marker in line:
                return line
            line = b""
