"""Small statistics helpers (the client process imports no NumPy)."""

from __future__ import annotations

import statistics
from typing import Dict, Optional, Sequence, Tuple


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0 for no values (a layer the run never entered)."""
    return sum(values) / len(values) if values else 0.0


def linear_fit(
    xs: Sequence[float], ys: Sequence[float]
) -> Optional[Tuple[float, float, float]]:
    """Least-squares ``y = alpha + beta * x``: (alpha, beta, r^2), or
    None with fewer than three points or no spread in ``x``."""
    n = len(xs)
    if n < 3:
        return None
    mx, my = sum(xs) / n, sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        return None
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    beta = sxy / sxx
    alpha = my - beta * mx
    syy = sum((y - my) ** 2 for y in ys)
    r2 = (sxy * sxy) / (sxx * syy) if syy > 0 else 1.0
    return alpha, beta, r2


def cpu_ticks() -> Optional[Tuple[int, int]]:
    """(steal, total) jiffies of all CPUs from ``/proc/stat``, or None.

    Steal is time the hypervisor ran someone else on this VM's CPUs.
    """
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def deltas(before: Dict[str, dict], after: Dict[str, dict]) -> Dict[str, dict]:
    """Window deltas of a ``/metrics`` snapshot: counter values, and
    histogram count and sum (gauges are levels, not deltas, so skipped)."""
    out: Dict[str, dict] = {}
    for name, m in after.items():
        b = before.get(name, {})
        if m.get("type") == "counter":
            d = m.get("value", 0) - b.get("value", 0)
            if d:
                out[name] = {"delta": d}
        elif m.get("type") == "histogram":
            count = m.get("count", 0) - b.get("count", 0)
            if count:
                out[name] = {
                    "count": count,
                    "sum": m.get("sum", 0.0) - b.get("sum", 0.0),
                }
    return out


def counter(d: Dict[str, dict], name: str) -> float:
    return d.get(name, {}).get("delta", 0)


def hist_mean(d: Dict[str, dict], name: str) -> float:
    h = d.get(name)
    return h["sum"] / h["count"] if h else 0.0
