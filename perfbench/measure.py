"""Small measurement helpers shared by every workload of the benchmark."""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
from typing import Any, Callable, Optional, Sequence

#: Latency that stands in for a failed or timed-out operation: longer than
#: any bound a caller could set, so a failure always counts as a miss.
FAILED_LATENCY_MS = 1e6


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-quantile (0..1) by the nearest-rank method; NaN when empty."""
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else math.nan


#: On a shared host the CPU this process runs on is at times a whole core
#: and at times a share of one, up to about 1.6x slower; the share changes
#: every second or so and, with the neighbours' load, for minutes.  Every
#: wall-clock figure follows it.  So each timed stretch of the program is
#: bracketed by runs of a fixed reference loop, and the stretch's seconds are
#: divided by the loop's mean slowness on its two sides (``host_slowness``):
#: the figures are in seconds of a host that runs the loop in REFERENCE_S.
#: The program's own changes move them in full, since the loop is not the
#: program's code.
REFERENCE_ITERATIONS = 10_000
#: The reference loop's time on a whole core of the 2-CPU x86-64 host
#: (CPython 3.11) the benchmark was written on, run as here, right after a
#: stretch of the program's work.
REFERENCE_S = 0.00085


_TABLE: dict[int, int] = {}


def _reference_loop() -> int:
    """Dict, int and call work, as in the program's Python code.

    It allocates no object the collector tracks, so it never starts a
    collection: a pause of the program's collector must not land in it.
    """
    table = _TABLE
    table.clear()
    for i in range(REFERENCE_ITERATIONS):
        key = i % 251
        table[key] = table.get(key, 0) + i
    return len(table)


def host_slowness() -> float:
    """Time one reference loop now, over REFERENCE_S: 1.0 on a whole core."""
    started = time.perf_counter()
    _reference_loop()
    return (time.perf_counter() - started) / REFERENCE_S


def rss_peak_mb() -> float:
    """Peak resident set size of this process so far, in MiB (Linux KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_seconds() -> float:
    """User plus system CPU time of this process (kernel socket work too)."""
    return time.process_time()


def latency_metrics(latencies_ms: Sequence[float], failed: int) -> dict[str, float]:
    """p50/p99 over the successful samples plus one miss per failure."""
    samples = list(latencies_ms) + [FAILED_LATENCY_MS] * failed
    return {
        "commit_p50_ms": percentile(samples, 0.50),
        "commit_p99_ms": percentile(samples, 0.99),
    }


def metric(value: float, unit: str) -> dict[str, object]:
    return {"value": value, "unit": unit}


def timed_checks(
    check: Callable[[], Any], passes: int, between: Optional[Callable[[], Any]] = None
) -> tuple[Any, float]:
    """Run *check* (one ``check_history`` call) *passes* times; return its
    report and the passes' total time in reference seconds.

    Each pass starts from a freshly collected heap, and callers drop the
    cluster that made the history first, so the collections inside a pass
    traverse the history and the checker's own objects only, whatever else
    the run left behind.  *between*, if given, runs untimed before each pass.
    """
    report = None
    seconds = 0.0
    for _ in range(passes):
        if between is not None:
            between()
        gc.collect()
        before = host_slowness()
        started = time.perf_counter()
        report = check()
        elapsed = time.perf_counter() - started
        # A pass can outlast a switch of the host's share; the loop is run
        # on both sides of it.
        seconds += elapsed / ((before + host_slowness()) / 2)
    return report, seconds
