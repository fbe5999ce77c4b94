"""The ``sim-fig1-check`` workload: the paper's Fig. 1 run, then its check.

``examples/specs/fig1_balanced_5.toml`` (five EC2 sites, Table III delays
with 2% jitter, ten closed-loop clients per site, Δ = 5 ms) runs on the
discrete-event simulator for :data:`SIM_SECONDS` of virtual time with
history recording on, and ``check_history`` judges the history.  The run is
repeated with the same seed; every repetition must reproduce the first one
exactly (events, messages, execution orders, latencies), which is the
simulator's determinism check.  Latencies are virtual time.  The wall-clock
figures are in reference seconds (see ``measure.host_slowness``), taken per
slice of :data:`SLICE_MICROS` simulated time, per checker pass and per
set-up.
"""

from __future__ import annotations

import gc
import hashlib
import re
import time
from dataclasses import replace
from pathlib import Path
from typing import Any

from measure import (
    cpu_seconds, host_slowness, latency_metrics, median, metric, rss_peak_mb, timed_checks,
)
from tracing import Tracer, per_layer

import repro.checker.linearizability as linearizability
from repro.experiment.sim_backend import SimBackend
from repro.experiment.spec import ExperimentSpec

SPEC = Path("examples/specs/fig1_balanced_5.toml")
#: Simulated seconds per repetition (the spec's own duration is 4 s).
SIM_SECONDS = 20.0
#: The simulation runs in slices of this much virtual time, each timed on
#: its own between two reference loops.
SLICE_MICROS = 100_000
#: Checker passes per repetition.  Traced repetitions make fewer, since only
#: the checker's share of the traced time is wanted from them.
CHECKS = 20
TRACED_CHECKS = 3
#: Counts the determinism check compares between traced repetitions.
#: Client names carry a process-wide pool counter ("VA/pool7/client6"), which
#: differs between repetitions in one process; the rest of the name does not.
_POOL = re.compile(r"/pool\d+/")
_TRACED_COUNTS = (
    "core.msg.Prepare", "core.msg.PrepareOk", "core.msg.ClockTime",
    "core.clockwait", "core.units", "storage.records", "sim.events",
)


def _setup(root: Path, seed: int) -> tuple[Any, float]:
    started = time.perf_counter()
    spec = ExperimentSpec.from_file(root / SPEC)
    spec = replace(spec, duration_s=SIM_SECONDS, seed=seed, record_history=True)
    prepared = SimBackend().prepare(spec)
    return prepared, time.perf_counter() - started


def _fingerprint(prepared: Any, events: int, latencies_us: list[int]) -> str:
    """Digest of everything a repetition of the same seed must reproduce."""
    digest = hashlib.sha256()
    cluster = prepared.cluster
    digest.update(repr((events, cluster.network.sent_count, len(cluster.replies))).encode())
    for rid, order in sorted(cluster.execution_orders().items()):
        digest.update(repr((rid, [(_POOL.sub("/", c.client), c.seqno) for c in order])).encode())
    digest.update(repr(latencies_us).encode())
    return digest.hexdigest()


def run(root: Path, seed: int, seconds: int, trace: bool) -> dict[str, Any]:
    repetitions = max(3 if trace else 2, seconds // 5)
    tracer = Tracer() if trace else None
    setups: list[float] = []
    sim_cmds = 0
    sim_seconds = 0.0
    checked_ops = 0
    check_seconds = 0.0
    fingerprints: list[str] = []
    traced_counts: list[tuple[float, ...]] = []
    problems: list[str] = []
    untraced_busy_us = 0.0
    traced_cmds = 0
    latencies_ms: list[float] = []
    virtual_ops = 0.0
    attempted = failed = 0
    for repetition in range(repetitions):
        gc.collect()  # every repetition starts from the same collector state
        prepared, setup_s = _setup(root, seed)
        setups.append(setup_s / host_slowness())
        cluster = prepared.cluster
        traced = tracer is not None and repetition > 0
        if traced:
            before = tuple(tracer.counts.get(key, 0.0) for key in _TRACED_COUNTS)
            tracer.open_window()
        cluster.start()
        env = cluster.env
        end = env.now + prepared.spec.total_runtime_micros
        events = 0
        cpu_started = cpu_seconds()
        # The traced run's baseline stays free of reference loops.
        slowness = host_slowness() if tracer is None else 1.0
        while env.now < end:
            started = time.perf_counter()
            events += env.run_until(min(env.now + SLICE_MICROS, end))
            elapsed = time.perf_counter() - started
            if tracer is None:
                # The share can switch within a slice: it is taken as the
                # mean of the reference loops on both sides.
                previous, slowness = slowness, host_slowness()
                sim_seconds += elapsed / ((previous + slowness) / 2)
        busy = cpu_seconds() - cpu_started
        if traced:
            tracer.close_window()
        replies = len(cluster.replies)
        try:
            result = SimBackend().collect(prepared)  # asserts prefix-consistent orders
        except AssertionError as exc:
            problems.append(f"execution orders diverge: {exc}")
            return {"correct": False, "problems": problems, "attempted": max(1, replies),
                    "failed": 0, "metrics": {}}
        history = result.history
        latencies_us = prepared.handle.collector.all_latencies_micros()
        fingerprints.append(_fingerprint(prepared, events, latencies_us))
        latencies_ms = [value / 1e3 for value in latencies_us]
        virtual_ops = result.total_committed / prepared.spec.duration_s
        attempted, failed = len(history), history.count("fail")
        del prepared, cluster, result
        if traced:
            report, _ = timed_checks(
                lambda: tracer.check(lambda: linearizability.check_history(history)),
                TRACED_CHECKS,
            )
        else:
            # One more set-up before each pass spreads ``setup_s``'s samples
            # over the run, so that their median is not one moment's.
            report, check_s = timed_checks(
                lambda: linearizability.check_history(history),
                CHECKS,
                lambda: setups.append(_setup(root, seed)[1] / host_slowness()),
            )
            checked_ops += CHECKS * len(history)
            check_seconds += check_s
        if not report.linearizable:
            problems.append(f"checker: {report.describe()}")
        if traced:
            after = tuple(tracer.counts.get(key, 0.0) for key in _TRACED_COUNTS)
            traced_counts.append(tuple(a - b for a, b in zip(after, before)))
            traced_cmds += replies
        else:
            sim_cmds += replies
            untraced_busy_us = busy * 1e6 / replies
        del history
    if len(set(fingerprints)) > 1:
        problems.append("repetitions of one seed diverged (events, orders or latencies)")
    if len(set(traced_counts)) > 1:
        problems.append("traced message and event counts differ between repetitions of one seed")
    outcome: dict[str, Any] = {
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
    }
    if tracer is None:
        outcome["metrics"] = {
            "setup_s": metric(median(setups), "s"),
            "throughput_ops": metric(virtual_ops, "ops/s"),
            **{
                key: metric(value, "ms")
                for key, value in latency_metrics(latencies_ms, failed).items()
            },
            "ok_frac": metric(1.0 - failed / attempted, "fraction"),
            "rss_peak_mb": metric(rss_peak_mb(), "MB"),
            "wall_cmds_per_s": metric(sim_cmds / sim_seconds, "cmds/s"),
            "check_ops_per_s": metric(checked_ops / check_seconds, "ops/s"),
        }
    else:
        layers, _ = tracer.layer_metrics(traced_cmds, 1, untraced_busy_us)
        outcome["metrics"] = per_layer(layers)
    return outcome
