"""The live workload ``tcp-batch64-closed``: clock-rsm over loopback TCP.

Three replicas are built from the public runtime API — one
:class:`~repro.net.tcp.TcpTransport` and one
:class:`~repro.runtime.server.ReplicaServer` per replica, all in this
process's one event loop — with ``max_batch = 64, window_us = 0`` on the
drivers and the transports, and driven by 64 closed-loop in-process
``submit`` callers per site, so the benchmark opens no sockets or threads of
its own.

A run is several *rounds*, each on a freshly built cluster: set up (timed),
warm up, measure a fixed number of commands, tear down, check.  Fixed work
per round keeps memory, counts and collector pauses comparable between
versions.  Each round's measured commands are cut into windows of
:data:`WINDOW_CMDS` commits, each timed on its own between two
reference loops, so that throughput and latencies are in reference seconds
(see ``measure.host_slowness``); the latency percentiles pool every
measured round.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import random
import time
from dataclasses import dataclass, field
from typing import Any, Optional

from measure import (
    FAILED_LATENCY_MS, cpu_seconds, host_slowness, latency_metrics, median, metric,
    rss_peak_mb, timed_checks,
)
from tracing import Tracer, format_budget, per_layer

import repro.checker.linearizability as linearizability
from repro.checker.history import OpHistory
from repro.config import BatchingOptions, ClusterSpec
from repro.errors import RequestTimeout
from repro.kvstore.commands import random_update
from repro.kvstore.kv import KVStateMachine
from repro.net.tcp import TcpTransport
from repro.runtime.server import ReplicaServer
from repro.types import Command, CommandId

SITES = ("S0", "S1", "S2")
PROTOCOL = "clock-rsm"
BATCHING = BatchingOptions(max_batch=64, window_us=0)
CALLERS_PER_SITE = 64
KEY_SPACE = 1000
VALUE_SIZE = 64
SUBMIT_TIMEOUT_S = 30.0
#: Commands per round before measuring, and measured commands per round,
#: sized so that a round takes about ROUND_SECONDS on a 2-CPU host.
WARMUP_CMDS = 3_000
ROUND_CMDS = 30_000
#: Commits per timed window of a round (about 25 ms; the host's share is
#: taken per window, and longer windows let it switch inside them).
WINDOW_CMDS = 250
#: Requested run seconds per measured round: a run measures
#: ``max(3, seconds / ROUND_SECONDS)`` rounds.
ROUND_SECONDS = 5.0
#: Rounds run first and left out of the figures: a fresh process's first
#: round pays for heap growth and cold code paths that later rounds do not.
WARMUP_ROUNDS = 1
#: Checker passes over each round's history.
CHECK_PASSES = 3
#: Extra set-ups timed after each round, besides the round's own, to spread
#: ``setup_s``'s samples (whose median it is) over the run.
EXTRA_SETUPS = 2


def _micros() -> int:
    return int(time.monotonic() * 1e6)


class Cluster:
    """Three replica servers wired to each other over loopback TCP."""

    def __init__(self) -> None:
        self.history = OpHistory()
        self.spec = ClusterSpec.from_sites(SITES)
        self.servers: dict[int, ReplicaServer] = {}

    async def start(self) -> None:
        """Start the servers, wire the peers, commit one command per site."""
        transports = {
            rid: TcpTransport(rid, "127.0.0.1:0", {}, batching=BATCHING)
            for rid in self.spec.replica_ids
        }
        for transport in transports.values():
            await transport.start()
        addresses = {rid: t.bound_address for rid, t in transports.items()}
        for rid, transport in transports.items():
            transport.set_peers({r: a for r, a in addresses.items() if r != rid})
            self.servers[rid] = ReplicaServer(
                PROTOCOL, rid, self.spec, KVStateMachine(),
                transport=transport, batching=BATCHING,
            )
        for server in self.servers.values():
            await server.start()
        await asyncio.gather(*(
            self.submit(rid, CommandId(f"ready-{rid}", 1), random_update(random.Random(rid)))
            for rid in self.servers
        ))

    async def stop(self) -> None:
        for server in self.servers.values():
            await server.stop()

    async def submit(self, rid: int, command_id: CommandId, payload: bytes) -> bool:
        """Submit one command and record it; True when it committed."""
        history = self.history
        history.invoke(command_id, rid, payload, _micros())
        try:
            output = await self.servers[rid].submit(
                Command(command_id, payload), timeout=SUBMIT_TIMEOUT_S
            )
        except RequestTimeout:
            history.fail(command_id, _micros())
            return False
        history.complete(command_id, output, _micros())
        return True

    def verify_orders(self) -> list[str]:
        """The replica half of the correctness gate.

        Execution orders must be prefix-consistent and every acknowledged
        command must be in its origin replica's order.  The orders are
        recorded in the history for the checker, which judges the rest.
        """
        problems: list[str] = []
        orders = {rid: s.replica.execution_order for rid, s in self.servers.items()}
        longest = max(orders.values(), key=len)
        for rid, order in orders.items():
            if order != longest[: len(order)]:
                problems.append(f"replica {rid}'s execution order is not a prefix of the longest")
        executed = {rid: set(order) for rid, order in orders.items()}
        for record in self.history:
            if record.completed and record.command_id not in executed[record.replica_id]:
                problems.append(f"acknowledged {record.command_id} missing at replica {record.replica_id}")
                break
        self.history.record_apply_orders(orders)
        return problems


def _check_history(history: OpHistory, tracer: Optional[Tracer]) -> tuple[list[str], float]:
    """The checker half of the gate: the history must be linearizable.

    Also returns the time CHECK_PASSES passes of the checker took, in
    reference seconds.
    """
    if tracer is None:
        check = lambda: linearizability.check_history(history)
    else:
        check = lambda: tracer.check(lambda: linearizability.check_history(history))
    report, seconds = timed_checks(check, CHECK_PASSES)
    problems = [] if report.linearizable else [f"checker: {report.describe()}"]
    return problems, seconds


@dataclass
class _Round:
    """What one measured round leaves behind."""

    #: In completion order; a failure counts as FAILED_LATENCY_MS.
    latencies_ms: list[float] = field(default_factory=list)
    attempted: int = ROUND_CMDS
    failed: int = 0
    busy_s: float = 0.0
    #: Seconds and host slowness of each window of WINDOW_CMDS completions.
    windows: list[tuple[float, float]] = field(default_factory=list)

    @property
    def committed(self) -> int:
        return self.attempted - self.failed

    def reference_s(self) -> float:
        """The measured windows' time in reference seconds."""
        return sum(seconds / slowness for seconds, slowness in self.windows)

    def reference_latencies_ms(self) -> list[float]:
        """Each latency in reference time, by the slowness of its window."""
        latencies = self.latencies_ms
        return [
            latency / slowness
            for index, (_, slowness) in enumerate(self.windows)
            for latency in latencies[index * WINDOW_CMDS : (index + 1) * WINDOW_CMDS]
        ]


async def _round(
    cluster: Cluster, rng: random.Random, tag: int, tracer: Optional[Tracer], timed: bool
) -> _Round:
    """Warm up, then measure ROUND_CMDS commands in a closed loop.

    When *timed*, each window of WINDOW_CMDS completions ends with a
    reference loop, and the first also starts with one; the traced run
    leaves them out.  The loops hold up the commands in flight, so the time
    they took is taken out of those commands' latencies.
    """
    end = WARMUP_CMDS + ROUND_CMDS
    payloads = [random_update(rng, KEY_SPACE, VALUE_SIZE) for _ in range(end)]
    tickets = itertools.count()
    result = _Round()
    completed = 0
    #: "paused" is the time the reference loops have held the loop so far.
    marks: dict[str, float] = {"paused": 0.0}

    def reference() -> float:
        started = time.perf_counter()
        slowness = host_slowness()
        marks["window"] = time.perf_counter()
        marks["paused"] += marks["window"] - started
        return slowness

    def on_complete() -> None:
        nonlocal completed
        completed += 1
        if timed and completed > WARMUP_CMDS and (completed - WARMUP_CMDS) % WINDOW_CMDS == 0:
            seconds = time.perf_counter() - marks["window"]
            # The share can switch within a window: it is taken as the mean
            # of the reference loops on both sides.
            previous, slowness = marks["slowness"], reference()
            result.windows.append((seconds, (previous + slowness) / 2))
            marks["slowness"] = slowness
        if completed == WARMUP_CMDS:
            marks["cpu"] = cpu_seconds()
            marks["window"] = time.perf_counter()
            if timed:
                marks["slowness"] = reference()
            if tracer is not None:
                tracer.open_window()
        elif completed == end:
            if tracer is not None:
                tracer.close_window()
            result.busy_s = cpu_seconds() - marks["cpu"]

    async def caller(rid: int, index: int) -> None:
        client = f"r{tag}-c{rid}-{index}"
        for seqno in itertools.count(1):
            ticket = next(tickets)
            if ticket >= end:
                return
            started, paused = time.perf_counter(), marks["paused"]
            ok = await cluster.submit(rid, CommandId(client, seqno), payloads[ticket])
            if ticket >= WARMUP_CMDS:
                if ok:
                    held = marks["paused"] - paused
                    result.latencies_ms.append((time.perf_counter() - started - held) * 1e3)
                else:
                    result.latencies_ms.append(FAILED_LATENCY_MS)
                    result.failed += 1
            on_complete()

    await asyncio.gather(*(
        caller(rid, index)
        for rid in cluster.servers
        for index in range(CALLERS_PER_SITE)
    ))
    return result


async def _setup_only() -> float:
    """Time one cluster's set-up, then tear it down."""
    gc.collect()
    started = time.perf_counter()
    cluster = Cluster()
    await cluster.start()
    setup_s = (time.perf_counter() - started) / host_slowness()
    await cluster.stop()
    await asyncio.sleep(0.05)  # as after a round
    return setup_s


async def _run(seed: int, seconds: int, trace: bool) -> dict[str, Any]:
    rounds = WARMUP_ROUNDS + max(3, round(seconds / ROUND_SECONDS))
    rng = random.Random(seed)
    tracer = Tracer() if trace else None
    problems: list[str] = []
    setups: list[float] = []
    checked_ops = 0
    check_seconds = 0.0
    results: list[_Round] = []
    for tag in range(rounds):
        # Every round starts from the same collector state: the previous
        # round's cluster is gone and nothing is pending a collection.
        gc.collect()
        # In trace mode the first measured round is the untraced baseline
        # that the tracing overhead is measured against; the others are traced.
        traced = tracer if tracer is not None and tag > WARMUP_ROUNDS else None
        started = time.perf_counter()
        cluster = Cluster()
        await cluster.start()
        setups.append((time.perf_counter() - started) / host_slowness())
        try:
            if traced is not None:
                traced.drivers = [server.driver for server in cluster.servers.values()]
            measured = await _round(cluster, rng, tag, traced, tracer is None)
            round_problems = cluster.verify_orders()
        finally:
            if traced is not None:
                traced.uninstall()  # a failed round may leave a window open
            await cluster.stop()
        history = cluster.history
        del cluster
        # Let the cancelled connection handlers finish, so that they release
        # the cluster before the checker's and the next round's collections.
        await asyncio.sleep(0.05)
        checker_problems, check_s = _check_history(history, traced)
        problems.extend(f"round {tag}: {problem}" for problem in round_problems + checker_problems)
        if tag >= WARMUP_ROUNDS:
            results.append(measured)
            checked_ops += CHECK_PASSES * len(history)
            check_seconds += check_s
        del history
        if tracer is None:
            for _ in range(EXTRA_SETUPS):
                setups.append(await _setup_only())

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    outcome: dict[str, Any] = {
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
    }
    if tracer is None:
        throughput = sum(r.committed for r in results) / sum(r.reference_s() for r in results)
        latencies = latency_metrics([l for r in results for l in r.reference_latencies_ms()], 0)
        outcome["metrics"] = {
            "setup_s": metric(median(setups), "s"),
            "throughput_ops": metric(throughput, "ops/s"),
            "commit_p50_ms": metric(latencies["commit_p50_ms"], "ms"),
            "commit_p99_ms": metric(latencies["commit_p99_ms"], "ms"),
            "ok_frac": metric((attempted - failed) / attempted, "fraction"),
            "rss_peak_mb": metric(rss_peak_mb(), "MB"),
            "wall_cmds_per_s": metric(throughput, "cmds/s"),
            "check_ops_per_s": metric(checked_ops / check_seconds, "ops/s"),
        }
    else:
        baseline, traced_rounds = results[0], results[1:]
        traced_cmds = sum(r.committed for r in traced_rounds)
        layers, budget = tracer.layer_metrics(
            traced_cmds, BATCHING.max_batch, baseline.busy_s * 1e6 / baseline.committed
        )
        outcome["metrics"] = per_layer(layers)
        outcome["report"] = format_budget(budget, traced_cmds)
    return outcome


def run(seed: int, seconds: int, trace: bool) -> dict[str, Any]:
    return asyncio.run(_run(seed, seconds, trace))
