"""Span tracing from outside the program, for the traced per-layer run.

The tracer wraps each layer's public entry points (module functions and
class methods) with a recorder, so ``src/`` stays untouched.  A span is one
call of a wrapped entry point: its name, start, end and parent span (the
wrapped call it ran inside).  Garbage-collector passes, seen through
``gc.callbacks``, are spans too, so a collection that interrupts a layer is
charged to ``gc`` and not to that layer.  Spans stay in memory, four doubles
each, and are reduced to per-layer metrics when the run ends.

A span's *self time* is its duration minus the time its child spans cover.
Self times partition the time spent inside wrapped calls, so the layers'
self times plus ``loop.residual_us_per_cmd`` (asyncio, streams and the
driver's action dispatch, which no wrapper covers) add up to the process's
busy CPU time per command.
"""

from __future__ import annotations

import gc
import logging
import time
from array import array
from typing import Any, Callable, Optional

from measure import cpu_seconds

#: Span names, grouped by the layer whose self time they are.
LAYERS: dict[str, tuple[str, ...]] = {
    "net.wire": (
        "wire.encode_into",
        "wire.encode_many_into",
        "wire.decode",
        "wire.decode_many",
        "wire.kv_decode",
    ),
    "net.tcp": ("tcp.encode_frame", "tcp.encode_batch_frame", "tcp.decode_frame_envelopes"),
    "net.batching": ("batching.add", "batching.flush"),
    "runtime.driver": ("driver.submit", "driver.latency_split"),
    "core": ("core.request", "core.message", "core.timer"),
    "kvstore": ("kvstore.apply",),
    "storage": ("storage.append",),
    "sim": ("sim.run_until", "sim.network_send"),
    "checker": ("checker.check",),
    "gc": ("gc", "gc.full"),
}
_NAMES = [name for names in LAYERS.values() for name in names]
_ID = {name: index for index, name in enumerate(_NAMES)}
_CHECKER = _ID["checker.check"]

_WIDTH = 4  # doubles per span: name id, parent index, start, end (index << 2)


class _CountingHandler(logging.Handler):
    """Counts the warnings a logger emits (send failures of ``net.tcp``)."""

    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record: logging.LogRecord) -> None:
        self.count += 1


class Tracer:
    """Records spans around every layer's entry points while installed."""

    def __init__(self) -> None:
        self._spans = array("d")
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self._send_warnings = _CountingHandler()
        self.counts: dict[str, float] = {}
        #: Replica drivers whose ``latency_split()`` is read at the window edges.
        self.drivers: list[Any] = []
        self._split_start: list[Optional[dict[str, float]]] = []
        self._split = {"queue_wait_s": 0.0, "protocol_s": 0.0, "samples": 0.0}
        self.window_wall = 0.0
        self.window_cpu = 0.0
        self._opened_wall = 0.0
        self._opened_cpu = 0.0

    # -- recording -------------------------------------------------------------

    def _count(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def _wrap(
        self, owner: Any, attr: str, name: str, hook: Optional[Callable[[tuple, Any], None]] = None
    ) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        name_id = _ID[name]
        spans, stack, clock = self._spans, self._stack, time.perf_counter

        # A wrapper's own cost lands in its parent's self time, so the
        # recording is kept to a few inlined operations.
        def traced(*args: Any, **kwargs: Any) -> Any:
            # Building the record tuple may run the collector; the start is
            # stamped afterwards so that pause is not inside this span.
            spans.extend((name_id, stack[-1] if stack else -1, 0.0, 0.0))
            index = (len(spans) >> 2) - 1
            stack.append(index)
            spans[(index << 2) + 2] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                spans[(index << 2) + 3] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def _on_gc(self, phase: str, info: dict[str, Any]) -> None:
        spans, stack = self._spans, self._stack
        if phase == "start":
            name_id = _ID["gc.full" if info.get("generation") == 2 else "gc"]
            spans.extend((name_id, stack[-1] if stack else -1, time.perf_counter(), 0.0))
            stack.append((len(spans) >> 2) - 1)
        else:
            spans[(stack.pop() << 2) + 3] = time.perf_counter()

    # -- install / uninstall -------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's entry points and start watching the collector."""
        import repro.checker.linearizability as linearizability
        import repro.kvstore.commands as kv_commands
        import repro.net.tcp as tcp
        from repro.core.protocol import ClockRsmReplica
        from repro.kvstore.kv import KVStateMachine
        from repro.net.batching import BatchAccumulator
        from repro.net.message import MessageRegistry
        from repro.protocols.records import unit_commands
        from repro.runtime.driver import AsyncReplicaDriver
        from repro.sim.environment import SimulationEnvironment
        from repro.sim.network import SimulatedNetwork
        from repro.storage.memory_log import InMemoryLog

        count = self._count

        def wire_bytes(args: tuple, written: int) -> None:
            count("wire.bytes", written)

        def single_frame(args: tuple, frame: bytes) -> None:
            count("tcp.frames")
            count("tcp.msgs")

        def batch_frame(args: tuple, frame: bytes) -> None:
            count("tcp.frames")
            count("tcp.msgs", len(args[0].messages))

        def request(args: tuple, actions: Any) -> None:
            commands = unit_commands(args[1])
            count("core.units")
            count("core.unit_cmds", len(commands))
            count("core.payload_bytes", sum(len(c.payload) for c in commands))

        def message(args: tuple, actions: Any) -> None:
            count("core.msg." + type(args[2]).__name__)

        def timer(args: tuple, actions: Any) -> None:
            if args[1].kind == "clock-wait":
                count("core.clockwait")

        def log_record(args: tuple, position: int) -> None:
            count("storage.records")

        def events(args: tuple, executed: int) -> None:
            count("sim.events", executed)

        def checked(args: tuple, report: Any) -> None:
            count("checker.checks")
            count("checker.ops", report.ops)
            if report.method == "total-order":
                count("checker.fast")

        wrap = self._wrap
        wrap(MessageRegistry, "encode_into", "wire.encode_into", wire_bytes)
        wrap(MessageRegistry, "encode_many_into", "wire.encode_many_into", wire_bytes)
        wrap(MessageRegistry, "decode", "wire.decode")
        wrap(MessageRegistry, "decode_many", "wire.decode_many")
        wrap(kv_commands, "decode", "wire.kv_decode")
        wrap(tcp, "encode_frame", "tcp.encode_frame", single_frame)
        wrap(tcp, "encode_batch_frame", "tcp.encode_batch_frame", batch_frame)
        wrap(tcp, "decode_frame_envelopes", "tcp.decode_frame_envelopes")
        wrap(BatchAccumulator, "add", "batching.add")
        wrap(BatchAccumulator, "flush", "batching.flush")
        wrap(AsyncReplicaDriver, "submit", "driver.submit")
        wrap(AsyncReplicaDriver, "latency_split", "driver.latency_split")
        wrap(ClockRsmReplica, "on_client_request", "core.request", request)
        wrap(ClockRsmReplica, "on_message", "core.message", message)
        wrap(ClockRsmReplica, "on_timer", "core.timer", timer)
        wrap(KVStateMachine, "apply", "kvstore.apply")
        wrap(InMemoryLog, "append", "storage.append", log_record)
        wrap(SimulationEnvironment, "run_until", "sim.run_until", events)
        wrap(SimulatedNetwork, "send", "sim.network_send")
        wrap(linearizability, "check_history", "checker.check", checked)
        logging.getLogger("repro.net.tcp").addHandler(self._send_warnings)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        """Restore every wrapped entry point (idempotent)."""
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        logging.getLogger("repro.net.tcp").removeHandler(self._send_warnings)
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- measurement window ------------------------------------------------------

    def open_window(self) -> None:
        """Install the wrappers and start a measured window.

        Called between event-loop callbacks, never inside a wrapped call.
        """
        self._split_start = [driver.latency_split() for driver in self.drivers]
        self.install()
        self._opened_wall = time.perf_counter()
        self._opened_cpu = cpu_seconds()

    def close_window(self) -> None:
        """End the window and uninstall; windows accumulate over rounds."""
        self.window_cpu += cpu_seconds() - self._opened_cpu
        self.window_wall += time.perf_counter() - self._opened_wall
        self.uninstall()
        for driver, before in zip(self.drivers, self._split_start):
            after = driver.latency_split()
            if after is None:
                continue
            before = before or {"queue_wait_s": 0.0, "protocol_s": 0.0, "samples": 0.0}
            for key in ("queue_wait_s", "protocol_s"):
                self._split[key] += after[key] * after["samples"] - before[key] * before["samples"]
            self._split["samples"] += after["samples"] - before["samples"]
        self.drivers = []  # do not keep the round's cluster alive

    def check(self, check: Callable[[], Any]) -> Any:
        """Run *check* (a ``check_history`` call) with the wrappers installed."""
        self.install()
        try:
            return check()
        finally:
            self.uninstall()

    # -- reduction ------------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], float, list[float], int]:
        """Self seconds per span name, checker-rolled; total checker seconds;
        every gc pause in seconds; and how many of them were full (gen 2).

        Work done inside ``check_history`` (its payload decoding, its
        collections) is charged to the checker, so the command-path layers
        only hold command-path work.
        """
        spans = self._spans
        n = len(spans) // _WIDTH
        self_s = [0.0] * len(_NAMES)
        in_checker = bytearray(n)
        child = [0.0] * n
        # Children start after, and therefore index after, their parents;
        # walking backwards settles each span's children before the span.
        for i in range(n - 1, -1, -1):
            base = i * _WIDTH
            duration = spans[base + 3] - spans[base + 2]
            parent = int(spans[base + 1])
            if parent >= 0:
                child[parent] += duration
            self_s[int(spans[base])] += duration - child[i]
        checker_s = 0.0
        pauses: list[float] = []
        full = 0
        gc_ids = (_ID["gc"], _ID["gc.full"])
        for i in range(n):
            base = i * _WIDTH
            name_id = int(spans[base])
            parent = int(spans[base + 1])
            inside = name_id == _CHECKER or (parent >= 0 and in_checker[parent])
            in_checker[i] = inside
            duration = spans[base + 3] - spans[base + 2]
            if inside:
                own = duration - child[i]
                self_s[name_id] -= own
                checker_s += own
            elif name_id in gc_ids:
                pauses.append(duration)
                full += name_id == gc_ids[1]
        return dict(zip(_NAMES, self_s)), checker_s, pauses, full

    @property
    def span_count(self) -> int:
        return len(self._spans) // _WIDTH

    def driver_split_us(self) -> tuple[float, float]:
        """Mean queue-wait and protocol time (µs) of the commands replied to
        inside the windows, from the drivers' cumulative ``latency_split``."""
        samples = self._split["samples"]
        if samples <= 0:
            return 0.0, 0.0
        return (
            self._split["queue_wait_s"] / samples * 1e6,
            self._split["protocol_s"] / samples * 1e6,
        )

    def layer_metrics(
        self,
        cmds: int,
        max_batch: int,
        untraced_busy_us_per_cmd: float,
    ) -> tuple[dict[str, float], dict[str, float]]:
        """Every per-layer metric, plus the layer budget (µs per command).

        *cmds* is the number of commands committed inside the window(s);
        *untraced_busy_us_per_cmd* is the same workload's busy CPU per
        command without tracing, which gives the tracing overhead.
        """
        per = 1.0 / cmds
        us = 1e6 * per
        self_s, checker_s, pauses, full = self.self_times()
        c = self.counts.get

        def layer_s(layer: str) -> float:
            return sum(self_s[name] for name in LAYERS[layer])

        budget = {
            layer: layer_s(layer) * us
            for layer in LAYERS
            if layer != "checker"
        }
        busy_us = self.window_cpu * us
        budget["loop.residual"] = busy_us - sum(budget.values())
        queue_us, protocol_us = self.driver_split_us()
        window = self.window_wall
        units = c("core.units", 0.0)
        cmds_per_unit = c("core.unit_cmds", 0.0) / units if units else 0.0
        wire_bytes = c("wire.bytes", 0.0)
        frames = c("tcp.frames", 0.0)
        events = c("sim.events", 0.0)
        checked_ops = c("checker.ops", 0.0)
        checks = c("checker.checks", 0.0)
        metrics = {
            "net.wire.encode_us_per_cmd": (self_s["wire.encode_into"] + self_s["wire.encode_many_into"]) * us,
            "net.wire.decode_us_per_cmd": (
                self_s["wire.decode"] + self_s["wire.decode_many"] + self_s["wire.kv_decode"]
            ) * us,
            "net.wire.bytes_per_cmd": wire_bytes * per,
            "net.wire.payload_ratio": c("core.payload_bytes", 0.0) / wire_bytes if wire_bytes else 0.0,
            "net.tcp.frames_per_cmd": frames * per,
            "net.tcp.msgs_per_frame": c("tcp.msgs", 0.0) / frames if frames else 0.0,
            "net.tcp.frame_us_per_cmd": layer_s("net.tcp") * us,
            "net.tcp.send_failures": float(self._send_warnings.count),
            "net.batching.us_per_cmd": layer_s("net.batching") * us,
            "net.batching.cmds_per_unit": cmds_per_unit,
            "net.batching.fill_ratio": cmds_per_unit / max_batch,
            "runtime.driver.queue_wait_us": queue_us,
            "runtime.driver.protocol_us": protocol_us,
            "runtime.driver.submit_us_per_cmd": layer_s("runtime.driver") * us,
            "core.request_us_per_cmd": self_s["core.request"] * us,
            "core.message_us_per_cmd": self_s["core.message"] * us,
            "core.timer_us_per_cmd": self_s["core.timer"] * us,
            "core.prepare_per_cmd": c("core.msg.Prepare", 0.0) * per,
            "core.prepareok_per_cmd": c("core.msg.PrepareOk", 0.0) * per,
            "core.clocktime_per_cmd": c("core.msg.ClockTime", 0.0) * per,
            "core.clockwait_per_cmd": c("core.clockwait", 0.0) * per,
            "kvstore.apply_us_per_cmd": layer_s("kvstore") * us,
            "storage.append_us_per_cmd": layer_s("storage") * us,
            "storage.records_per_cmd": c("storage.records", 0.0) * per,
            "sim.events_per_cmd": events * per,
            "sim.us_per_event": self_s["sim.run_until"] * 1e6 / events if events else 0.0,
            "sim.network_us_per_cmd": self_s["sim.network_send"] * us,
            "checker.us_per_op": checker_s * 1e6 / checked_ops if checked_ops else 0.0,
            "checker.fast_path_share": c("checker.fast", 0.0) / checks if checks else 0.0,
            "gc.full_per_s": full / window if window else 0.0,
            "gc.pause_max_ms": max(pauses, default=0.0) * 1e3,
            "gc.pause_ms_per_s": sum(pauses) * 1e3 / window if window else 0.0,
            "loop.busy_us_per_cmd": busy_us,
            "loop.residual_us_per_cmd": budget["loop.residual"],
            "trace.spans_per_cmd": self.span_count * per,
            "trace.overhead_frac": busy_us / untraced_busy_us_per_cmd - 1.0,
        }
        return metrics, budget


def format_budget(budget: dict[str, float], cmds: int) -> str:
    """The layer budget as an aligned table (µs of busy CPU per command)."""
    lines = [f"layer budget: self time per committed command, {cmds} traced commands"]
    for layer, value in budget.items():
        lines.append(f"  {layer:<16} {value:10.2f} us")
    lines.append(f"  {'= busy':<16} {sum(budget.values()):10.2f} us")
    return "\n".join(lines)


#: Unit of every per-layer metric, in the order they are reported.
PER_LAYER_UNITS = {
    "net.wire.encode_us_per_cmd": "us",
    "net.wire.decode_us_per_cmd": "us",
    "net.wire.bytes_per_cmd": "bytes",
    "net.wire.payload_ratio": "ratio",
    "net.tcp.frames_per_cmd": "count",
    "net.tcp.msgs_per_frame": "count",
    "net.tcp.frame_us_per_cmd": "us",
    "net.tcp.send_failures": "count",
    "net.batching.us_per_cmd": "us",
    "net.batching.cmds_per_unit": "count",
    "net.batching.fill_ratio": "ratio",
    "runtime.driver.queue_wait_us": "us",
    "runtime.driver.protocol_us": "us",
    "runtime.driver.submit_us_per_cmd": "us",
    "core.request_us_per_cmd": "us",
    "core.message_us_per_cmd": "us",
    "core.timer_us_per_cmd": "us",
    "core.prepare_per_cmd": "count",
    "core.prepareok_per_cmd": "count",
    "core.clocktime_per_cmd": "count",
    "core.clockwait_per_cmd": "count",
    "kvstore.apply_us_per_cmd": "us",
    "storage.append_us_per_cmd": "us",
    "storage.records_per_cmd": "count",
    "sim.events_per_cmd": "count",
    "sim.us_per_event": "us",
    "sim.network_us_per_cmd": "us",
    "checker.us_per_op": "us",
    "checker.fast_path_share": "ratio",
    "gc.full_per_s": "1/s",
    "gc.pause_max_ms": "ms",
    "gc.pause_ms_per_s": "ms/s",
    "loop.busy_us_per_cmd": "us",
    "loop.residual_us_per_cmd": "us",
    "trace.spans_per_cmd": "count",
    "trace.overhead_frac": "ratio",
}


def per_layer(values: dict[str, float]) -> dict[str, dict[str, object]]:
    """Per-layer values as result metrics, with their units."""
    return {key: {"value": values[key], "unit": unit} for key, unit in PER_LAYER_UNITS.items()}
