"""Per-layer tracing from the benchmark's side of the program boundary.

A traced run wraps each layer's public calls — methods on their class,
functions under the module name their caller looks them up in — and records
one span per call: name, start, end, parent span and the index of the timed
call it belongs to.  Spans stay in memory until the run ends.  A span's self
time is its duration minus the time its wrapped children cover, so the self
times of all spans add up to the time the outermost wrapped calls took.

Nothing inside ``src/`` changes; untraced runs never install the wrappers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable

__all__ = ["LAYERS", "PER_LAYER", "Tracer", "layer_metrics", "render_table"]


def _count_protocol(counts: Counter, args: tuple, result: Any) -> None:
    if result.success:
        counts["protocol.delivered"] += 1
    else:
        counts[f"protocol.aborts.{result.abort_reason.value}"] += 1


def _count_pairs(counts: Counter, args: tuple, result: Any) -> None:
    counts["channel.transmit.pairs"] += len(args[1])


def _count_cache(counts: Counter, args: tuple, result: Any) -> None:
    counts["quantum.propagator_cache.misses" if result is None else "quantum.propagator_cache.hits"] += 1


#: ``(layer, span name, "module:qualified name", outcome counter)`` of every
#: wrapped call.
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("api", "api.send", "repro.api.service:MessagingService.send", None),
    ("api", "api.deliver", "repro.api.backends:LocalBackend.deliver", None),
    ("protocol", "protocol.session", "repro.protocol.runner:UADIQSDCProtocol.run", _count_protocol),
    ("protocol", "protocol.chsh", "repro.protocol.chsh:DISecurityCheck.estimate", None),
    ("protocol", "protocol.encode", "repro.protocol.encoding:MessageEncoder.encode", None),
    ("protocol", "protocol.plan", "repro.protocol.parties:Alice.apply_plan", None),
    ("protocol", "protocol.plan", "repro.protocol.parties:Bob.apply_plan", None),
    ("protocol", "protocol.measure", "repro.protocol.parties:Bob.bell_measure", None),
    ("channel", "channel.transmit", "repro.channel.quantum_channel:QuantumChannel.transmit_batch", _count_pairs),
    ("network", "network.scheduler", "repro.network.scheduler:NetworkScheduler.run", None),
    ("network", "network.routing", "repro.network.routing:RoutingTable.route", None),
    # The scheduler calls run_session through its own module's namespace.
    ("network", "network.session", "repro.network.scheduler:run_session", None),
    ("runtime", "runtime.ledger", "repro.runtime.admission:NodeCapacityLedger.fits", None),
    ("runtime", "runtime.ledger", "repro.runtime.admission:NodeCapacityLedger.reserve", None),
    ("runtime", "runtime.ledger", "repro.runtime.admission:NodeCapacityLedger.release", None),
    ("runtime", "runtime.wfq", "repro.runtime.admission:WeightedFairSelector.pick", None),
    ("runtime", "runtime.wfq", "repro.runtime.admission:WeightedFairSelector.charge", None),
    # Callers import run_sweep from the module at call time.
    ("experiments.sweep", "experiments.sweep", "repro.experiments.sweep:run_sweep", None),
    ("device", "device.backend", "repro.device.backend:NoisyBackend.run", None),
    ("device", "device.backend", "repro.device.backend:NoisyBackend.run_batch", None),
    ("quantum", "quantum.dense_run", "repro.quantum.simulator:DensityMatrixSimulator.run", None),
    ("quantum", "quantum.dense_batch", "repro.quantum.simulator:DensityMatrixSimulator.run_batch", None),
    ("quantum", "quantum.stabilizer", "repro.quantum.stabilizer:StabilizerSimulator.run", None),
    ("quantum", "quantum.stabilizer", "repro.quantum.stabilizer:StabilizerSimulator.run_batch", None),
    ("quantum", "quantum.tableau_batch", "repro.quantum.tableau_batch:BatchedStabilizerSimulator.run_batch", None),
    ("quantum", "quantum.propagator_cache", "repro.quantum.batch:PropagatorCache.get", _count_cache),
)

#: Layers in table order, and the layer of every span name.
LAYERS = tuple(dict.fromkeys(layer for layer, _, _, _ in TARGETS))
SPAN_LAYER = {span: layer for layer, span, _, _ in TARGETS}

ABORT_REASONS = (
    "round1_chsh_failed",
    "round2_chsh_failed",
    "bob_authentication_failed",
    "alice_authentication_failed",
    "message_integrity_failed",
)
REJECT_REASONS = ("insufficient_capacity", "capacity_timeout", "outage_timeout")
DISPATCH_BACKENDS = ("dense", "stabilizer", "stabilizer_batched")


class Tracer:
    """Wraps the layer calls in :data:`TARGETS` and records their spans."""

    def __init__(self) -> None:
        self.span_names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        #: Index of the timed call now running; spans record it.
        self.op_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        ids: dict[str, int] = {}
        for _, span, target, counter in TARGETS:
            if span not in ids:
                ids[span] = len(self.span_names)
                self.span_names.append(span)
            module_name, qualified = target.split(":")
            owner: Any = importlib.import_module(module_name)
            *path, attribute = qualified.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = inspect.getattr_static(owner, attribute)
            if isinstance(original, staticmethod):
                replacement: Any = staticmethod(self._wrap(original.__func__, ids[span], counter))
            else:
                replacement = self._wrap(original, ids[span], counter)
            self._restore.append((owner, attribute, original))
            setattr(owner, attribute, replacement)

    def uninstall(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    def _wrap(self, func: Callable, span_id: int, counter: Callable | None) -> Callable:
        names, parents, ops = self.name, self.parent, self.op
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(names)
            names.append(span_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.op_id)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if counter is not None:
                counter(tracer.counts, args, result)
            return result

        return traced

    def aggregate(self) -> tuple[dict[str, float], Counter]:
        """Total self seconds and call count per span name."""
        durations = [end - start for start, end in zip(self.start, self.end)]
        covered = [0.0] * len(durations)
        for index, parent in enumerate(self.parent):
            if parent >= 0:
                covered[parent] += durations[index]
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for index, span_id in enumerate(self.name):
            span = self.span_names[span_id]
            self_s[span] += durations[index] - covered[index]
            calls[span] += 1
        return self_s, calls

    def write(self, path: Path) -> None:
        """Write every span, columnar, with times relative to the first."""
        origin = self.start[0] if self.start else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {
                    "names": self.span_names,
                    "name": list(self.name),
                    "parent": list(self.parent),
                    "op": list(self.op),
                    "start_s": [round(value - origin, 9) for value in self.start],
                    "end_s": [round(value - origin, 9) for value in self.end],
                }
            )
        )


#: Every per-layer metric a traced run reports: ``(name, unit)``.
#: ``*.self_ms`` is self time in milliseconds per timed op.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("api.calls", "count"),
    ("api.self_ms", "ms"),
    ("api.fragment_attempts", "count"),
    ("api.retransmissions", "count"),
    ("api.useful_ratio", "ratio"),
    ("protocol.sessions", "count"),
    ("protocol.self_ms", "ms"),
    ("protocol.chsh.calls", "count"),
    ("protocol.chsh.self_ms", "ms"),
    ("protocol.encode.self_ms", "ms"),
    ("protocol.measure.calls", "count"),
    ("protocol.measure.self_ms", "ms"),
    ("protocol.useful_ratio", "ratio"),
    *((f"protocol.aborts.{reason}", "count") for reason in ABORT_REASONS),
    ("channel.transmit.calls", "count"),
    ("channel.transmit.pairs", "count"),
    ("channel.transmit.self_ms", "ms"),
    ("network.self_ms", "ms"),
    ("network.scheduler.self_ms", "ms"),
    ("network.routing.calls", "count"),
    ("network.routing.self_ms", "ms"),
    ("network.session.calls", "count"),
    ("network.session.self_ms", "ms"),
    ("network.hops", "count"),
    ("network.admitted", "count"),
    *((f"network.rejected.{reason}", "count") for reason in REJECT_REASONS),
    ("network.reroutes", "count"),
    ("network.useful_ratio", "ratio"),
    ("runtime.self_ms", "ms"),
    ("runtime.ledger.calls", "count"),
    ("runtime.ledger.self_ms", "ms"),
    ("runtime.wfq.calls", "count"),
    ("runtime.wfq.self_ms", "ms"),
    ("experiments.sweep.self_ms", "ms"),
    ("device.jobs", "count"),
    ("device.backend.self_ms", "ms"),
    *((f"device.dispatch.{backend}", "count") for backend in DISPATCH_BACKENDS),
    ("quantum.self_ms", "ms"),
    ("quantum.dense_run.calls", "count"),
    ("quantum.dense_run.self_ms", "ms"),
    ("quantum.dense_batch.calls", "count"),
    ("quantum.dense_batch.self_ms", "ms"),
    ("quantum.stabilizer.calls", "count"),
    ("quantum.stabilizer.self_ms", "ms"),
    ("quantum.tableau_batch.calls", "count"),
    ("quantum.tableau_batch.self_ms", "ms"),
    ("quantum.propagator_cache.hit_ratio", "ratio"),
    ("trace.wall_ms", "ms"),
    ("trace.unattributed_ms", "ms"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    self_s: dict[str, float],
    calls: Counter,
    counts: Counter,
    ops: int,
    wall_s: float,
) -> dict[str, float]:
    """The :data:`PER_LAYER` values of one traced run.

    ``counts`` merges the tracer's outcome counters with the ones the
    workload's output checks read from returned results.
    """
    per_op_ms = 1000.0 / ops

    def self_ms(*spans: str) -> float:
        return per_op_ms * sum(self_s.get(span, 0.0) for span in spans)

    def layer_ms(layer: str) -> float:
        return self_ms(*(span for span, owner in SPAN_LAYER.items() if owner == layer))

    values = {
        "api.calls": calls["api.send"] + calls["api.deliver"],
        "api.self_ms": layer_ms("api"),
        "api.fragment_attempts": counts["api.fragment_attempts"],
        "api.retransmissions": counts["api.retransmissions"],
        "api.useful_ratio": _ratio(counts["api.frames_delivered"], counts["api.fragment_attempts"]),
        "protocol.sessions": calls["protocol.session"],
        "protocol.self_ms": layer_ms("protocol"),
        "protocol.chsh.calls": calls["protocol.chsh"],
        "protocol.chsh.self_ms": self_ms("protocol.chsh"),
        "protocol.encode.self_ms": self_ms("protocol.encode"),
        "protocol.measure.calls": calls["protocol.measure"],
        "protocol.measure.self_ms": self_ms("protocol.measure"),
        "protocol.useful_ratio": _ratio(counts["protocol.delivered"], calls["protocol.session"]),
        "channel.transmit.calls": calls["channel.transmit"],
        "channel.transmit.pairs": counts["channel.transmit.pairs"],
        "channel.transmit.self_ms": layer_ms("channel"),
        "network.self_ms": layer_ms("network"),
        "network.scheduler.self_ms": self_ms("network.scheduler"),
        "network.routing.calls": calls["network.routing"],
        "network.routing.self_ms": self_ms("network.routing"),
        "network.session.calls": calls["network.session"],
        "network.session.self_ms": self_ms("network.session"),
        "network.hops": counts["network.hops"],
        "network.admitted": counts["network.admitted"],
        "network.reroutes": counts["network.reroutes"],
        "network.useful_ratio": _ratio(counts["network.status.delivered"], counts["network.admitted"]),
        "runtime.self_ms": layer_ms("runtime"),
        "runtime.ledger.calls": calls["runtime.ledger"],
        "runtime.ledger.self_ms": self_ms("runtime.ledger"),
        "runtime.wfq.calls": calls["runtime.wfq"],
        "runtime.wfq.self_ms": self_ms("runtime.wfq"),
        "experiments.sweep.self_ms": layer_ms("experiments.sweep"),
        "device.jobs": counts["device.jobs"],
        "device.backend.self_ms": layer_ms("device"),
        "quantum.self_ms": layer_ms("quantum"),
        "quantum.dense_run.calls": calls["quantum.dense_run"],
        "quantum.dense_run.self_ms": self_ms("quantum.dense_run"),
        "quantum.dense_batch.calls": calls["quantum.dense_batch"],
        "quantum.dense_batch.self_ms": self_ms("quantum.dense_batch"),
        "quantum.stabilizer.calls": calls["quantum.stabilizer"],
        "quantum.stabilizer.self_ms": self_ms("quantum.stabilizer"),
        "quantum.tableau_batch.calls": calls["quantum.tableau_batch"],
        "quantum.tableau_batch.self_ms": self_ms("quantum.tableau_batch"),
        "quantum.propagator_cache.hit_ratio": _ratio(
            counts["quantum.propagator_cache.hits"],
            counts["quantum.propagator_cache.hits"] + counts["quantum.propagator_cache.misses"],
        ),
        "trace.wall_ms": per_op_ms * wall_s,
        "trace.unattributed_ms": per_op_ms * (wall_s - sum(self_s.values())),
    }
    for reason in ABORT_REASONS:
        values[f"protocol.aborts.{reason}"] = counts[f"protocol.aborts.{reason}"]
    for reason in REJECT_REASONS:
        values[f"network.rejected.{reason}"] = counts[f"network.rejected.{reason}"]
    for backend in DISPATCH_BACKENDS:
        values[f"device.dispatch.{backend}"] = counts[f"device.dispatch.{backend}"]
    return {name: values[name] for name, _ in PER_LAYER}


def render_table(
    self_s: dict[str, float], calls: Counter, ops: int, wall_s: float
) -> list[str]:
    """The per-layer table: calls, self ms per op and share of traced wall time."""
    per_op_ms = 1000.0 / ops
    lines = [f"{'layer / span':<28}{'calls':>10}{'self ms/op':>13}{'share':>9}"]
    for layer in LAYERS:
        spans = [span for span, owner in SPAN_LAYER.items() if owner == layer]
        layer_s = sum(self_s.get(span, 0.0) for span in spans)
        lines.append(
            f"{layer:<28}{sum(calls[span] for span in spans):>10}"
            f"{per_op_ms * layer_s:>13.4f}{layer_s / wall_s:>9.1%}"
        )
        if len(spans) > 1:
            for span in spans:
                lines.append(
                    f"  {span:<26}{calls[span]:>10}{per_op_ms * self_s.get(span, 0.0):>13.4f}"
                    f"{self_s.get(span, 0.0) / wall_s:>9.1%}"
                )
    covered = sum(self_s.values())
    lines.append(
        f"{'(outside wrapped calls)':<28}{'':>10}{per_op_ms * (wall_s - covered):>13.4f}"
        f"{(wall_s - covered) / wall_s:>9.1%}"
    )
    lines.append(f"{'traced wall time':<28}{'':>10}{per_op_ms * wall_s:>13.4f}{1:>9.1%}")
    return lines
