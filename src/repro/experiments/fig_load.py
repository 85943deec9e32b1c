"""Experiment ``fig_load``: the delivery runtime under sustained load.

The paper evaluates one protocol session at a time; a deployed QSDC service
faces *traffic*.  This experiment drives tens of thousands of messages
through the concurrent delivery runtime (:mod:`repro.runtime`) on a grid
topology and reports the operator-facing load curves: throughput, latency
percentiles (p50/p95/p99/p999), queue-depth profile, and drop/abort/timeout
rates under each backpressure policy.

Two phases, mirroring the scheduler's reservation/execution split:

1. **Live calibration** — a small batch of real protocol sends runs through
   the actual :class:`~repro.runtime.engine.DeliveryEngine` (replay mode, so
   the batch is deterministic) to measure the protocol abort fraction on
   this topology; the wall-clock timings it also measures are reported but
   kept out of the gated metrics.
2. **Load simulation** — :func:`~repro.runtime.loadgen.simulate_load` plays
   four scenarios on a virtual clock with physics-derived service times
   (the scheduler's ``pairs × channel.duration() + hop_overhead`` formula)
   and the calibrated abort probability:

   * ``steady_block``   — Poisson arrivals below capacity, ``block`` policy,
     unbounded queue: the no-drop baseline (CI's load-smoke gate asserts
     zero drops here).
   * ``overload_reject``— uniform arrivals past capacity into a bounded
     queue with ``reject``: fast-failure load shedding at the edge.
   * ``burst_shed``     — bursty arrivals with ``shed_oldest``: bounded
     staleness under overload.
   * ``closed_loop``    — a fixed client population with think time:
     self-limiting closed-loop load.

Every gated number is a pure function of ``seed`` — byte-identical across
reruns, worker counts and machines — which is what lets the artifact
pipeline pin them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.artifacts.metrics import register_metrics
from repro.exceptions import ExperimentError
from repro.runtime.loadgen import LoadResult, ServiceTimeModel, run_live_calibration, simulate_load

__all__ = ["LoadStudyResult", "run_fig_load"]

#: Offered load relative to service capacity, per scenario.
_SCENARIO_LOADS = {
    "steady_block": 0.7,
    "overload_reject": 2.0,
    "burst_shed": 1.5,
}


@dataclass
class LoadStudyResult:
    """Everything one ``fig_load`` run produced."""

    topology_name: str
    num_nodes: int
    workers: int
    message_length: int
    messages_per_scenario: int
    mean_hops: float
    service_capacity: float
    calibration: dict[str, Any]
    scenarios: list[tuple[str, LoadResult]] = field(default_factory=list)

    @property
    def total_offered(self) -> int:
        return sum(result.offered for _, result in self.scenarios)

    def scenario(self, name: str) -> LoadResult:
        for scenario_name, result in self.scenarios:
            if scenario_name == name:
                return result
        raise ExperimentError(f"unknown load scenario {name!r}")


def run_fig_load(
    rows: int = 3,
    cols: int = 3,
    messages: int = 25_000,
    message_length: int = 16,
    workers: int = 4,
    queue_capacity: int = 64,
    burst_size: int = 64,
    clients: int = 16,
    jitter: float = 0.05,
    calibration_sends: int = 12,
    hop_overhead: float = 1e-3,
    seed: int = 11,
) -> LoadStudyResult:
    """Run the sustained-load study on a ``rows×cols`` grid.

    *messages* is the per-scenario count — four scenarios run, so the study
    drives ``4 × messages`` sends overall.  ``queue_capacity``/``burst_size``
    shape the overload scenarios; ``clients`` sizes the closed loop;
    ``calibration_sends`` real protocol sends measure the abort fraction.
    All results are deterministic in *seed*.
    """
    if messages < 1:
        raise ExperimentError("messages must be positive")
    if workers < 1:
        raise ExperimentError("workers must be positive")
    from repro.api.config import ServiceConfig
    from repro.experiments.network_scale import build_network
    from repro.network.routing import mean_route_hops

    topology = build_network(topology="grid", rows=rows, cols=cols, qubit_capacity=None)

    calibration = run_live_calibration(
        ServiceConfig.networked(topology),
        sends=calibration_sends,
        seed=seed,
        max_workers=workers,
    )
    model = ServiceTimeModel.from_physics(
        topology,
        message_length=message_length,
        hop_overhead=hop_overhead,
        jitter=jitter,
        abort_probability=calibration["abort_probability"],
    )
    mean_hops = mean_route_hops(topology)
    mean_service = model.base_time + model.per_hop_time * (mean_hops - 1.0)
    capacity = workers / mean_service  # messages/second the pool can serve

    common = dict(service_model=model, topology=topology, workers=workers)
    scenarios: list[tuple[str, LoadResult]] = [
        (
            "steady_block",
            simulate_load(
                messages=messages,
                seed=seed,
                arrival="poisson",
                arrival_rate=_SCENARIO_LOADS["steady_block"] * capacity,
                policy="block",
                **common,
            ),
        ),
        (
            "overload_reject",
            simulate_load(
                messages=messages,
                seed=seed + 1,
                arrival="uniform",
                arrival_rate=_SCENARIO_LOADS["overload_reject"] * capacity,
                policy="reject",
                queue_capacity=queue_capacity,
                **common,
            ),
        ),
        (
            "burst_shed",
            simulate_load(
                messages=messages,
                seed=seed + 2,
                arrival="burst",
                arrival_rate=_SCENARIO_LOADS["burst_shed"] * capacity,
                burst_size=burst_size,
                policy="shed_oldest",
                queue_capacity=queue_capacity,
                **common,
            ),
        ),
        (
            "closed_loop",
            simulate_load(
                messages=messages,
                seed=seed + 3,
                arrival="closed",
                clients=clients,
                think_time=mean_service,
                policy="block",
                **common,
            ),
        ),
    ]

    return LoadStudyResult(
        topology_name=topology.name,
        num_nodes=topology.num_nodes,
        workers=workers,
        message_length=message_length,
        messages_per_scenario=messages,
        mean_hops=mean_hops,
        service_capacity=capacity,
        calibration=calibration,
        scenarios=scenarios,
    )


@register_metrics(LoadStudyResult)
def load_artifact_metrics(result: LoadStudyResult) -> dict:
    """Gated metrics: deterministic virtual-time numbers only.

    The calibration's wall-clock measurements (``wall_*``) are deliberately
    excluded — they vary run to run, and gated artifact metrics must be
    byte-identical across reruns.
    """
    metrics: dict[str, Any] = {
        "total_offered": result.total_offered,
        "mean_hops": result.mean_hops,
        "service_capacity_msgs_per_s": result.service_capacity,
        "calibration_sends": result.calibration["sends"],
        "calibration_delivered": result.calibration["delivered"],
        "calibration_abort_probability": result.calibration["abort_probability"],
    }
    for name, scenario in result.scenarios:
        summary = scenario.summary()
        for key in (
            "offered",
            "delivered",
            "aborted",
            "rejected",
            "shed",
            "expired",
            "dropped",
            "throughput",
            "utilization",
            "max_queue_depth",
            "latency_p50",
            "latency_p95",
            "latency_p99",
            "latency_p999",
            "queue_wait_p50",
            "queue_wait_p99",
        ):
            metrics[f"{name}_{key}"] = summary[key]
    return metrics
