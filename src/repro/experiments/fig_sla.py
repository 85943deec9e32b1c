"""Experiment ``fig_sla``: service-level objectives under evolving conditions.

``network_scale`` asks how a frozen network behaves under one load;
``fig_load`` stresses the delivery runtime's queues.  This experiment asks
the operator's *SLA* question: what can N users at offered load L expect
from topology T when the environment itself is moving — channels drifting,
devices aging, links and nodes failing and recovering — and where does the
service break?  It sweeps offered load × condition profile on one topology
with three QoS classes (``control``/``interactive``/``bulk``, weighted-fair
admission) and reports, per profile:

* the **goodput curve** (delivered bits per second versus offered load) and
  its **knee** — the first load whose goodput efficiency falls below half
  the light-load efficiency, i.e. where adding traffic stops buying
  delivery;
* **per-class latency percentiles** (p50/p95/p99 of arrival-to-finish of
  delivered sessions), showing what the weighted-fair scheduler protects as
  the network saturates;
* the **outage-tail decomposition** — why the non-delivered sessions were
  lost, split into scheduling losses (no route, capacity exhaustion,
  patience expiry, outage-blocked expiry) and quantum losses (per abort
  reason), plus how many sessions were re-routed around failure windows.

Conditions come from the named profiles in
:mod:`repro.network.dynamics` (``static`` / ``drift`` / ``outage`` /
``drift_outage``), built deterministically from the experiment seed over the
sweep's own time horizon.  Every number is a pure function of ``seed``:
byte-identical across reruns and across serial/threaded execution (the
determinism tests run the quick configuration both ways over several seeds).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.artifacts.metrics import register_metrics
from repro.exceptions import ExperimentError
from repro.network.dynamics import CONDITION_PROFILES, condition_profile
from repro.network.metrics import NetworkResult
from repro.network.routing import mean_route_hops
from repro.network.scheduler import (
    DEFAULT_QOS_WEIGHTS,
    PoissonTraffic,
    QoSPolicy,
    simulate_network,
)
from repro.network.topology import NetworkTopology
from repro.protocol.config import SessionParameters

__all__ = ["SLAPoint", "SLAStudyResult", "run_fig_sla"]

#: Default QoS class mix of the offered traffic (weights, not probabilities).
DEFAULT_PRIORITY_MIX = {"control": 1.0, "interactive": 1.0, "bulk": 2.0}

#: Goodput-efficiency fraction below which a load point is past the knee.
_KNEE_EFFICIENCY = 0.5


@dataclass
class SLAPoint:
    """One (condition profile, offered load) cell of the sweep."""

    profile: str
    load: float
    rate: float
    horizon: float
    result: NetworkResult

    @property
    def goodput_bits(self) -> float:
        """Delivered message bits per second of simulated time."""
        return self.result.throughput_bits

    @property
    def efficiency(self) -> float:
        """Goodput per unit of offered bit rate (1.0 = everything delivered)."""
        offered = self.rate * self.result.records[0].message_length if (
            self.result.records
        ) else 0.0
        return self.goodput_bits / offered if offered > 0 else 0.0


@dataclass
class SLAStudyResult:
    """Everything one ``fig_sla`` run produced."""

    topology_name: str
    num_nodes: int
    num_links: int
    message_length: int
    num_sessions: int
    loads: tuple[float, ...]
    profiles: tuple[str, ...]
    qos_weights: dict[str, float]
    priority_mix: dict[str, float]
    base_rate: float
    points: list[SLAPoint] = field(default_factory=list)

    def point(self, profile: str, load: float) -> SLAPoint:
        for point in self.points:
            if point.profile == profile and point.load == load:
                return point
        raise ExperimentError(f"no sweep point ({profile!r}, {load})")

    def goodput_curve(self, profile: str) -> list[tuple[float, float]]:
        """``(load, goodput_bits)`` pairs of one profile, in load order."""
        return [
            (point.load, point.goodput_bits)
            for point in self.points
            if point.profile == profile
        ]

    def goodput_knee(self, profile: str) -> float:
        """The profile's knee load: first load past half light-load efficiency.

        Falls back to the largest swept load when the curve never collapses
        (the service scaled through the whole sweep).
        """
        curve = [point for point in self.points if point.profile == profile]
        if not curve:
            raise ExperimentError(f"no sweep points for profile {profile!r}")
        reference = curve[0].efficiency
        if reference <= 0:
            return curve[0].load
        for point in curve:
            if point.efficiency < _KNEE_EFFICIENCY * reference:
                return point.load
        return curve[-1].load


def _capacity_rate(
    topology: NetworkTopology,
    params: SessionParameters,
    message_length: int,
    hop_overhead: float,
) -> float:
    """Rough sessions/second the network can serve (the load=1.0 anchor).

    A session reserves ``pairs`` qubits at each endpoint of each of its hops
    (≈ ``2 × pairs × hops`` total) for ``hops × (pairs × channel_delay +
    hop_overhead)`` seconds, so the sustainable concurrency is the total
    qubit capacity divided by the per-session footprint.  This is an
    estimate — the sweep's whole point is finding the *empirical* knee —
    but anchoring loads to it keeps one sweep meaningful across topologies.
    """
    pairs = params.pairs_per_hop(message_length)
    mean_hops = mean_route_hops(topology)
    link = next(iter(topology.links))
    hop_time = pairs * link.quantum_channel.duration() + hop_overhead
    duration = max(mean_hops * hop_time, 1e-12)
    total_qubits = sum(
        topology.node(name).qubit_capacity or 0 for name in topology.node_names
    )
    if total_qubits <= 0:
        # Uncapped nodes: concurrency is unbounded, anchor on service time.
        return 8.0 / duration
    concurrency = max(1.0, total_qubits / (2.0 * pairs * mean_hops))
    return concurrency / duration


def run_fig_sla(
    rows: int = 3,
    cols: int = 3,
    num_sessions: int = 60,
    message_length: int = 8,
    identity_pairs: int = 1,
    check_pairs: int = 8,
    qubit_capacity: int = 192,
    loads: tuple[float, ...] = (0.5, 1.5, 3.0),
    profiles: tuple[str, ...] = ("static", "drift", "drift_outage"),
    priority_mix: dict[str, float] | None = None,
    qos_weights: dict[str, float] | None = None,
    hop_overhead: float = 1e-3,
    max_wait_factor: float = 8.0,
    executor: str = "thread",
    max_workers: int | None = None,
    seed: int = 13,
) -> SLAStudyResult:
    """Sweep offered load × condition profile on a ``rows×cols`` grid.

    ``loads`` are relative to the estimated service capacity (1.0 ≈ the
    network's sustainable session rate); ``max_wait_factor`` sets each
    point's patience window as a multiple of the mean session duration so
    rejection behaviour scales with the sweep.  ``profiles`` name entries of
    :data:`~repro.network.dynamics.CONDITION_PROFILES`.  All results are
    deterministic in *seed* whatever ``executor`` runs the sessions.
    """
    if num_sessions < 1:
        raise ExperimentError("num_sessions must be positive")
    if not loads or any(load <= 0 for load in loads):
        raise ExperimentError("loads must be positive")
    for profile in profiles:
        if profile not in CONDITION_PROFILES:
            raise ExperimentError(
                f"unknown condition profile {profile!r}; known: "
                f"{sorted(CONDITION_PROFILES)}"
            )
    from repro.experiments.network_scale import build_network

    params = SessionParameters(
        identity_pairs=identity_pairs, check_pairs_per_round=check_pairs
    )
    mix = dict(DEFAULT_PRIORITY_MIX if priority_mix is None else priority_mix)
    qos = QoSPolicy(weights=dict(DEFAULT_QOS_WEIGHTS if qos_weights is None else qos_weights))

    topology = build_network(
        topology="grid", rows=rows, cols=cols, qubit_capacity=qubit_capacity
    )
    base_rate = _capacity_rate(topology, params, message_length, hop_overhead)
    pairs = params.pairs_per_hop(message_length)
    link = next(iter(topology.links))
    mean_duration = mean_route_hops(topology) * (
        pairs * link.quantum_channel.duration() + hop_overhead
    )

    points: list[SLAPoint] = []
    for profile_index, profile in enumerate(profiles):
        for load_index, load in enumerate(loads):
            rate = load * base_rate
            # Horizon covering arrivals plus a service tail, so condition
            # schedules span the whole run.
            horizon = 1.5 * num_sessions / rate + 4.0 * mean_duration
            point_seed = seed + 1009 * profile_index + 101 * load_index
            dynamics = condition_profile(profile, topology, seed=point_seed, horizon=horizon)
            traffic = PoissonTraffic(
                num_sessions=num_sessions,
                rate=rate,
                message_length=message_length,
                priority_mix=mix,
            )
            result = simulate_network(
                topology,
                traffic,
                session_params=params,
                hop_overhead=hop_overhead,
                max_wait=max_wait_factor * mean_duration,
                seed=point_seed,
                executor=executor,
                max_workers=max_workers,
                dynamics=dynamics,
                qos=qos,
            )
            points.append(
                SLAPoint(
                    profile=profile,
                    load=load,
                    rate=rate,
                    horizon=horizon,
                    result=result,
                )
            )

    return SLAStudyResult(
        topology_name=topology.name,
        num_nodes=topology.num_nodes,
        num_links=topology.num_links,
        message_length=message_length,
        num_sessions=num_sessions,
        loads=tuple(loads),
        profiles=tuple(profiles),
        qos_weights=dict(qos.weights),
        priority_mix=mix,
        base_rate=base_rate,
        points=points,
    )


@register_metrics(SLAStudyResult)
def sla_artifact_metrics(result: SLAStudyResult) -> dict:
    """Gated metrics: knees, per-point delivery and per-class percentiles.

    Every value is a deterministic function of the experiment seed (no
    wall-clock quantities), so the artifact pipeline can pin them.
    """
    metrics: dict[str, Any] = {
        "num_sessions": result.num_sessions,
        "base_rate_sessions_per_s": result.base_rate,
    }
    for profile in result.profiles:
        metrics[f"{profile}_knee_load"] = result.goodput_knee(profile)
    for point in result.points:
        prefix = f"{point.profile}_load{point.load:g}"
        network = point.result
        metrics[f"{prefix}_delivered"] = network.delivered_count
        metrics[f"{prefix}_aborted"] = network.aborted_count
        metrics[f"{prefix}_rejected"] = network.rejected_count
        metrics[f"{prefix}_goodput_bits_per_s"] = point.goodput_bits
        metrics[f"{prefix}_reroutes"] = network.reroute_count
        for reason, count in network.outage_decomposition().items():
            metrics[f"{prefix}_lost_{reason.replace(':', '_')}"] = count
        for class_name, percentiles in network.class_latency_percentiles().items():
            for label, value in percentiles.items():
                metrics[f"{prefix}_{class_name}_{label}"] = value
    return metrics
