"""Experiment ``network_scale``: many users, many relays, concurrent traffic.

The paper evaluates one Alice–Bob session over one emulated channel; this
experiment exercises the :mod:`repro.network` subsystem at system scale: a
multi-node topology (grid by default), Poisson traffic between uniformly
random user pairs, per-node qubit-capacity admission control, hop-by-hop
trusted-relay forwarding (a full UA-DI-QSDC session per hop), and optional
compromised relays mounting intercept-resend attacks on the traffic they
forward.

The run is deterministic for a given seed — including across serial and
threaded execution — and reports the operator-facing aggregates defined in
:mod:`repro.network.metrics` (throughput, latency, abort/rejection rates,
QBER).  Quick kwargs simulate 50 sessions on a 3×3 grid in a few seconds;
the full-size defaults run 200 sessions on a 4×4 grid with a larger DI-check
budget per hop.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.artifacts.metrics import register_metrics
from repro.attacks.intercept_resend import InterceptResendAttack
from repro.exceptions import ExperimentError
from repro.network.metrics import NetworkResult
from repro.network.scheduler import PoissonTraffic, simulate_network
from repro.network.topology import NetworkTopology, build_topology
from repro.protocol.config import SessionParameters
from repro.quantum.channels import depolarizing_channel

__all__ = ["build_network", "run_network_scale"]


def build_network(
    topology: str = "grid",
    rows: int = 4,
    cols: int = 4,
    num_nodes: int | None = None,
    qubit_capacity: int | None = 256,
    memory_dephasing: float = 0.0,
    compromised: Sequence[str] = (),
    geometric_radius: float = 0.45,
    topology_seed: int = 0,
) -> NetworkTopology:
    """Build the experiment's topology (grid by default, others by name).

    ``num_nodes`` sizes the non-grid shapes; ``rows``/``cols`` size the grid.
    ``memory_dephasing`` > 0 gives every node a depolarizing storage memory,
    so queueing delay physically degrades held qubits.  ``compromised``
    names nodes that mount intercept-resend attacks on traversing sessions.
    """
    node_kwargs = {
        "qubit_capacity": qubit_capacity,
        "memory_decoherence": (
            depolarizing_channel(memory_dephasing) if memory_dephasing > 0 else None
        ),
    }
    if topology == "grid":
        network = build_topology("grid", rows=rows, cols=cols, **node_kwargs)
    elif topology == "geometric":
        network = build_topology(
            "geometric",
            num_nodes=num_nodes or rows * cols,
            radius=geometric_radius,
            rng=topology_seed,
            **node_kwargs,
        )
    else:
        network = build_topology(topology, num_nodes=num_nodes or rows * cols, **node_kwargs)
    for name in compromised:
        network.compromise(
            name, lambda rng: InterceptResendAttack(rng=rng)
        )
    return network


def run_network_scale(
    topology: str = "grid",
    rows: int = 4,
    cols: int = 4,
    num_nodes: int | None = None,
    num_sessions: int = 200,
    rate: float = 400.0,
    message_length: int = 16,
    identity_pairs: int = 2,
    check_pairs: int = 32,
    qubit_capacity: int | None = 256,
    memory_dephasing: float = 0.0,
    compromised: Sequence[str] = (),
    geometric_radius: float = 0.45,
    routing: str = "hops",
    max_wait: float | None = 0.25,
    executor: str = "thread",
    max_workers: int | None = None,
    seed: int = 7,
) -> NetworkResult:
    """Simulate concurrent QSDC traffic on a multi-node network.

    Parameters mirror the two layers: topology shape and node resources
    (``topology``/``rows``/``cols``/``qubit_capacity``/``memory_dephasing``/
    ``compromised``), traffic (``num_sessions``/``rate``/``message_length``),
    per-hop protocol budget (``identity_pairs``/``check_pairs`` — note the
    paper's d=256 DI-check budget is cut down here, which raises the
    statistical abort rate in exchange for CI-friendly runtimes), and
    scheduling (``routing``/``max_wait``/``executor``/``seed``).
    """
    if num_sessions < 1:
        raise ExperimentError("num_sessions must be positive")
    network = build_network(
        topology=topology,
        rows=rows,
        cols=cols,
        num_nodes=num_nodes,
        qubit_capacity=qubit_capacity,
        memory_dephasing=memory_dephasing,
        compromised=compromised,
        geometric_radius=geometric_radius,
        topology_seed=seed,
    )
    params = SessionParameters(
        identity_pairs=identity_pairs, check_pairs_per_round=check_pairs
    )
    traffic = PoissonTraffic(
        num_sessions=num_sessions, rate=rate, message_length=message_length
    )
    return simulate_network(
        network,
        traffic,
        routing_policy=routing,
        session_params=params,
        max_wait=max_wait,
        seed=seed,
        executor=executor,
        max_workers=max_workers,
    )


@register_metrics(NetworkResult)
def network_artifact_metrics(result: NetworkResult) -> dict:
    """Artifact metrics for network simulations: traffic, latency, quality."""
    return {
        "num_sessions": result.num_sessions,
        "delivered": result.delivered_count,
        "delivered_with_errors": result.count("delivered_with_errors"),
        "aborted": result.aborted_count,
        "rejected": result.rejected_count,
        "throughput_sessions_per_s": result.throughput_sessions,
        "throughput_bits_per_s": result.throughput_bits,
        "sim_time_s": result.sim_time,
        "mean_latency_s": result.mean_latency,
        "mean_wait_s": result.mean_wait,
        "abort_rate": result.abort_rate,
        "rejection_rate": result.rejection_rate,
        "mean_qber": result.mean_qber,
        "mean_chsh": result.mean_chsh,
        "mean_hops": result.mean_hops,
    }
