"""Secure messaging across a multi-node QSDC network.

The paper's protocol secures one Alice–Bob link; a deployment is a network
of users and trusted relays.  This example:

1. delivers one real payload corner to corner across a metro-style grid
   through the :class:`~repro.api.service.MessagingService` facade
   (network backend: every fragment is routed, admitted under per-node
   qubit-capacity constraints, and forwarded hop by hop with a full
   UA-DI-QSDC session per hop),
2. pushes a burst of Poisson traffic between random user pairs through the
   scheduler directly,
3. re-runs the same (seeded) traffic with one relay compromised by an
   intercept-resend attacker, showing the per-hop DI security check turning
   the compromise into session aborts.

Run with::

    python examples/network_messaging.py
"""

from __future__ import annotations

from repro import MessagingService, ServiceConfig
from repro.attacks import InterceptResendAttack
from repro.channel.quantum_channel import NoiselessChannel
from repro.experiments import render_result
from repro.network import (
    PoissonTraffic,
    SessionParameters,
    grid_topology,
    simulate_network,
)


def build_network(noiseless: bool = False):
    """A 3×3 grid; each node stores at most 220 qubit halves at a time."""
    factory = (lambda length: NoiselessChannel()) if noiseless else None
    return grid_topology(3, 3, channel_factory=factory, qubit_capacity=220)


def facade_delivery() -> None:
    """One payload, corner to corner, through the service facade.

    Relay nodes hold *two* qubit halves per EPR pair (one per adjacent hop),
    so this demo grid is provisioned with more memory than the traffic study
    below; check pairs per DI round are raised to keep the per-hop CHSH
    sampling variance low across the 4-hop route.
    """
    topology = grid_topology(
        3, 3, channel_factory=lambda length: NoiselessChannel(), qubit_capacity=512
    )
    config = (
        ServiceConfig.networked(topology, source="n0_0", seed=7)
        .with_fragment_bits(32)
        .with_retries(3)
        .with_executor("thread")
        .with_session(check_pairs_per_round=64)
    )
    report = MessagingService(config).send("across the metro grid", to="n2_2")
    route = report.fragments[0].attempts[0].details["route"]

    print("=== Facade delivery (network backend) ===")
    print(f"payload          : {report.sent_payload!r} "
          f"({report.num_payload_bits} bits, {report.num_fragments} fragments)")
    print(f"route            : {' -> '.join(route)}")
    print(f"delivered        : {report.success} -> {report.delivered_payload!r}")
    print(f"sessions run     : {report.total_attempts} "
          f"({report.retransmissions} retransmissions)")
    if report.mean_chsh_round1 is not None:
        print(f"mean CHSH round 1: {report.mean_chsh_round1:.3f}")


def main() -> None:
    facade_delivery()

    params = SessionParameters(identity_pairs=2, check_pairs_per_round=32)
    traffic = PoissonTraffic(num_sessions=24, rate=400.0, message_length=8)

    print()
    print("=== Honest network ===")
    honest = simulate_network(
        build_network(),
        traffic,
        session_params=params,
        seed=2024,
        executor="thread",
    )
    print(render_result(honest))

    print()
    print("=== Same traffic, relay n1_1 compromised (intercept-resend) ===")
    compromised_network = build_network()
    compromised_network.compromise(
        "n1_1", lambda rng: InterceptResendAttack(rng=rng)
    )
    compromised = simulate_network(
        compromised_network,
        traffic,
        session_params=params,
        seed=2024,
        executor="thread",
    )
    print(render_result(compromised))

    touched = [
        record
        for record in compromised.records
        if record.route_nodes and "n1_1" in record.route_nodes
    ]
    aborted = [record for record in touched if record.status == "aborted"]
    print()
    print(
        f"{len(touched)} sessions were routed through the compromised relay; "
        f"{len(aborted)} of them were stopped by the per-hop security checks."
    )
    if touched:
        rate = len(aborted) / len(touched)
        print(f"Detection rate at the compromised relay: {rate:.2f}")


if __name__ == "__main__":
    main()
