"""Multi-hop delivery against the product law of independent trusted relays.

A trusted relay decodes each hop and re-encodes the bits for the next, so a
k-hop session is delivered exactly when each of its k hop sessions succeeds.
Hop sessions draw their randomness from independent seeds, and on a
depolarizing link a hop's success does not depend on the message it carries
(every Bell state is corrupted alike), so the k-hop delivery rate is the
product of the per-hop rates measured on their own: ``r_k = r_1 ** k``.

The law does not hold on identity-chain (amplitude-damping) links: there the
check-bit errors of a hop depend on the message bits, which every relay
forwards unchanged, so hops are correlated through the message (at η = 30 a
3-hop line delivered 0.482 of 400 sessions against 0.738³ = 0.402).

The band is the delta method's: with ``n1`` one-hop and ``n3`` three-hop
sessions, ``r̂3 − r̂1³`` has variance ``r3 (1 − r3) / n3 + (3 r1²)² r1 (1 − r1) / n1``
under the law, estimated by plugging in ``r̂1``; the test fails when the
standardised difference exceeds the two-sided normal quantile of a 1e-6
false-alarm rate (|z| > 4.89).
"""

from __future__ import annotations

import math
from statistics import NormalDist

from repro.channel.quantum_channel import DepolarizingChannel
from repro.network import SessionParameters, SessionRequest, line_topology, run_session
from repro.network.routing import find_route

#: Two-sided false-alarm rate of the band.
FALSE_ALARM = 1e-6
Z_CRITICAL = NormalDist().inv_cdf(1 - FALSE_ALARM / 2)

SESSIONS = 1500
DEPOLARIZING = 0.05
PARAMS = SessionParameters(identity_pairs=2, check_pairs_per_round=32)


def _delivery_rate(hops: int, first_seed: int) -> float:
    """Delivered fraction of SESSIONS 8-bit sessions over a *hops*-hop line."""
    topology = line_topology(
        hops + 1, channel_factory=lambda length: DepolarizingChannel(DEPOLARIZING)
    )
    source, target = topology.node_names[0], topology.node_names[-1]
    route = find_route(topology, source, target)
    request = SessionRequest(0, source, target, 8, 0.0)
    delivered = sum(
        run_session(topology, route, request, PARAMS, seed=seed).delivered
        for seed in range(first_seed, first_seed + SESSIONS)
    )
    return delivered / SESSIONS


def test_three_hop_delivery_is_the_cube_of_one_hop():
    one_hop = _delivery_rate(1, first_seed=0)
    three_hop = _delivery_rate(3, first_seed=10_000)
    expected = one_hop**3
    # Neither rate is degenerate, so the band has a positive width.
    assert 0.2 < one_hop < 0.9 and 0.05 < three_hop < 0.8
    variance = (
        expected * (1 - expected) / SESSIONS
        + (3 * one_hop**2) ** 2 * one_hop * (1 - one_hop) / SESSIONS
    )
    z = (three_hop - expected) / math.sqrt(variance)
    assert abs(z) <= Z_CRITICAL, (
        f"3-hop rate {three_hop:.4f} vs 1-hop rate cubed {expected:.4f} "
        f"(z = {z:.2f}, band ±{Z_CRITICAL:.2f})"
    )
