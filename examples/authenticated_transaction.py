"""Authenticated financial-transaction transfer (paper §V application scenario).

The paper's conclusion highlights financial transactions and critical
infrastructure as target applications: the receiver must be certain the order
came from the authentic sender, and the sender must be certain only the
authentic receiver can read it.  This example sends a small JSON payment
order as *bytes* through the :class:`~repro.api.service.MessagingService`
facade, then shows an impostor who does not know the pre-shared identity
failing to collect the same order — every fragment session (first attempt
and retransmission alike) is rejected at identity verification, so the
delivery fails as a whole.

Run with::

    python examples/authenticated_transaction.py
"""

from __future__ import annotations

import json

from repro import MessagingService, ServiceConfig
from repro.attacks import ImpersonationAttack
from repro.channel.quantum_channel import IdentityChainChannel
from repro.protocol import Identity


def build_config(seed: int) -> ServiceConfig:
    """Service parameters shared by the honest and the attacked delivery."""
    return (
        ServiceConfig.paper_default(seed=seed)
        .with_channel(IdentityChainChannel(eta=20))
        .with_session(check_pairs_per_round=128)
        .with_fragment_bits(32)
        .with_retries(4)
        .with_identities(
            Identity.from_string("1101001011010010", owner="bank"),
            Identity.from_string("0011100101101100", owner="broker"),
        )
    )


def main() -> None:
    order = {"op": "BUY", "sym": "QKD", "qty": 5}
    payload = json.dumps(order, separators=(",", ":")).encode("ascii")

    print("Authenticated transaction transfer with UA-DI-QSDC")
    print("===================================================")
    print(f"order: {order}  ({8 * len(payload)} bits)")
    print()

    # Honest delivery: the genuine broker receives and verifies the order.
    honest = MessagingService(build_config(seed=31)).send(payload)
    print("1) genuine broker (knows the pre-shared identity)")
    print(f"   delivery succeeded : {honest.success} "
          f"({honest.num_fragments} fragments, {honest.total_attempts} sessions)")
    if honest.success:
        print(f"   order received     : {json.loads(honest.delivered_payload)}")
    print()

    # Attacked delivery: an impostor tries to receive the order without id_B.
    impostor_config = build_config(seed=32).with_attack_factory(
        lambda index, attempt, rng: ImpersonationAttack("bob", rng=rng)
    )
    attacked = MessagingService(impostor_config).send(payload)
    mismatches = [
        attempt.bob_authentication_error
        for fragment in attacked.fragments
        for attempt in fragment.attempts
        if attempt.bob_authentication_error is not None
    ]
    print("2) impostor broker (guesses the identity at random, every attempt)")
    print(f"   delivery succeeded : {attacked.success}")
    print(f"   abort reasons      : {attacked.abort_reasons()}")
    print(f"   identity mismatch  : "
          f"{sum(mismatches) / len(mismatches):.2f} mean over "
          f"{len(mismatches)} sessions (expected ≈ 0.75 for random guesses)")
    print(f"   order delivered    : {attacked.delivered_payload}")
    print()
    tolerance = impostor_config.session.authentication_tolerance
    print("The impostor is rejected before the bank discloses which EPR pairs")
    print("carry the order, so no part of the transaction leaks; a genuine")
    print(f"identity of l=8 pairs detects impostors with probability "
          f"{ImpersonationAttack.detection_probability(8, tolerance):.8f} per session "
          f"at authentication tolerance {tolerance:g}")
    print(f"(1-(1/4)^l = {ImpersonationAttack.detection_probability(8):.8f} when "
          f"every identity pair must match).")


if __name__ == "__main__":
    main()
