"""Secure text messaging over a noisy quantum channel.

The paper motivates UA-DI-QSDC with applications such as secure
communications between parties who must also be sure *who* they are talking
to.  This example sends a short text from Alice to Bob through the
:class:`~repro.api.service.MessagingService` facade over the η=50
identity-gate channel (the ≈3 µs NISQ link), shows the classical transcript a
passive eavesdropper would see (no message content), and verifies the
received text.

The text ↔ bit conversions come from the shared payload codec
(:mod:`repro.api.codec`) — the facade applies them automatically for ``str``
payloads; they are also importable for standalone use::

    from repro.api.codec import text_to_bits, bits_to_text

Run with::

    python examples/secure_text_messaging.py
"""

from __future__ import annotations

from repro import MessagingService, ServiceConfig
from repro.attacks import ClassicalEavesdropper
from repro.protocol import Identity


def main() -> None:
    plaintext = "MEET 9PM"

    # The pre-shared secrets both parties hold (2l bits each).
    alice_identity = Identity.from_string("1101001011010010", owner="alice")
    bob_identity = Identity.from_string("0011100101101100", owner="bob")

    # A passive eavesdropper taps the public classical channel of every
    # fragment session.
    eavesdropper = ClassicalEavesdropper(rng=1)

    # On the η=50 channel individual frames pick up bit errors the protocol's
    # check-bit tolerance lets through; the facade's CRC verification catches
    # them and retransmits, so the retry budget is what buys exact delivery.
    config = (
        ServiceConfig.noisy_nisq(seed=42)            # η=50 ≈ 3 µs channel
        .with_fragment_bits(32)
        .with_retries(12)
        .with_identities(alice_identity, bob_identity)
        .with_session(identity_pairs=alice_identity.num_pairs)
        .with_attack_factory(lambda index, attempt, rng: eavesdropper)
    )
    service = MessagingService(config)
    report = service.send(plaintext)

    print("Secure text messaging with UA-DI-QSDC")
    print("=====================================")
    print(f"plaintext sent        : {plaintext!r} ({report.num_payload_bits} bits, "
          f"{report.num_fragments} fragments)")
    print(f"channel               : {config.channel.name} "
          f"({config.channel.duration() * 1e6:.1f} µs)")
    print(f"delivery succeeded    : {report.success} "
          f"({report.total_attempts} sessions, "
          f"{report.retransmissions} retransmissions)")
    print(f"plaintext received    : {report.delivered_payload!r}")
    print(f"mean CHSH round 1     : {report.mean_chsh_round1:.3f}")
    print(f"mean check-bit QBER   : {report.mean_qber:.4f}")
    print()
    print("what the eavesdropper saw on the classical channel:")
    for topic in eavesdropper.overheard_topics():
        print(f"  - {topic}")
    print("  (no message-pair measurement outcomes are ever announced;")
    print("   the plaintext never appears on the classical channel)")


if __name__ == "__main__":
    main()
