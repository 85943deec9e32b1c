"""Eavesdropper detection, scenario-driven: every registered adversary vs the protocol.

Reproduces, at example scale, the §III/§IV security story through the
adversarial scenario engine: each canonical preset of
:mod:`repro.attacks.scenarios` — strength-parameterised channel attacks,
late-onset and intermittent schedules, impersonation, composed
multi-adversary stacks, source tampering and the passive classical tap — is
evaluated against full protocol sessions and its detection statistics
printed.  The declarative specs used here are exactly the ones
``ProtocolConfig.scenario``, ``ServiceConfig.with_scenario`` and network
``SessionRequest.scenario`` accept, so any line of the table can be replayed
on any execution layer.

Run with::

    python examples/eavesdropper_detection.py

Doctest sanity (the analytic anchors the table is checked against)::

    >>> from repro.attacks import ImpersonationAttack, SourceTamperAttack
    >>> round(ImpersonationAttack.detection_probability(8), 6)
    0.999985
    >>> round(SourceTamperAttack.critical_strength(), 3)
    0.293
"""

from __future__ import annotations

from repro import ServiceConfig
from repro.attacks import (
    ImpersonationAttack,
    evaluate_attack,
    list_scenarios,
)

MESSAGE = "1011001110001111"
TRIALS = 4


def main() -> None:
    # The per-session protocol parameters come from the service-level
    # builder: paper defaults (η=10 channel, l=8) with lighter DI rounds,
    # mapped onto a ProtocolConfig for the attack-evaluation harness.
    service_config = ServiceConfig.paper_default().with_session(check_pairs_per_round=64)
    config = service_config.protocol_config(message_length=len(MESSAGE), seed=0)

    print("Eavesdropper detection with UA-DI-QSDC — scenario registry sweep")
    print("================================================================")
    print(f"{'scenario':<30s} {'detected':>9s} {'delivered':>10s}  abort reasons")

    honest = evaluate_attack(config, None, MESSAGE, trials=TRIALS, rng=100)
    print(
        f"{'honest (no attack)':<30s} {honest.detection_rate:>8.0%} "
        f"{honest.messages_delivered:>10d}  {honest.abort_reasons or '-'}"
    )
    for index, (name, schedule, _description) in enumerate(list_scenarios()):
        evaluation = evaluate_attack(
            config, schedule.attack_factory(), MESSAGE, trials=TRIALS, rng=101 + index
        )
        print(
            f"{name:<30s} {evaluation.detection_rate:>8.0%} "
            f"{evaluation.messages_delivered:>10d}  {evaluation.abort_reasons or '-'}"
        )

    print()
    print("impersonation detection probability vs identity length l  (theory 1-(1/4)^l):")
    for identity_pairs in (1, 2, 4, 8):
        theoretical = ImpersonationAttack.detection_probability(identity_pairs)
        print(f"  l = {identity_pairs:<2d}  ->  {theoretical:.6f}")


if __name__ == "__main__":
    import doctest

    failures, _tests = doctest.testmod()
    if failures:
        raise SystemExit(f"{failures} doctest failure(s)")
    main()
