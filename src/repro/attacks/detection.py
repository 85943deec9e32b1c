"""Detection statistics shared by the attack experiments.

Every attack in the paper is "detected" when at least one protocol safeguard
fires: a DI security-check round reports ``S ≤ 2``, an identity verification
exceeds its tolerance, or the check-bit comparison fails.
:func:`evaluate_attack` runs the protocol repeatedly under a given attack
factory and aggregates how often and *where* the attack was caught, which is
exactly what the §IV attack-simulation discussion reports.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import AttackError
from repro.protocol.config import ProtocolConfig
from repro.protocol.results import ProtocolResult
from repro.protocol.runner import UADIQSDCProtocol
from repro.utils.rng import as_rng

__all__ = ["AttackEvaluation", "evaluate_attack", "detection_rate"]


@dataclass
class AttackEvaluation:
    """Aggregated outcome of repeated protocol runs under one attack.

    Attributes
    ----------
    attack_name:
        Name of the evaluated attack (``"none"`` for the honest baseline).
    trials:
        Number of protocol sessions executed.
    detections:
        Number of sessions in which the protocol aborted (attack detected).
    abort_reasons:
        Histogram of abort reasons across the detected sessions.
    mean_chsh_round1 / mean_chsh_round2:
        Average CHSH estimates over the sessions that reached each round.
    mean_bob_authentication_error / mean_alice_authentication_error:
        Average identity-verification error rates over sessions that reached
        the respective verification.
    messages_delivered:
        Number of sessions in which Bob decoded a message (attack missed).
    results:
        The individual :class:`~repro.protocol.results.ProtocolResult` objects.
    """

    attack_name: str
    trials: int
    detections: int
    abort_reasons: dict[str, int]
    mean_chsh_round1: float | None
    mean_chsh_round2: float | None
    mean_bob_authentication_error: float | None
    mean_alice_authentication_error: float | None
    messages_delivered: int
    results: list[ProtocolResult] = field(default_factory=list, repr=False)

    @property
    def detection_rate(self) -> float:
        """Fraction of sessions in which the attack was detected."""
        return self.detections / self.trials if self.trials else 0.0

    def summary(self) -> dict:
        """JSON-friendly summary used by the experiment harness."""
        return {
            "attack": self.attack_name,
            "trials": self.trials,
            "detections": self.detections,
            "detection_rate": self.detection_rate,
            "abort_reasons": dict(self.abort_reasons),
            "mean_chsh_round1": self.mean_chsh_round1,
            "mean_chsh_round2": self.mean_chsh_round2,
            "mean_bob_authentication_error": self.mean_bob_authentication_error,
            "mean_alice_authentication_error": self.mean_alice_authentication_error,
            "messages_delivered": self.messages_delivered,
        }


def detection_rate(results: list[ProtocolResult]) -> float:
    """Fraction of protocol results in which a safeguard fired."""
    if not results:
        raise AttackError("detection_rate needs at least one result")
    return sum(1 for result in results if result.eavesdropper_detected) / len(results)


def evaluate_attack(
    config: ProtocolConfig,
    attack_factory: Callable[[np.random.Generator], object] | None,
    message: str,
    trials: int = 10,
    rng=None,
) -> AttackEvaluation:
    """Run the protocol *trials* times under an attack and aggregate detection statistics.

    Parameters
    ----------
    config:
        Base protocol configuration; each trial gets a fresh seed derived from
        *rng* so the runs are independent yet reproducible.
    attack_factory:
        Callable returning a fresh attack instance per trial (or ``None`` for
        the honest baseline).
    message:
        The message Alice attempts to send in every trial.
    trials:
        Number of independent sessions.
    """
    if trials < 1:
        raise AttackError("trials must be at least 1")
    generator = as_rng(rng)

    results: list[ProtocolResult] = []
    abort_counter: Counter = Counter()
    attack_name = "none"
    for _ in range(trials):
        attack = attack_factory(generator) if attack_factory is not None else None
        if attack is not None:
            attack_name = getattr(attack, "name", "attack")
        session_config = config.with_seed(int(generator.integers(0, 2**31 - 1)))
        result = UADIQSDCProtocol(session_config, attack=attack).run(message)
        results.append(result)
        if result.aborted:
            abort_counter[result.abort_reason.value] += 1

    def _mean(values: list[float]) -> float | None:
        return float(np.mean(values)) if values else None

    return AttackEvaluation(
        attack_name=attack_name,
        trials=trials,
        detections=sum(1 for result in results if result.eavesdropper_detected),
        abort_reasons=dict(abort_counter),
        mean_chsh_round1=_mean(
            [r.chsh_round1.value for r in results if r.chsh_round1 is not None]
        ),
        mean_chsh_round2=_mean(
            [r.chsh_round2.value for r in results if r.chsh_round2 is not None]
        ),
        mean_bob_authentication_error=_mean(
            [r.bob_authentication_error for r in results if r.bob_authentication_error is not None]
        ),
        mean_alice_authentication_error=_mean(
            [
                r.alice_authentication_error
                for r in results
                if r.alice_authentication_error is not None
            ]
        ),
        messages_delivered=sum(1 for result in results if result.delivered_message is not None),
        results=results,
    )
