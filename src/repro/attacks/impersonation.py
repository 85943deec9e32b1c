"""Impersonation attack (paper §III-A).

Eve pretends to be Alice (to inject a message) or Bob (to receive the secret
message).  Because she does not know the impersonated party's pre-shared
identity, the best she can do is apply uniformly random Pauli operators on the
identity pairs; the honest verifier, who knows the genuine secret, observes a
wrong Bell state on each pair independently with probability 3/4.  When every
pair must match, the attack survives verification only with probability
``(1/4)**l`` (the paper's figure); a verifier that tolerates a fraction of
mismatches lets more guesses through (:meth:`ImpersonationAttack.detection_probability`).
"""

from __future__ import annotations

import math

from repro.attacks.base import Attack
from repro.exceptions import AttackError

__all__ = ["ImpersonationAttack"]


class ImpersonationAttack(Attack):
    """Eve impersonates one of the legitimate parties.

    Parameters
    ----------
    target:
        ``"alice"`` — Eve plays the sender without knowing ``id_A`` (Bob's
        verification of the ``C_A`` pairs catches her); or ``"bob"`` — Eve
        plays the receiver without knowing ``id_B`` (Alice's verification of
        the announced ``(D_A, D_B)`` results catches her).
    rng:
        Seed or generator for Eve's random Pauli guesses.
    """

    def __init__(self, target: str = "bob", rng=None):
        super().__init__(rng=rng)
        target = target.lower()
        if target not in ("alice", "bob"):
            raise AttackError(f"impersonation target must be 'alice' or 'bob', got {target!r}")
        self.impersonates = target
        self.name = f"impersonation({target})"

    # -- analytic predictions -------------------------------------------------------------
    @staticmethod
    def detection_probability(identity_pairs: int, tolerance: float = 0.0) -> float:
        """Probability that the verifier rejects Eve's random identity guess.

        Each of the ``l`` identity pairs mismatches independently with
        probability 3/4, and verification passes when ``mismatches / l <=
        tolerance`` (the runner's comparison against
        ``ProtocolConfig.authentication_tolerance``).  So the probability is
        ``1 − Σ P(Binomial(l, 3/4) = k)`` over the ``k`` with ``k / l <=
        tolerance``.  The default ``tolerance = 0`` admits ``k = 0`` only,
        which is the paper's ``1 − (1/4)**l``; at ``l = 4`` and the default
        config's 0.25 it is ``1 − 13/256``.
        """
        if identity_pairs < 0:
            raise AttackError("identity_pairs must be non-negative")
        if not 0.0 <= tolerance < 1.0:
            raise AttackError(f"tolerance must lie in [0, 1), got {tolerance!r}")
        if identity_pairs == 0:
            return 0.0
        survival = sum(
            math.comb(identity_pairs, k) * 0.75**k * 0.25 ** (identity_pairs - k)
            for k in range(identity_pairs + 1)
            if k / identity_pairs <= tolerance
        )
        return 1.0 - survival

    @staticmethod
    def survival_probability(identity_pairs: int) -> float:
        """Probability Eve's random guesses pass verification: ``(1/4)**l``."""
        return 1.0 - ImpersonationAttack.detection_probability(identity_pairs)

    @staticmethod
    def expected_mismatch_fraction() -> float:
        """Expected fraction of identity pairs flagged as wrong: 3/4."""
        return 0.75
