"""Intercept-and-resend attack (paper §III-B).

Eve intercepts the qubits of ``S_A`` that Alice sends to Bob, measures each in
some orthonormal basis ``{|u⟩, |v⟩}`` and resends the collapsed state.  The
measurement destroys the entanglement — the joint state becomes separable
(``|uu⟩`` or ``|vv⟩`` in the paper's notation for an attack before encoding) —
so the second DI security check finds a CHSH value at or below the classical
bound of 2 and the parties abort.

The measurement basis is parameterised by Bloch angles ``(theta, phi)``:
``|u⟩ = cos(θ/2)|0⟩ + e^{iφ} sin(θ/2)|1⟩`` and ``|v⟩`` its orthogonal
complement.  ``theta = 0`` is the computational basis; ``theta = π/2, phi = 0``
is the ``|±⟩`` basis; ``theta = π/4`` is the Breidbart basis that balances
Eve's information gain across the conjugate bases.  Eve may also choose to
attack only a fraction of the transmitted qubits, and may operate in one of
two modes:

* ``basis_mode="fixed"`` — the *collective* strategy: one pre-committed basis
  for every intercepted qubit (the paper's presentation);
* ``basis_mode="random"`` — the *individual* strategy: an independent,
  uniformly random choice between the computational and the ``|±⟩`` basis
  per intercepted qubit, the classic BB84-style eavesdropper.

Both collapse the entanglement of every attacked pair, so the DI check bounds
them identically; they differ in the correlation structure Eve's records keep,
which the scenario engine's detection studies compare.

The deterministic part of a measurement (the outcome cdf and each outcome's
resent state) is a :func:`~repro.quantum.density.state_statistic` of the
pair, tagged with the basis vectors' bytes, so attacked pairs of equal
content share it and receive one read-only resent state per outcome.  Each
attacked pair still makes its own draws in order: the attack decision, the
random basis, then one ``random()`` searched in the cdf, which is exactly
what ``Generator.choice(2, p=…)`` draws.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from repro.attacks.base import Attack
from repro.exceptions import AttackError
from repro.quantum.density import DensityMatrix, state_statistic
from repro.quantum.operators import embedded_operator
from repro.utils.rng import choice_cdf

__all__ = ["InterceptResendAttack"]


class InterceptResendAttack(Attack):
    """Measure-and-resend on the Alice→Bob quantum channel.

    Parameters
    ----------
    theta, phi:
        Bloch angles of the measurement basis (``basis_mode="fixed"``).
    attack_fraction:
        Probability with which each transmitted qubit is attacked (1.0 = every
        qubit, the paper's full-strength attack).
    basis_mode:
        ``"fixed"`` (default) measures every intercepted qubit in the
        ``(theta, phi)`` basis — the collective strategy; ``"random"`` draws
        an independent uniform choice between the computational and the
        ``|±⟩`` basis per qubit — the individual strategy.
    rng:
        Seed or generator for Eve's measurement outcomes and attack decisions.
    """

    def __init__(
        self,
        theta: float = 0.0,
        phi: float = 0.0,
        attack_fraction: float = 1.0,
        basis_mode: str = "fixed",
        rng=None,
    ):
        super().__init__(rng=rng)
        self.attack_fraction = self.validate_fraction(attack_fraction)
        if basis_mode not in ("fixed", "random"):
            raise AttackError(
                f"basis_mode must be 'fixed' or 'random', got {basis_mode!r}"
            )
        self.theta = self.validate_finite(theta, "theta")
        self.phi = self.validate_finite(phi, "phi")
        self.basis_mode = basis_mode
        # (memo tag, measurement) per basis; the individual attack draws an
        # index into the (Z, X) pair.
        self._measurements = (
            (self._measurement(0.0, 0.0), self._measurement(math.pi / 2, 0.0))
            if basis_mode == "random"
            else (self._measurement(self.theta, self.phi),)
        )
        self.name = (
            f"intercept_resend(theta={self.theta:.3f}, "
            f"fraction={self.attack_fraction:g}, mode={self.basis_mode})"
        )
        self.measurement_record: list[tuple[int, int]] = []

    # -- basis -----------------------------------------------------------------------------
    @staticmethod
    def _basis_for(theta: float, phi: float) -> tuple[np.ndarray, np.ndarray]:
        """The ``(|u⟩, |v⟩)`` basis for the given Bloch angles."""
        u = np.array(
            [math.cos(theta / 2), np.exp(1j * phi) * math.sin(theta / 2)],
            dtype=complex,
        )
        v = np.array(
            [-np.exp(-1j * phi) * math.sin(theta / 2), math.cos(theta / 2)],
            dtype=complex,
        )
        return u, v

    def basis_states(self) -> tuple[np.ndarray, np.ndarray]:
        """The configured fixed measurement basis ``(|u⟩, |v⟩)`` as state vectors."""
        return self._basis_for(self.theta, self.phi)

    @classmethod
    def _measurement(cls, theta: float, phi: float) -> tuple[tuple, partial]:
        """The memo tag and the deterministic measurement of one basis."""
        u, v = cls._basis_for(theta, phi)
        projectors = (np.outer(u, u.conj()), np.outer(v, v.conj()))
        return ("intercept", u.tobytes(), v.tobytes()), partial(_branches, projectors)

    # -- hook -------------------------------------------------------------------------------
    def intercept_transmission(self, position: int, state: DensityMatrix) -> DensityMatrix:
        """Measure Alice's qubit (qubit 0) in the ``{|u⟩, |v⟩}`` basis and resend it."""
        if not self.attacks_this_pair(self.attack_fraction):
            return state
        self.intercepted_pairs += 1
        if self.basis_mode == "random":
            # Individual attack: flip between the Z and X bases per qubit.
            tag, measure = self._measurements[int(self.rng.integers(2))]
        else:
            tag, measure = self._measurements[0]
        cdf, resent = state_statistic(tag, state, measure)
        outcome = int(cdf.searchsorted(self.rng.random(), side="right"))
        self.measurement_record.append((position, outcome))
        return resent[outcome]

    # -- analytic predictions --------------------------------------------------------------------
    @staticmethod
    def expected_chsh_after_full_attack() -> float:
        """Upper bound on the CHSH value once every pair has been measured (classical: 2)."""
        return 2.0


def _branches(
    projectors: tuple[np.ndarray, np.ndarray], state: DensityMatrix
) -> tuple[np.ndarray, tuple["DensityMatrix | None", ...]]:
    """The outcome cdf of measuring qubit 0 with *projectors*, and each outcome's state.

    The cdf is the one ``Generator.choice(2, p=…)`` searches for the
    normalised branch probabilities ``Tr(ρ P)``.  Each outcome's state is
    qubit 0 projected onto the observed basis state and renormalised: this
    is exactly "measure and resend the result".  An outcome the cdf never
    draws (a zero-probability branch) has no state.
    """
    rho = state.matrix
    full = [embedded_operator(projector, (0,), state.num_qubits) for projector in projectors]
    probabilities = [max(float(np.real(complex(np.trace(rho @ f)))), 0.0) for f in full]
    total = sum(probabilities)
    if total <= 0:
        raise AttackError("interception hit a zero-probability branch")
    cdf = choice_cdf(np.array([p / total for p in probabilities]))
    cdf.setflags(write=False)
    resent: list[DensityMatrix | None] = []
    lower = 0.0
    for projector, upper in zip(full, cdf.tolist()):
        if upper > lower:
            projected = projector @ rho @ projector
            norm = float(np.real(np.trace(projected)))
            post = DensityMatrix(projected / norm, validate=False)
            post.matrix.setflags(write=False)
            resent.append(post)
        else:
            resent.append(None)
        lower = upper
    return cdf, tuple(resent)
