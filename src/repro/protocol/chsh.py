"""Device-independent security checks via sampled CHSH estimation.

Both DI security-check rounds of the protocol estimate the CHSH polynomial

    ``S = <a1 b1> + <a1 b2> + <a2 b1> − <a2 b2>``

from measurements on a random subset of ``d`` EPR pairs.  In round 1 Alice and
Bob each measure their own half with independently chosen random settings; in
round 2 Bob holds both halves (Alice has already transmitted her qubits) and
measures both himself.  Either way the estimator is the same: accumulate
coincidence counts per setting pair, form the empirical correlations and the
CHSH value, and compare against the abort threshold (classically ``S ≤ 2``;
the honest value is ``2√2 − ε``).

The measurement settings follow the paper: Alice's angles ``A0=π/4, A1=0,
A2=π/2`` and Bob's ``B1=π/4, B2=−π/4``, with the phase convention discussed in
DESIGN.md so that the ideal value is exactly ``2√2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from repro.exceptions import NonPhysicalStateError, ProtocolError
from repro.quantum.bell import CLASSICAL_CHSH_BOUND, TSIRELSON_BOUND
from repro.quantum.density import DensityMatrix, PairTable, state_statistic
from repro.quantum.measurement import (
    equatorial_observable,
    observable_branches,
    observable_projectors,
    plus_probability,
)
from repro.quantum.states import Statevector
from repro.utils.rng import as_rng, draw_setting_pairs

__all__ = ["CHSHSettings", "CHSHEstimate", "DISecurityCheck"]

#: The (Alice, Bob) setting pairs of the CHSH combination, in estimate order.
_CHSH_CELLS = ((1, 1), (1, 2), (2, 1), (2, 2))


@dataclass(frozen=True)
class CHSHSettings:
    """Measurement settings for the DI security check.

    Attributes
    ----------
    alice_angles:
        Alice's three possible angles ``(A0, A1, A2)``.  ``A0`` overlaps with
        Bob's ``B1`` and is not used in the CHSH combination; rounds where it
        is drawn are discarded from the estimate (as in E91-style protocols).
    bob_angles:
        Bob's two possible angles ``(B1, B2)``.
    conjugate_bob:
        Phase convention for Bob's observable (see DESIGN.md); the default
        True makes the paper's angles reach ``2√2`` on ``|Φ+⟩``.
    use_a0:
        If True, Alice draws uniformly from all three angles (paper's
        description); if False she draws only from the two CHSH angles, which
        uses the check pairs more efficiently.
    threshold:
        Abort threshold for the estimated CHSH value (classical bound 2).
    """

    alice_angles: tuple[float, float, float] = (math.pi / 4, 0.0, math.pi / 2)
    bob_angles: tuple[float, float] = (math.pi / 4, -math.pi / 4)
    conjugate_bob: bool = True
    use_a0: bool = False
    threshold: float = CLASSICAL_CHSH_BOUND

    def __post_init__(self):
        if len(self.alice_angles) != 3:
            raise ProtocolError("alice_angles must contain exactly three angles (A0, A1, A2)")
        if len(self.bob_angles) != 2:
            raise ProtocolError("bob_angles must contain exactly two angles (B1, B2)")
        if not 0 < self.threshold < TSIRELSON_BOUND:
            raise ProtocolError(
                f"threshold must lie in (0, 2√2), got {self.threshold}"
            )

    @property
    def chsh_alice_angles(self) -> tuple[float, float]:
        """The two Alice angles (A1, A2) entering the CHSH combination."""
        return self.alice_angles[1], self.alice_angles[2]


@dataclass
class CHSHEstimate:
    """Result of one sampled CHSH estimation round.

    Attributes
    ----------
    value:
        The estimated CHSH polynomial ``S``.
    correlations:
        Empirical ``E(A_j, B_k)`` per setting pair ``(j, k)`` with j, k in {1, 2}.
    counts:
        Number of samples per setting pair.
    num_pairs:
        Total number of check pairs consumed (including discarded ``A0`` rounds).
    threshold:
        The abort threshold the estimate was compared against.
    """

    value: float
    correlations: dict[tuple[int, int], float]
    counts: dict[tuple[int, int], int]
    num_pairs: int
    threshold: float = CLASSICAL_CHSH_BOUND

    @property
    def epsilon(self) -> float:
        """Deviation from the ideal value: ``ε = 2√2 − S``."""
        return TSIRELSON_BOUND - self.value

    def passed(self) -> bool:
        """True if the estimate exceeds the abort threshold."""
        return self.value > self.threshold

    def violates_classical_bound(self) -> bool:
        """True if the estimate exceeds the classical CHSH bound of 2."""
        return self.value > CLASSICAL_CHSH_BOUND

    def __repr__(self) -> str:
        return (
            f"CHSHEstimate(value={self.value:.4f}, epsilon={self.epsilon:.4f}, "
            f"num_pairs={self.num_pairs}, passed={self.passed()})"
        )


@dataclass
class DISecurityCheck:
    """Sampled CHSH estimation over a collection of (possibly noisy) EPR pairs.

    Parameters
    ----------
    settings:
        The :class:`CHSHSettings` to use; defaults to the paper's settings.
    """

    settings: CHSHSettings = field(default_factory=CHSHSettings)

    def estimate(
        self,
        pairs: "PairTable | Sequence[Statevector | DensityMatrix]",
        rng=None,
    ) -> CHSHEstimate:
        """Estimate the CHSH value from single-shot measurements on *pairs*.

        Each pair is measured once: a random Alice setting on qubit 0 and a
        random Bob setting on qubit 1 (this models round 1, where the two
        parties measure their own halves, and round 2 equally well, since in
        round 2 Bob simply performs both measurements himself).

        Per pair the generator gives Alice's setting, Bob's setting and the
        two uniforms two :func:`~repro.quantum.measurement.measure_observable`
        calls would draw; :func:`~repro.utils.rng.draw_setting_pairs` returns
        all of them as arrays, so the stream is the one a pair-by-pair loop
        consumes.  Each distinct pair state (an id of a
        :class:`~repro.quantum.density.PairTable`; a sequence is grouped by
        object once) is looked up once in
        :func:`~repro.quantum.density.state_statistic`, which keeps its block
        of branch statistics ``(p_alice_plus, p_bob_plus | alice=+1,
        p_bob_plus | alice=−1)``, one row per setting pair the settings can
        draw.  Each pair's row is one gather by (id, Alice setting, Bob
        setting), and every outcome compares its uniform against those
        floats.  A zero-probability branch is marked −1 in the block and
        raises :class:`~repro.exceptions.NonPhysicalStateError` only if it is
        drawn.
        """
        if not pairs:
            raise ProtocolError("the DI security check needs at least one pair")
        table = PairTable.of(pairs)
        alice_low = 0 if self.settings.use_a0 else 1
        alice, bob, alice_uniforms, bob_uniforms = draw_setting_pairs(
            as_rng(rng), len(table), alice_low
        )

        states = table.states
        used = table.used()
        if any(states[slot].num_qubits != 2 for slot in used):
            raise ProtocolError("security-check pairs must be two-qubit states")
        # A setting pair's code is ``alice * 2 + bob`` (1 to 6); a block's
        # rows start at the first code the settings can draw (3, or 1 with A0).
        tag = ("chsh", self.settings)
        blocks = np.empty((len(states), 2 * (3 - alice_low), 3))
        for slot in used:
            blocks[slot] = state_statistic(tag, states[slot], self._branch_statistics)
        settings = alice * 2 + bob
        ids = table.ids if len(table) == len(table.ids) else table.ids[table.ids >= 0]
        rows = blocks[ids, settings - (2 * alice_low + 1)]
        alice_plus = alice_uniforms < rows[:, 0]
        p_bob_plus = np.where(alice_plus, rows[:, 1], rows[:, 2])
        if (p_bob_plus < 0).any():
            raise NonPhysicalStateError(
                "observable measurement hit a zero-probability outcome"
            )
        agree = alice_plus == (bob_uniforms < p_bob_plus)

        # Per setting pair, the pairs that disagree, then those that agree;
        # A0 rounds (settings 1 and 2) are not part of the CHSH combination.
        tallies = np.bincount(settings * 2 + agree, minlength=14)[6:].tolist()
        agreements = tallies[1::2]
        totals = [tallies[cell] + agreed for cell, agreed in zip(range(0, 8, 2), agreements)]
        counts = dict(zip(_CHSH_CELLS, totals))
        correlations = {
            key: (2 * agreed - total) / total if total else 0.0
            for key, agreed, total in zip(_CHSH_CELLS, agreements, totals)
        }
        value = (
            correlations[(1, 1)]
            + correlations[(1, 2)]
            + correlations[(2, 1)]
            - correlations[(2, 2)]
        )
        return CHSHEstimate(
            value=value,
            correlations=correlations,
            counts=counts,
            num_pairs=len(table),
            threshold=self.settings.threshold,
        )

    # -- internals ----------------------------------------------------------------------
    def _branch_statistics(self, pair: "Statevector | DensityMatrix") -> np.ndarray:
        """The pair's block: one row per (Alice, Bob) setting pair the settings
        can draw, Alice's major, holding ``(p_alice_plus, p_bob_plus |
        alice=+1, p_bob_plus | alice=−1)``; −1, which no probability is,
        where Alice's branch has no post-measurement state."""
        settings = self.settings
        # Bob's +1 projectors, looked up once per block; only Alice's branches
        # need post-measurement states.
        bob_plus = [
            observable_projectors(
                equatorial_observable(angle, conjugate=settings.conjugate_bob),
                [1],
                pair.num_qubits,
            )[0]
            for angle in settings.bob_angles
        ]
        rows = []
        for angle in settings.alice_angles[0 if settings.use_a0 else 1 :]:
            p_alice, *posts = observable_branches(pair, equatorial_observable(angle), [0])
            p_bob = [
                [-1.0] * 2
                if post is None
                else [plus_probability(post, projector) for projector in bob_plus]
                for post in posts
            ]
            rows.extend(zip([p_alice] * 2, *p_bob))
        return np.array(rows)

    @staticmethod
    def required_pairs(target_std_error: float = 0.1) -> int:
        """Rule-of-thumb sample size for a target CHSH standard error.

        Each correlation is estimated from roughly ``d/4`` samples with
        per-sample variance at most 1, so
        ``std(S) ≈ sqrt(4 * 4 / d) = 4 / sqrt(d)``.
        """
        if target_std_error <= 0:
            raise ProtocolError("target_std_error must be positive")
        return int(math.ceil((4.0 / target_std_error) ** 2))
