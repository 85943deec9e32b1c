"""The two legitimate parties of the protocol.

:class:`Alice` (the sender) and :class:`Bob` (the receiver) hold the
pre-shared identities and perform the quantum operations of their respective
protocol steps on the shared pair states.  The orchestration order — who acts
when, what is announced — lives in :class:`~repro.protocol.runner.UADIQSDCProtocol`;
the parties only implement the individual operations so that attack models can
substitute or impersonate either side cleanly.

Pair states are handled as a mapping ``position -> DensityMatrix`` where
qubit 0 of each two-qubit state is the half originating at Alice and qubit 1
is Bob's half.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ProtocolError
from repro.protocol.encoding import (
    decode_bell_state_to_bits,
    encode_bits_to_pauli,
    expected_bell_state,
    pauli_operator,
    random_cover_operations,
)
from repro.protocol.identity import Identity
from repro.quantum.bell import BellState
from repro.quantum.density import DensityMatrix, group_by_object, map_distinct, state_statistic
from repro.quantum.measurement import BELL_OUTCOME_ORDER, bell_basis_probability_vector
from repro.utils.bits import Bits
from repro.utils.rng import as_rng, choice_cdf

__all__ = ["Alice", "Bob"]

#: Qubit index (within a pair state) of the half Alice initially holds.
ALICE_QUBIT = 0

#: Qubit index (within a pair state) of the half Bob initially holds.
BOB_QUBIT = 1


def _apply_plan(
    pairs: dict[int, DensityMatrix], plan: dict[int, str], qubit: int
) -> dict[int, DensityMatrix]:
    """Apply a position → Pauli plan to one half of the given pairs.

    Positions are grouped by label, and each label's Pauli goes through
    :func:`~repro.quantum.density.map_distinct`, tagged
    ``("pauli", label.upper(), qubit)``: one memo lookup per distinct pair
    object, shared by every session (evolved states are read-only).
    """
    by_label: dict[str, list[int]] = {}
    for position, label in plan.items():
        if position not in pairs:
            raise ProtocolError(f"no pair at position {position}")
        by_label.setdefault(label, []).append(position)
    updated = dict(pairs)
    for label, positions in by_label.items():
        if label.upper() == "I":
            continue
        pauli = pauli_operator(label)
        evolved = map_distinct(
            ("pauli", label.upper(), qubit),
            [pairs[position] for position in positions],
            lambda state: state.evolve(pauli, [qubit]),
        )
        updated.update(zip(positions, evolved))
    return updated


def _bell_probabilities(state: DensityMatrix):
    return bell_basis_probability_vector(state, [ALICE_QUBIT, BOB_QUBIT])


@dataclass
class Alice:
    """The sender: encodes the message and her identity, verifies Bob's identity.

    Attributes
    ----------
    identity:
        Alice's own secret ``id_A``.
    peer_identity:
        Bob's secret ``id_B`` (pre-shared with Alice so she can verify him).
    rng:
        Seeded generator for all of Alice's random choices.
    """

    identity: Identity
    peer_identity: Identity
    rng: object = None
    cover_operations: dict[int, str] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self.rng = as_rng(self.rng)

    # -- encoding ------------------------------------------------------------------------
    def message_pauli_plan(
        self, message_labels: tuple[str, ...], positions: tuple[int, ...]
    ) -> dict[int, str]:
        """Assign each message Pauli label to a message-pair position (in order)."""
        if len(message_labels) != len(positions):
            raise ProtocolError(
                f"{len(message_labels)} labels cannot be placed on {len(positions)} pairs"
            )
        return dict(zip(positions, message_labels))

    def identity_pauli_plan(self, positions: tuple[int, ...]) -> dict[int, str]:
        """Assign Alice's identity chunks to the ``C_A`` positions (in order)."""
        chunks = self.identity.chunks()
        if len(chunks) != len(positions):
            raise ProtocolError(
                f"identity spans {len(chunks)} pairs but {len(positions)} positions were given"
            )
        return {
            position: encode_bits_to_pauli(chunk)
            for position, chunk in zip(positions, chunks)
        }

    def cover_plan(self, positions: tuple[int, ...]) -> dict[int, str]:
        """Draw and remember random cover operations for the ``D_A`` positions."""
        labels = random_cover_operations(len(positions), rng=self.rng)
        plan = dict(zip(positions, labels))
        self.cover_operations = dict(plan)
        return plan

    @staticmethod
    def apply_plan(
        pairs: dict[int, DensityMatrix], plan: dict[int, str]
    ) -> dict[int, DensityMatrix]:
        """Apply a position → Pauli plan to Alice's halves of the given pairs."""
        return _apply_plan(pairs, plan, ALICE_QUBIT)

    # -- verification of Bob --------------------------------------------------------------
    def expected_authentication_outcomes(
        self, positions: tuple[int, ...]
    ) -> dict[int, BellState]:
        """Bell states Alice expects Bob to announce for the ``D_A`` pairs.

        Determined by her cover operation on each pair and Bob's identity
        chunk on the partner qubit.
        """
        chunks = self.peer_identity.chunks()
        if len(chunks) != len(positions):
            raise ProtocolError("peer identity length does not match the D_A set")
        expected: dict[int, BellState] = {}
        for position, chunk in zip(positions, chunks):
            cover = self.cover_operations.get(position)
            if cover is None:
                raise ProtocolError(
                    f"no cover operation was recorded for position {position}"
                )
            expected[position] = expected_bell_state(cover, encode_bits_to_pauli(chunk))
        return expected

    def verify_bob(
        self, announced: dict[int, BellState], positions: tuple[int, ...]
    ) -> float:
        """Fraction of ``D_A`` pairs whose announced outcome disagrees with the expectation."""
        expected = self.expected_authentication_outcomes(positions)
        if set(announced) != set(expected):
            raise ProtocolError("announced outcomes do not cover the D_A positions")
        mismatches = sum(
            1 for position in positions if announced[position] is not expected[position]
        )
        return mismatches / len(positions)


@dataclass
class Bob:
    """The receiver: encodes his identity, measures Bell states, decodes the message."""

    identity: Identity
    peer_identity: Identity
    rng: object = None

    def __post_init__(self):
        self.rng = as_rng(self.rng)

    # -- identity encoding -------------------------------------------------------------------
    def identity_pauli_plan(self, positions: tuple[int, ...]) -> dict[int, str]:
        """Assign Bob's identity chunks to the ``D_B`` (partner of ``D_A``) positions."""
        chunks = self.identity.chunks()
        if len(chunks) != len(positions):
            raise ProtocolError(
                f"identity spans {len(chunks)} pairs but {len(positions)} positions were given"
            )
        return {
            position: encode_bits_to_pauli(chunk)
            for position, chunk in zip(positions, chunks)
        }

    @staticmethod
    def apply_plan(
        pairs: dict[int, DensityMatrix], plan: dict[int, str]
    ) -> dict[int, DensityMatrix]:
        """Apply a position → Pauli plan to Bob's halves of the given pairs."""
        return _apply_plan(pairs, plan, BOB_QUBIT)

    # -- measurements ----------------------------------------------------------------------------
    def bell_measure(
        self, pairs: dict[int, DensityMatrix], positions: tuple[int, ...]
    ) -> dict[int, BellState]:
        """Bell-state measurement of the listed pairs (one shot per pair).

        Each distinct pair state's Bell-outcome probabilities are computed
        once (:func:`~repro.quantum.density.state_statistic`) and checked
        once as ``Generator.choice`` checks them.  The uniforms come from one
        ``random(len(positions))`` call, equal to one ``random()`` per pair,
        and each pair's outcome is its uniform's place in the state's cdf, as
        in ``choice(4, p=probabilities)``: the outcomes and the generator's
        state are those of one
        :func:`~repro.quantum.measurement.bell_measurement` per pair.
        """
        for position in positions:
            if position not in pairs:
                raise ProtocolError(f"no pair at position {position}")
        uniforms = self.rng.random(len(positions))
        slots, distinct = group_by_object([pairs[position] for position in positions])
        cdfs = np.array(
            [
                choice_cdf(state_statistic("bell", state, _bell_probabilities))
                for state in distinct
            ]
        ).reshape(-1, 4)
        # Each cdf is non-decreasing, so the number of entries ≤ u is
        # ``cdf.searchsorted(u, side="right")``.
        indices = (cdfs[slots] <= uniforms[:, None]).sum(axis=1).tolist()
        return {
            position: BELL_OUTCOME_ORDER[index]
            for position, index in zip(positions, indices)
        }

    # -- verification of Alice ----------------------------------------------------------------------
    def verify_alice(
        self, outcomes: dict[int, BellState], positions: tuple[int, ...]
    ) -> float:
        """Fraction of ``C_A`` pairs whose Bell outcome disagrees with ``id_A``."""
        chunks = self.peer_identity.chunks()
        if len(chunks) != len(positions):
            raise ProtocolError("peer identity length does not match the C_A set")
        mismatches = 0
        for position, chunk in zip(positions, chunks):
            if position not in outcomes:
                raise ProtocolError(f"no measurement outcome for position {position}")
            expected = expected_bell_state(encode_bits_to_pauli(chunk), "I")
            if outcomes[position] is not expected:
                mismatches += 1
        return mismatches / len(positions)

    # -- decoding -------------------------------------------------------------------------------------
    @staticmethod
    def decode_message_bits(
        outcomes: dict[int, BellState], positions: tuple[int, ...]
    ) -> Bits:
        """Decode the combined bit string ``m'`` from Bell outcomes at *positions* (in order)."""
        decoded: list[int] = []
        for position in positions:
            if position not in outcomes:
                raise ProtocolError(f"no measurement outcome for position {position}")
            decoded.extend(decode_bell_state_to_bits(outcomes[position]))
        return tuple(decoded)
