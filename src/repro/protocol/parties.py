"""The two legitimate parties of the protocol.

:class:`Alice` (the sender) and :class:`Bob` (the receiver) hold the
pre-shared identities and perform the quantum operations of their respective
protocol steps on the shared pair states.  The orchestration order — who acts
when, what is announced — lives in :class:`~repro.protocol.runner.UADIQSDCProtocol`;
the parties only implement the individual operations so that attack models can
substitute or impersonate either side cleanly.

A session's pair states travel as one :class:`~repro.quantum.density.PairTable`
(an id per position into the distinct states), where qubit 0 of each
two-qubit state is the half originating at Alice and qubit 1 is Bob's half.
The public methods also take a mapping ``position -> DensityMatrix`` and
convert it once; a position that holds no pair raises
:class:`~repro.exceptions.ProtocolError`.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from repro.exceptions import PairPositionError, ProtocolError
from repro.protocol.encoding import (
    BELL_STATE_TO_BITS,
    BITS_TO_PAULI,
    decode_bell_state_to_bits,
    expected_bell_state,
    pauli_operator,
    random_cover_operations,
)
from repro.protocol.identity import Identity
from repro.quantum.bell import BellState
from repro.quantum.density import DensityMatrix, PairTable, state_statistic
from repro.quantum.measurement import BELL_OUTCOME_ORDER, bell_basis_probability_vector
from repro.utils.bits import Bits
from repro.utils.rng import as_rng, choice_cdf

__all__ = ["Alice", "Bob"]

#: Qubit index (within a pair state) of the half Alice initially holds.
ALICE_QUBIT = 0

#: Qubit index (within a pair state) of the half Bob initially holds.
BOB_QUBIT = 1


#: Pairs as the parties' public methods take them.
Pairs = PairTable | Mapping[int, DensityMatrix]


def _apply_plan(pairs: Pairs, plan: dict[int, str], qubit: int) -> PairTable:
    """Apply a position → Pauli plan to one half of the given pairs.

    Each label's Pauli goes through
    :meth:`~repro.quantum.density.PairTable.map_plan`, tagged
    ``("pauli", label.upper(), qubit)``: one memo lookup per label and
    distinct pair state, shared by every session (evolved states are
    read-only).  ``I`` keeps the pair as it is.
    """

    def pauli_map(label: str):
        key = label.upper()
        if key == "I":
            return None
        # The operator is built only on a memo miss; an unknown label is
        # never kept, so it raises there on every call.
        return ("pauli", key, qubit), lambda state: state.evolve(pauli_operator(label), [qubit])

    try:
        return PairTable.of(pairs).map_plan(plan, pauli_map)
    except PairPositionError as error:
        raise ProtocolError(str(error)) from None


def _bell_cdf(state: DensityMatrix) -> np.ndarray:
    return choice_cdf(bell_basis_probability_vector(state, [ALICE_QUBIT, BOB_QUBIT]))


def _identity_labels(identity: Identity) -> list[str]:
    """The Pauli label of each 2-bit chunk of *identity* (its bits are valid)."""
    bits = identity.bits
    return [BITS_TO_PAULI[chunk] for chunk in zip(bits[::2], bits[1::2])]


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
        labels = _identity_labels(self.identity)
        if len(labels) != len(positions):
            raise ProtocolError(
                f"identity spans {len(labels)} pairs but {len(positions)} positions were given"
            )
        return dict(zip(positions, labels))

    def cover_plan(self, positions: tuple[int, ...]) -> dict[int, str]:
        """Draw and remember random cover operations for the ``D_A`` positions."""
        labels = random_cover_operations(len(positions), rng=self.rng)
        plan = dict(zip(positions, labels))
        self.cover_operations = dict(plan)
        return plan

    @staticmethod
    def apply_plan(pairs: Pairs, plan: dict[int, str]) -> PairTable:
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
        labels = _identity_labels(self.peer_identity)
        if len(labels) != len(positions):
            raise ProtocolError("peer identity length does not match the D_A set")
        expected: dict[int, BellState] = {}
        for position, label in zip(positions, labels):
            cover = self.cover_operations.get(position)
            if cover is None:
                raise ProtocolError(
                    f"no cover operation was recorded for position {position}"
                )
            expected[position] = expected_bell_state(cover, label)
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
        labels = _identity_labels(self.identity)
        if len(labels) != len(positions):
            raise ProtocolError(
                f"identity spans {len(labels)} pairs but {len(positions)} positions were given"
            )
        return dict(zip(positions, labels))

    @staticmethod
    def apply_plan(pairs: Pairs, plan: dict[int, str]) -> PairTable:
        """Apply a position → Pauli plan to Bob's halves of the given pairs."""
        return _apply_plan(pairs, plan, BOB_QUBIT)

    # -- measurements ----------------------------------------------------------------------------
    def bell_measure(
        self, pairs: Pairs, positions: tuple[int, ...]
    ) -> dict[int, BellState]:
        """Bell-state measurement of the listed pairs (one shot per pair).

        Each distinct pair state's Bell-outcome cdf is computed once
        (:func:`~repro.quantum.density.state_statistic`), after
        ``Generator.choice``'s checks.  The uniforms come from one
        ``random(len(positions))`` call, equal to one ``random()`` per pair,
        and each pair's outcome is its uniform's place in its state's cdf,
        as in ``choice(4, p=probabilities)``: the outcomes and the
        generator's state are those of one
        :func:`~repro.quantum.measurement.bell_measurement` per pair.
        """
        try:
            measured = PairTable.of(pairs).take(positions)
        except PairPositionError as error:
            raise ProtocolError(str(error)) from None
        uniforms = self.rng.random(len(measured))
        states = measured.states
        cdfs = np.zeros((len(states), 4))
        for slot in measured.used():
            cdfs[slot] = state_statistic("bell", states[slot], _bell_cdf)
        # Each cdf is non-decreasing, so the number of entries ≤ u is
        # ``cdf.searchsorted(u, side="right")``.
        indices = (cdfs[measured.ids] <= uniforms[:, None]).sum(axis=1).tolist()
        return dict(zip(positions, [BELL_OUTCOME_ORDER[index] for index in indices]))

    # -- verification of Alice ----------------------------------------------------------------------
    def verify_alice(
        self, outcomes: dict[int, BellState], positions: tuple[int, ...]
    ) -> float:
        """Fraction of ``C_A`` pairs whose Bell outcome disagrees with ``id_A``."""
        labels = _identity_labels(self.peer_identity)
        if len(labels) != len(positions):
            raise ProtocolError("peer identity length does not match the C_A set")
        mismatches = 0
        for position, label in zip(positions, labels):
            if position not in outcomes:
                raise ProtocolError(f"no measurement outcome for position {position}")
            if outcomes[position] is not expected_bell_state(label, "I"):
                mismatches += 1
        return mismatches / len(positions)

    # -- decoding -------------------------------------------------------------------------------------
    @staticmethod
    def decode_message_bits(
        outcomes: dict[int, BellState], positions: tuple[int, ...]
    ) -> Bits:
        """Decode the combined bit string ``m'`` from Bell outcomes at *positions* (in order)."""
        try:
            return tuple(
                chain.from_iterable(BELL_STATE_TO_BITS[outcomes[p]] for p in positions)
            )
        except KeyError:
            # Name the first position without an outcome, or its unknown outcome.
            for position in positions:
                if position not in outcomes:
                    raise ProtocolError(
                        f"no measurement outcome for position {position}"
                    ) from None
                decode_bell_state_to_bits(outcomes[position])
            raise
