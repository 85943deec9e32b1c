"""Dense-coding maps: classical bits ↔ Pauli operations ↔ Bell states.

The protocol encodes two classical bits per EPR pair by applying one of the
four Pauli operators to Alice's half of a ``|Φ+⟩`` pair (Table: 00 → I,
01 → σz, 10 → σx, 11 → iσy).  Bob decodes by Bell-state measurement: the
observed Bell state identifies the applied Pauli and therefore the two bits.
Cover operations — uniformly random Paulis Alice applies on the ``D_A``
qubits — reuse the same algebra: the Bell state observed after Bob encodes
``id_B`` on his half is determined by the *composition* of the cover Pauli
(on qubit 0) and Bob's Pauli (on qubit 1), which :func:`expected_bell_state`
computes.

This module also provides :class:`MessageEncoder`, the check-bit pipeline
that turns Alice's ``n``-bit message ``m`` into the ``2N``-bit string ``m'``
and back.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ProtocolError
from repro.quantum.bell import BellState, bell_state
from repro.quantum.operators import Operator, PAULI_MATRICES
from repro.utils.bits import (
    Bits,
    insert_check_bits,
    random_bits,
    remove_check_bits,
    validate_bits,
)
from repro.utils.rng import as_rng

__all__ = [
    "PAULI_LABELS",
    "BITS_TO_PAULI",
    "PAULI_TO_BITS",
    "BELL_STATE_TO_BITS",
    "BITS_TO_BELL_STATE",
    "pauli_operator",
    "encode_bits_to_pauli",
    "decode_bell_state_to_bits",
    "expected_bell_state",
    "random_cover_operations",
    "EncodedMessage",
    "MessageEncoder",
]

#: The four encoding operations in the paper's order.
PAULI_LABELS = ("I", "Z", "X", "Y")

#: Paper's dense-coding table: two bits → Pauli label (11 uses i·σy; the global
#: phase is irrelevant to every Bell-state outcome, so the label is "Y").
BITS_TO_PAULI: dict[Bits, str] = {
    (0, 0): "I",
    (0, 1): "Z",
    (1, 0): "X",
    (1, 1): "Y",
}

#: Inverse of :data:`BITS_TO_PAULI`.
PAULI_TO_BITS: dict[str, Bits] = {label: bits for bits, label in BITS_TO_PAULI.items()}


def pauli_operator(label: str) -> Operator:
    """The single-qubit Operator for a Pauli label (``"I"``, ``"X"``, ``"Y"``, ``"Z"``)."""
    key = label.upper()
    if key not in PAULI_MATRICES:
        raise ProtocolError(f"unknown Pauli label {label!r}")
    return Operator(PAULI_MATRICES[key])


def encode_bits_to_pauli(two_bits: Bits) -> str:
    """Map a 2-bit chunk to the Pauli label Alice applies to her qubit."""
    key = validate_bits(two_bits)
    if key not in BITS_TO_PAULI:
        raise ProtocolError(f"dense coding requires exactly two bits, got {two_bits!r}")
    return BITS_TO_PAULI[key]


def _compute_bell_state_map() -> dict[tuple[str, str], BellState]:
    """Precompute which Bell state results from Paulis on each half of |Φ+⟩."""
    mapping: dict[tuple[str, str], BellState] = {}
    reference = {which: bell_state(which) for which in BellState}
    for first in PAULI_LABELS:
        for second in PAULI_LABELS:
            state = bell_state(BellState.PHI_PLUS)
            state = state.apply_operator(PAULI_MATRICES[first], [0])
            state = state.apply_operator(PAULI_MATRICES[second], [1])
            for which, target in reference.items():
                if state.fidelity(target) > 1 - 1e-9:
                    mapping[(first, second)] = which
                    break
            else:  # pragma: no cover - defensive; Paulis always map Bell to Bell
                raise ProtocolError(
                    f"Pauli pair ({first}, {second}) did not map |Φ+⟩ to a Bell state"
                )
    return mapping


#: (Pauli on Alice's qubit, Pauli on Bob's qubit) → resulting Bell state.
_PAULI_PAIR_TO_BELL: dict[tuple[str, str], BellState] = _compute_bell_state_map()

#: Bell state → two decoded bits (single-sided encoding on Alice's qubit).
BELL_STATE_TO_BITS: dict[BellState, Bits] = {
    _PAULI_PAIR_TO_BELL[(label, "I")]: bits for bits, label in BITS_TO_PAULI.items()
}

#: Two bits → Bell state (inverse of :data:`BELL_STATE_TO_BITS`).
BITS_TO_BELL_STATE: dict[Bits, BellState] = {
    bits: state for state, bits in BELL_STATE_TO_BITS.items()
}


def decode_bell_state_to_bits(which: BellState) -> Bits:
    """Map a Bell-measurement outcome back to the two encoded bits."""
    if which not in BELL_STATE_TO_BITS:
        raise ProtocolError(f"unknown Bell state {which!r}")
    return BELL_STATE_TO_BITS[which]


def expected_bell_state(alice_pauli: str, bob_pauli: str = "I") -> BellState:
    """Bell state observed after Alice applies *alice_pauli* and Bob *bob_pauli*.

    Used twice in the protocol: Alice predicts the authentication outcome of a
    ``D_A`` pair from her cover operation and Bob's identity chunk, and Bob
    predicts the outcome of a ``C_A`` pair from Alice's identity chunk.
    """
    key = (alice_pauli.upper(), bob_pauli.upper())
    if key not in _PAULI_PAIR_TO_BELL:
        raise ProtocolError(f"unknown Pauli pair {key!r}")
    return _PAULI_PAIR_TO_BELL[key]


def random_cover_operations(count: int, rng=None) -> tuple[str, ...]:
    """Draw *count* uniformly random cover Paulis from {I, Z, X, Y}."""
    if count < 0:
        raise ProtocolError("count must be non-negative")
    generator = as_rng(rng)
    indices = generator.integers(0, len(PAULI_LABELS), size=count)
    return tuple(PAULI_LABELS[i] for i in indices.tolist())


@dataclass(frozen=True)
class EncodedMessage:
    """The classical side of Alice's encoding step.

    Attributes
    ----------
    message:
        The original ``n``-bit secret message.
    combined:
        The ``2N``-bit string ``m'`` (message plus check bits).
    check_positions:
        Indices of the check bits inside ``combined``.
    check_bits:
        The random check-bit values, ordered as ``check_positions``.
    pauli_labels:
        One Pauli label per EPR pair (``N`` labels).
    """

    message: Bits
    combined: Bits
    check_positions: tuple[int, ...]
    check_bits: Bits
    pauli_labels: tuple[str, ...]

    @property
    def num_pairs(self) -> int:
        """Number of EPR pairs consumed by the message (``N``)."""
        return len(self.pauli_labels)


class MessageEncoder:
    """Check-bit insertion and dense-coding chunking for the secret message.

    Parameters
    ----------
    num_check_bits:
        Number ``c`` of random check bits scattered into the message.  The
        total ``n + c`` must be even so it maps onto ``N = (n + c) / 2`` pairs;
        the encoder enforces that by requiring an even total and raising
        otherwise (callers pick ``c`` accordingly — see
        :meth:`repro.protocol.config.ProtocolConfig.default`).
    """

    def __init__(self, num_check_bits: int):
        if num_check_bits < 0:
            raise ProtocolError("the number of check bits cannot be negative")
        self.num_check_bits = int(num_check_bits)

    # -- encoding ---------------------------------------------------------------------
    def encode(self, message: "Bits | str", rng=None) -> EncodedMessage:
        """Insert check bits at random positions and derive the Pauli labels."""
        bits = validate_bits(
            message if not isinstance(message, str) else tuple(int(ch) for ch in message)
        )
        if len(bits) == 0:
            raise ProtocolError("cannot encode an empty message")
        total = len(bits) + self.num_check_bits
        if total % 2 != 0:
            raise ProtocolError(
                f"message ({len(bits)} bits) plus check bits ({self.num_check_bits}) "
                "must be even to dense-code two bits per pair"
            )
        generator = as_rng(rng)
        check_bits = random_bits(self.num_check_bits, rng=generator)
        positions = tuple(
            np.sort(generator.choice(total, size=self.num_check_bits, replace=False)).tolist()
        )
        combined = insert_check_bits(bits, check_bits, positions)
        # ``combined`` holds valid bits and has even length: one label per pair.
        labels = tuple(BITS_TO_PAULI[chunk] for chunk in zip(combined[::2], combined[1::2]))
        return EncodedMessage(
            message=bits,
            combined=combined,
            check_positions=positions,
            check_bits=check_bits,
            pauli_labels=labels,
        )

    # -- decoding ---------------------------------------------------------------------
    @staticmethod
    def decode_bell_outcomes(outcomes: list[BellState]) -> Bits:
        """Concatenate the two-bit decodings of a sequence of Bell outcomes."""
        decoded: list[int] = []
        for which in outcomes:
            decoded.extend(decode_bell_state_to_bits(which))
        return tuple(decoded)

    @staticmethod
    def split_message_and_check(
        combined: Bits, check_positions: tuple[int, ...]
    ) -> tuple[Bits, Bits]:
        """Recover ``(message, check_bits)`` from the combined string ``m'``."""
        return remove_check_bits(combined, check_positions)
