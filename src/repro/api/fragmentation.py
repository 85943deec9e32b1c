"""Payload fragmentation: framing, integrity checking and per-fragment seeds.

A :class:`~repro.api.service.MessagingService` payload can be far longer than
one protocol session comfortably carries, so the service splits it into
protocol-sized *fragments*.  Each fragment travels as one framed bit sequence:

====================  =====  ====================================================
field                 bits   meaning
====================  =====  ====================================================
``index``             16     fragment position (0-based)
``total``             16     total number of fragments of the payload
``length``            16     number of payload bits in this fragment
``crc``               16     CRC-16/CCITT of the payload bits
payload               ≤2¹⁶−1 the fragment's slice of the payload
====================  =====  ====================================================

The header makes reassembly self-describing and the CRC turns *undetected*
channel bit errors into detected ones: a fragment whose delivered frame fails
:meth:`ParsedFrame.intact` is treated exactly like a protocol abort and
scheduled for retransmission.

Seeds are derived per ``(fragment, attempt)`` with :func:`fragment_seed`, a
thin wrapper over :func:`repro.utils.rng.point_seed`: the same service seed
always produces the same fragment seeds, the same retransmission seeds, and
therefore a bit-identical delivery — the determinism contract the API tests
pin.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import ReproError
from repro.protocol.config import check_count
from repro.utils.bits import Bits, bits_to_int, int_to_bits, validate_bits
from repro.utils.rng import point_seed

__all__ = [
    "HEADER_BITS",
    "MAX_FRAGMENT_BITS",
    "MAX_FRAGMENTS",
    "crc16",
    "fragment_seed",
    "FragmentFrame",
    "ParsedFrame",
    "fragment_payload",
    "reassemble",
]

#: Bits per header field (index, total, length, crc).
_FIELD_BITS = 16
#: Total framing overhead per fragment.
HEADER_BITS = 4 * _FIELD_BITS
#: Largest payload one fragment can carry (length field is 16 bits).
MAX_FRAGMENT_BITS = 2**_FIELD_BITS - 1
#: Largest number of fragments one payload can span (index field is 16 bits).
MAX_FRAGMENTS = 2**_FIELD_BITS


def crc16(bits: Bits) -> int:
    """CRC-16/CCITT-FALSE of a bit sequence (poly 0x1021, init 0xFFFF).

    Computed directly over bits rather than bytes so fragments of any length
    (not just whole bytes) are covered.
    """
    register = 0xFFFF
    for bit in validate_bits(bits):
        top = (register >> 15) & 1
        register = (register << 1) & 0xFFFF
        if top ^ bit:
            register ^= 0x1021
    return register


def fragment_seed(base_seed: int, index: int, attempt: int = 0) -> int:
    """The protocol seed for one delivery attempt of one fragment.

    ``attempt`` 0 is the first transmission; each retransmission increments
    it, so a retried fragment re-runs the protocol with fresh (but still
    deterministic) randomness instead of replaying the aborted session.
    """
    return point_seed(
        base_seed, {"stream": "fragment", "fragment": int(index), "attempt": int(attempt)}
    )


@dataclass(frozen=True)
class FragmentFrame:
    """One framed fragment, ready for transmission."""

    index: int
    total: int
    payload: Bits

    def __post_init__(self):
        if not 0 <= self.index < self.total:
            raise ReproError(
                f"fragment index {self.index} outside [0, {self.total})"
            )
        if self.total > MAX_FRAGMENTS:
            raise ReproError(
                f"{self.total} fragments exceed the {MAX_FRAGMENTS}-fragment limit"
            )
        if not 1 <= len(self.payload) <= MAX_FRAGMENT_BITS:
            raise ReproError(
                f"fragment payload must hold 1..{MAX_FRAGMENT_BITS} bits, "
                f"got {len(self.payload)}"
            )

    def to_bits(self) -> Bits:
        """Serialise the frame: 64 header bits followed by the payload."""
        return (
            int_to_bits(self.index, _FIELD_BITS)
            + int_to_bits(self.total % MAX_FRAGMENTS, _FIELD_BITS)
            + int_to_bits(len(self.payload), _FIELD_BITS)
            + int_to_bits(crc16(self.payload), _FIELD_BITS)
            + self.payload
        )


@dataclass(frozen=True)
class ParsedFrame:
    """A received frame split back into its fields (possibly corrupted)."""

    index: int
    total: int
    length: int
    crc: int
    payload: Bits

    @property
    def intact(self) -> bool:
        """True if the payload is self-consistent with the header."""
        return len(self.payload) == self.length and crc16(self.payload) == self.crc

    def matches(self, index: int, total: int) -> bool:
        """True if the frame is intact *and* is the frame the receiver expected."""
        return (
            self.intact
            and self.index == index
            and self.total == total % MAX_FRAGMENTS
        )

    @classmethod
    def parse(cls, bits: Bits) -> "ParsedFrame":
        """Split delivered bits into header fields and payload.

        Never raises on corrupted content — corruption is reported through
        :attr:`intact` / :meth:`matches` so the service can schedule a
        retransmission.  Only a frame too short to contain a header is a
        caller error.
        """
        tbits = validate_bits(bits)
        if len(tbits) < HEADER_BITS + 1:
            raise ReproError(
                f"frame of {len(tbits)} bits is shorter than header + 1 payload bit"
            )
        fields = [
            bits_to_int(tbits[i * _FIELD_BITS:(i + 1) * _FIELD_BITS])
            for i in range(4)
        ]
        return cls(
            index=fields[0],
            total=fields[1],
            length=fields[2],
            crc=fields[3],
            payload=tbits[HEADER_BITS:],
        )


def fragment_payload(bits: Bits, fragment_bits: int) -> list[FragmentFrame]:
    """Split payload bits into framed fragments of at most *fragment_bits* each.

    The last fragment carries the remainder (its ``length`` field says how
    many bits, so no padding is needed).
    """
    tbits = validate_bits(bits)
    if not tbits:
        raise ReproError("cannot fragment an empty payload")
    fragment_bits = check_count(fragment_bits, "fragment_bits", error=ReproError)
    if fragment_bits > MAX_FRAGMENT_BITS:
        raise ReproError(
            f"fragment_bits must lie in 1..{MAX_FRAGMENT_BITS}, got {fragment_bits}"
        )
    total = (len(tbits) + fragment_bits - 1) // fragment_bits
    if total > MAX_FRAGMENTS:
        raise ReproError(
            f"payload of {len(tbits)} bits needs {total} fragments, "
            f"more than the {MAX_FRAGMENTS}-fragment limit; raise fragment_bits"
        )
    return [
        FragmentFrame(
            index=index,
            total=total,
            payload=tbits[index * fragment_bits:(index + 1) * fragment_bits],
        )
        for index in range(total)
    ]


def reassemble(payloads: "dict[int, Bits]", total: int) -> Bits:
    """Concatenate verified fragment payloads back into the original bits.

    Parameters
    ----------
    payloads:
        Mapping of fragment index to that fragment's (already verified)
        payload bits.
    total:
        Expected fragment count; every index in ``range(total)`` must be
        present.
    """
    missing = [index for index in range(total) if index not in payloads]
    if missing:
        raise ReproError(f"cannot reassemble: missing fragments {missing}")
    return tuple(
        bit for index in range(total) for bit in validate_bits(payloads[index])
    )
