"""Bitstring helpers used throughout the protocol layer.

The protocol manipulates classical bit sequences in several places: the
secret message ``m``, the check-bit-augmented message ``m'``, the pre-shared
identities ``id_A`` and ``id_B`` (``2l`` bits each), and the two-bit chunks
that are dense-coded onto single EPR pairs.  This module centralises the
conversions between representations so the rest of the code can work with a
single canonical type: a ``tuple`` of ``int`` values each equal to 0 or 1.

The canonical bit order is *big-endian*: index 0 of the tuple is the leftmost
character of the equivalent string and the most significant bit of the
equivalent integer.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.exceptions import ReproError
from repro.utils.rng import as_rng

__all__ = [
    "Bits",
    "validate_bits",
    "bits_to_str",
    "bitstring_to_bits",
    "bits_to_int",
    "int_to_bits",
    "random_bits",
    "xor_bits",
    "hamming_distance",
    "chunk_bits",
    "pad_bits",
    "insert_check_bits",
    "remove_check_bits",
]

#: Canonical bit-sequence type used across the library.
Bits = tuple[int, ...]

_BIT_VALUES = frozenset((0, 1))


def validate_bits(bits: Iterable[int]) -> Bits:
    """Return *bits* as a canonical tuple, raising if any value is not 0/1.

    Accepts any iterable of integers (including numpy integers and booleans).
    """
    out = tuple(map(int, bits))
    if not _BIT_VALUES.issuperset(out):
        bad = next(b for b in out if b not in _BIT_VALUES)
        raise ReproError(f"bit values must be 0 or 1, got {bad!r}")
    return out


def bits_to_str(bits: Iterable[int]) -> str:
    """Render a bit sequence as a compact string, e.g. ``(1, 0, 1) -> '101'``."""
    return "".join(str(b) for b in validate_bits(bits))


def bitstring_to_bits(bitstring: str) -> Bits:
    """Parse a string of ``'0'``/``'1'`` characters into a bit tuple."""
    if not all(ch in "01" for ch in bitstring):
        raise ReproError(f"bitstring must contain only '0'/'1', got {bitstring!r}")
    return tuple(int(ch) for ch in bitstring)


def bits_to_int(bits: Iterable[int]) -> int:
    """Interpret a big-endian bit sequence as a non-negative integer."""
    value = 0
    for b in validate_bits(bits):
        value = (value << 1) | b
    return value


def int_to_bits(value: int, width: int) -> Bits:
    """Return the *width*-bit big-endian representation of *value*.

    Raises if *value* does not fit in *width* bits or is negative.
    """
    if value < 0:
        raise ReproError(f"value must be non-negative, got {value}")
    if width < 0:
        raise ReproError(f"width must be non-negative, got {width}")
    if value >= (1 << width) and width > 0:
        raise ReproError(f"value {value} does not fit in {width} bits")
    if width == 0:
        if value != 0:
            raise ReproError("width 0 can only represent value 0")
        return ()
    return tuple((value >> shift) & 1 for shift in range(width - 1, -1, -1))


def random_bits(n: int, rng=None) -> Bits:
    """Generate *n* uniformly random bits using the given RNG or seed."""
    if n < 0:
        raise ReproError(f"number of bits must be non-negative, got {n}")
    generator = as_rng(rng)
    return tuple(generator.integers(0, 2, size=n).tolist())


def xor_bits(a: Iterable[int], b: Iterable[int]) -> Bits:
    """Bitwise XOR of two equal-length bit sequences."""
    ta, tb = validate_bits(a), validate_bits(b)
    if len(ta) != len(tb):
        raise ReproError(
            f"cannot XOR bit sequences of different lengths ({len(ta)} vs {len(tb)})"
        )
    return tuple(x ^ y for x, y in zip(ta, tb))


def hamming_distance(a: Iterable[int], b: Iterable[int]) -> int:
    """Number of positions at which two equal-length bit sequences differ."""
    return sum(xor_bits(a, b))


def chunk_bits(bits: Iterable[int], chunk_size: int) -> list[Bits]:
    """Split a bit sequence into consecutive chunks of *chunk_size* bits.

    The length of *bits* must be a multiple of *chunk_size*; the protocol
    always works with two-bit chunks on an even-length ``m'``.
    """
    tbits = validate_bits(bits)
    if chunk_size <= 0:
        raise ReproError(f"chunk_size must be positive, got {chunk_size}")
    if len(tbits) % chunk_size != 0:
        raise ReproError(
            f"bit sequence of length {len(tbits)} is not divisible by {chunk_size}"
        )
    return [tbits[i:i + chunk_size] for i in range(0, len(tbits), chunk_size)]


def pad_bits(bits: Iterable[int], multiple: int, rng=None) -> tuple[Bits, int]:
    """Pad *bits* with random bits so its length is a multiple of *multiple*.

    Returns ``(padded_bits, n_padding)``.  Padding is appended at the end and
    drawn from *rng* so that it carries no information about the message.
    """
    tbits = validate_bits(bits)
    if multiple <= 0:
        raise ReproError(f"multiple must be positive, got {multiple}")
    remainder = len(tbits) % multiple
    if remainder == 0:
        return tbits, 0
    n_pad = multiple - remainder
    return tbits + random_bits(n_pad, rng), n_pad


def insert_check_bits(
    message: Iterable[int],
    check_bits: Iterable[int],
    positions: Sequence[int],
) -> Bits:
    """Insert *check_bits* into *message* at the given final positions.

    ``positions[i]`` is the index of ``check_bits[i]`` in the *resulting*
    sequence.  Positions must be unique and lie within the final length
    ``len(message) + len(check_bits)``.  This implements the paper's step of
    forming ``m'`` from ``m`` by scattering ``c`` check bits at random
    positions.
    """
    msg = validate_bits(message)
    chk = validate_bits(check_bits)
    pos = [int(p) for p in positions]
    total = len(msg) + len(chk)
    if len(pos) != len(chk):
        raise ReproError(
            f"got {len(chk)} check bits but {len(pos)} positions"
        )
    if len(set(pos)) != len(pos):
        raise ReproError("check-bit positions must be unique")
    if any(p < 0 or p >= total for p in pos):
        raise ReproError(f"check-bit positions must lie in [0, {total})")

    result: list[int | None] = [None] * total
    for p, bit in zip(pos, chk):
        result[p] = bit
    msg_iter = iter(msg)
    for i in range(total):
        if result[i] is None:
            result[i] = next(msg_iter)
    return tuple(int(b) for b in result)


def remove_check_bits(
    combined: Iterable[int], positions: Sequence[int]
) -> tuple[Bits, Bits]:
    """Split a combined sequence back into ``(message, check_bits)``.

    Inverse of :func:`insert_check_bits`: *positions* are the indices of the
    check bits inside *combined*.  Check bits are returned in the order given
    by *positions*.
    """
    seq = validate_bits(combined)
    pos = [int(p) for p in positions]
    if len(set(pos)) != len(pos):
        raise ReproError("check-bit positions must be unique")
    if any(p < 0 or p >= len(seq) for p in pos):
        raise ReproError(f"check-bit positions must lie in [0, {len(seq)})")
    pos_set = set(pos)
    message = tuple(b for i, b in enumerate(seq) if i not in pos_set)
    check = tuple(seq[p] for p in pos)
    return message, check


def random_positions(total: int, count: int, rng=None) -> tuple[int, ...]:
    """Choose *count* distinct positions uniformly at random from ``range(total)``."""
    if count < 0 or total < 0:
        raise ReproError("total and count must be non-negative")
    if count > total:
        raise ReproError(f"cannot choose {count} positions from {total}")
    generator = as_rng(rng)
    chosen = generator.choice(total, size=count, replace=False)
    return tuple(int(p) for p in np.sort(chosen))
