"""Shared utilities: bitstrings, random number plumbing, bounded memos, logging."""

from repro.utils.bits import (
    bits_to_int,
    bits_to_str,
    bitstring_to_bits,
    chunk_bits,
    hamming_distance,
    insert_check_bits,
    int_to_bits,
    pad_bits,
    random_bits,
    remove_check_bits,
    xor_bits,
)
from repro.utils.rng import as_rng, derive_rng, spawn_rngs

__all__ = [
    "bits_to_int",
    "bits_to_str",
    "bitstring_to_bits",
    "chunk_bits",
    "hamming_distance",
    "insert_check_bits",
    "int_to_bits",
    "pad_bits",
    "random_bits",
    "remove_check_bits",
    "xor_bits",
    "as_rng",
    "derive_rng",
    "spawn_rngs",
]
