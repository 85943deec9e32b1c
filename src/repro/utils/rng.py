"""Random-number-generator plumbing.

All stochastic behaviour in the library (measurement sampling, random basis
selection, noise realisations, random identities, attack randomness) flows
through :class:`numpy.random.Generator` objects.  Functions accept either an
existing generator, an integer seed, or ``None`` (fresh entropy) and convert
via :func:`as_rng`.  Deterministic reproduction of an experiment therefore
requires passing a seed only at the top level; sub-components derive
independent child generators with :func:`derive_rng` / :func:`spawn_rngs`.

Where a stream must not depend on any generator state — a sweep point, a
network session, a fragment retransmission, a runtime request —
:func:`point_seed` derives its integer seed from a base seed and named tags
alone, so the result never depends on call order.

:func:`draw_setting_pairs` returns per-round scalar draws as arrays, bit for
bit and with the generator left in the same state, and :func:`choice_cdf`
is the cdf ``Generator.choice`` searches, so a caller that keeps it per
distinct distribution draws each sample with one ``random()``.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from collections.abc import Mapping
from typing import Any

import numpy as np

from repro.exceptions import ExperimentError

__all__ = [
    "RngLike",
    "as_rng",
    "choice_cdf",
    "derive_rng",
    "draw_setting_pairs",
    "point_seed",
    "spawn_rngs",
]

#: Anything convertible to a :class:`numpy.random.Generator`.
RngLike = "np.random.Generator | int | None"


def as_rng(rng: np.random.Generator | int | None = None) -> np.random.Generator:
    """Coerce *rng* into a :class:`numpy.random.Generator`.

    ``None`` creates a generator from fresh OS entropy; an ``int`` seeds a new
    generator; an existing generator is returned unchanged.
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    raise TypeError(f"cannot interpret {type(rng).__name__} as a random generator")


def derive_rng(rng: np.random.Generator | int | None, *tags: object) -> np.random.Generator:
    """Derive a child generator from *rng*, namespaced by *tags*.

    The derivation is deterministic given the parent generator state: it draws
    one 64-bit integer from the parent and mixes in a stable hash of the tags.
    Use this to hand independent streams to sub-components (e.g. one stream
    for Alice's basis choices and another for channel noise) while keeping a
    single top-level seed.
    """
    parent = as_rng(rng)
    base = int(parent.integers(0, 2**63 - 1))
    mix = 0
    for tag in tags:
        for ch in str(tag):
            mix = (mix * 1_000_003 + ord(ch)) % (2**63 - 1)
    return np.random.default_rng((base ^ mix) % (2**63 - 1))


def spawn_rngs(rng: np.random.Generator | int | None, count: int) -> list[np.random.Generator]:
    """Spawn *count* statistically independent child generators from *rng*."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    parent = as_rng(rng)
    seeds = parent.integers(0, 2**63 - 1, size=count)
    return [np.random.default_rng(int(seed)) for seed in seeds]


#: Shifts and masks of the PCG64 path of :func:`draw_setting_pairs`.
_LOW_WORD = np.uint64(0xFFFFFFFF)
_BIT = np.uint64(1)
_SETTING_BITS = np.array([31, 63], dtype=np.uint64)
_SHIFT_32 = np.uint64(32)
_SHIFT_63 = np.uint64(63)
_SHIFT_DOUBLE = np.uint64(11)
_RANGE_3 = np.uint64(3)


def draw_setting_pairs(
    generator: np.random.Generator, count: int, alice_low: int = 1
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """*count* rounds of ``integers(alice_low, 3)``, ``integers(1, 3)``, ``random()``, ``random()``.

    Returns ``(alice_settings, bob_settings, alice_uniforms, bob_uniforms)``
    as int64 and float64 arrays, equal to those scalar calls made round by
    round, with *generator* left in the same state (``alice_low`` is 0 or 1).

    On a :class:`~numpy.random.PCG64` with no buffered 32-bit half, each round
    is three raw 64-bit outputs.  ``integers(low, 3)`` is Lemire's method on
    one ``next_uint32`` (the low half of an output, then its high half):
    ``(word * range) >> 32``, which for a range of 2 is the word's top bit,
    bit 31 of the low half or bit 63 of the output.  ``random()`` is one
    whole output shifted right by 11.  A range of 2 never rejects; a range
    of 3 rejects only a zero word, so a call that draws one restores the
    saved state and makes the scalar calls instead, as does any other bit
    generator or a buffered half.
    """
    if alice_low not in (0, 1):
        raise ValueError(f"alice_low must be 0 or 1, got {alice_low}")
    bit_generator = generator.bit_generator
    if type(bit_generator) is np.random.PCG64:
        state = bit_generator.state
        if state["has_uint32"] == 0:
            raw = bit_generator.random_raw(3 * count)
            first = raw[0::3]
            if alice_low == 1:
                # Two ranges of 2: Alice's setting is bit 31 of the low
                # half, Bob's bit 63 of the output.
                settings = (first[:, None] >> _SETTING_BITS & _BIT).view(np.int64) + 1
                alice, bob = settings[:, 0], settings[:, 1]
            else:
                words = first & _LOW_WORD
                alice = (words * _RANGE_3 >> _SHIFT_32).view(np.int64) if words.all() else None
                bob = (first >> _SHIFT_63).view(np.int64) + 1
            if alice is not None:
                uniforms = (raw >> _SHIFT_DOUBLE) * 2.0**-53
                return alice, bob, uniforms[1::3], uniforms[2::3]
            bit_generator.state = state
    draws = np.array(
        [
            (
                generator.integers(alice_low, 3),
                generator.integers(1, 3),
                generator.random(),
                generator.random(),
            )
            for _ in range(count)
        ]
    ).reshape(count, 4)
    settings = draws[:, :2].astype(np.int64)
    return settings[:, 0], settings[:, 1], draws[:, 2], draws[:, 3]


#: ``Generator.choice``'s tolerance on ``|Σp − 1|`` for float64 ``p``.
_CHOICE_ATOL = math.sqrt(np.finfo(np.float64).eps)


def choice_cdf(probabilities: np.ndarray) -> np.ndarray:
    """The cdf ``Generator.choice(len(p), p=probabilities)`` searches.

    Runs ``choice``'s input checks (a Kahan sum, then NaN, negative entries
    and the sum's distance from 1) and raises its ``ValueError``s.  With
    no ``size``, ``choice`` returns ``cdf.searchsorted(random(),
    side="right")``: one uniform per sample, searched in this array.
    """
    values = probabilities.tolist()
    total, compensation = values[0], 0.0
    for value in values[1:]:
        term = value - compensation
        new_total = total + term
        compensation = (new_total - total) - term
        total = new_total
    if math.isnan(total):
        raise ValueError("Probabilities contain NaN")
    if any(value < 0 for value in values):
        raise ValueError("Probabilities are not non-negative")
    if abs(total - 1.0) > _CHOICE_ATOL:
        raise ValueError(
            "Probabilities do not sum to 1. See Notes section of docstring "
            "for more information."
        )
    cdf = probabilities.cumsum()
    cdf /= cdf[-1]
    return cdf


def _canonical_value(value: Any) -> str:
    """Stable text encoding of an axis value for seed derivation.

    Numeric values are canonicalized through the Python ``numbers`` tower so
    ``10``, ``numpy.int64(10)`` and any other integral type hash identically
    (``repr`` alone would differ across numpy versions and dtypes);
    sequences are encoded element-wise.  ``None`` encodes as its own token.

    Axis values outside the supported set are rejected: a silent ``repr``
    fallback would bake memory addresses (default object reprs) into the
    per-point seeds and quietly break the module's reproducibility
    guarantee.  Sweep rich objects by name and resolve them inside the
    worker instead (the pattern the experiment harnesses use).
    """
    if value is None:
        return "n:"
    if isinstance(value, (bool, np.bool_)):
        return f"b:{bool(value)}"
    if isinstance(value, numbers.Integral):
        return f"i:{int(value)}"
    if isinstance(value, numbers.Real):
        return f"f:{float(value)!r}"
    if isinstance(value, complex):
        return f"c:{complex(value)!r}"
    if isinstance(value, str):
        return f"s:{value}"
    if isinstance(value, (tuple, list)):
        return "t:[" + ",".join(_canonical_value(item) for item in value) + "]"
    raise ExperimentError(
        f"axis value {value!r} of type {type(value).__name__} cannot be "
        "canonicalized for seed derivation; sweep a name or number and "
        "resolve the object inside the worker"
    )


def point_seed(base_seed: int, params: Mapping[str, Any]) -> int:
    """Derive a deterministic RNG seed for one sweep point.

    The seed is a SHA-256 digest of the base seed and the point's sorted
    ``(name, canonical value)`` pairs, truncated to 63 bits.  It therefore
    depends only on the point's own coordinates: re-ordering the grid,
    changing the worker count, or running points in isolation all reproduce
    identical per-point randomness.  Numeric axis values are canonicalized
    (see :func:`_canonical_value`), so ``numpy`` scalars and built-in
    numbers derive the same seed.

    Parameters
    ----------
    base_seed:
        The sweep-level seed supplied by the caller.
    params:
        The point's parameters.
    """
    digest = hashlib.sha256()
    digest.update(str(int(base_seed)).encode())
    for name in sorted(params):
        digest.update(b"\x00")
        digest.update(str(name).encode())
        digest.update(b"\x01")
        digest.update(_canonical_value(params[name]).encode())
    return int.from_bytes(digest.digest()[:8], "big") % (2**63 - 1)
