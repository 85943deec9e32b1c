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
"""

from __future__ import annotations

import hashlib
import numbers
from collections.abc import Mapping
from typing import Any

import numpy as np

from repro.exceptions import ExperimentError

__all__ = ["RngLike", "as_rng", "derive_rng", "point_seed", "spawn_rngs"]

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
