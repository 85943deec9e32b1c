"""Argument checks shared by every layer: the integer-count rule and the seed rule."""

from __future__ import annotations

import operator

from repro.exceptions import ConfigurationError

__all__ = ["check_count", "check_seed"]


def check_count(value, name: str, minimum: int = 1, error: type = ConfigurationError) -> int:
    """*value* as an ``int``; *error* unless it is an integer ≥ *minimum*.

    Any integer type passes (``operator.index``: ``int``, ``np.int64`` …),
    as in :func:`~repro.quantum.batch.check_shots`, so NaN, ±∞, fractions
    and strings fail.
    """
    try:
        count = operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None
    if count < minimum:
        raise error(f"{name} must be at least {minimum}, got {count}")
    return count


def check_seed(value, name: str = "seed", error: type = ConfigurationError) -> "int | None":
    """*value* as an ``int`` or None; *error* unless it is None or an integer ≥ 0.

    The one seed rule (NumPy seeds with non-negative integers), so
    fractions, NaN and strings fail where a seed is given, not where it is
    first used.
    """
    return None if value is None else check_count(value, name, minimum=0, error=error)
