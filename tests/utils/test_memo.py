"""The contract of ``repro.utils.memo.BoundedMemo``, the one bounded memo type
behind the quantum layer's caches (its users are held in
``tests/quantum/test_state_sharing.py``)."""

from __future__ import annotations

import pytest

from repro.quantum import density, dispatch, measurement, operators
from repro.quantum.stabilizer import StabilizerSimulator
from repro.utils.memo import BoundedMemo


def test_a_hit_returns_the_kept_value_without_computing():
    memo = BoundedMemo(4)
    calls = []

    def compute(value):
        calls.append(value)
        return [value]

    first = memo.get("a", compute, 1)
    assert memo.get("a", compute, 2) is first
    assert calls == [1]
    assert (memo.hits, memo.misses, len(memo)) == (1, 1, 1)


def test_the_least_recently_used_entry_is_evicted():
    memo = BoundedMemo(2)
    memo.get("a", str, "a")
    memo.get("b", str, "b")
    memo.get("a", str, "unused")  # "b" is now the least recently used
    memo.get("c", str, "c")
    assert len(memo) == 2
    assert memo.get("a", str, "recomputed") == "a"
    assert memo.get("b", str, "recomputed") == "recomputed"


def test_none_is_not_kept():
    memo = BoundedMemo(2)
    calls = []

    def compute():
        calls.append(None)

    assert memo.get("a", compute) is None
    assert memo.get("a", compute) is None
    assert len(calls) == 2 and len(memo) == 0
    assert (memo.hits, memo.misses) == (0, 2)


def test_an_exception_keeps_nothing():
    memo = BoundedMemo(2)
    with pytest.raises(ZeroDivisionError):
        memo.get("a", lambda: 1 / 0)
    assert len(memo) == 0
    assert memo.get("a", lambda: 1) == 1


def test_clear_drops_entries_and_keeps_counting():
    memo = BoundedMemo(2)
    memo.get("a", str, "a")
    memo.get("a", str, "a")
    memo.clear()
    assert len(memo) == 0
    memo.get("a", str, "a")
    assert (memo.hits, memo.misses) == (1, 2)


def test_the_quantum_layer_bounds():
    assert density._STATISTICS.max_entries == 1024
    assert operators._EMBEDDINGS.max_entries == 1024
    assert measurement._PROJECTORS.max_entries == 256
    assert dispatch._MIXTURES.max_entries == 64
    assert StabilizerSimulator()._distributions.max_entries == 256
