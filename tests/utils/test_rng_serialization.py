"""Unit tests for RNG plumbing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.rng import as_rng, derive_rng, spawn_rngs


class TestAsRng:
    def test_none_returns_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        assert as_rng(42).integers(0, 1000) == as_rng(42).integers(0, 1000)

    def test_generator_passthrough(self):
        generator = np.random.default_rng(1)
        assert as_rng(generator) is generator

    def test_invalid_type_rejected(self):
        with pytest.raises(TypeError):
            as_rng("not-a-seed")


class TestDeriveAndSpawn:
    def test_derive_is_deterministic_given_parent_state(self):
        child_a = derive_rng(np.random.default_rng(7), "alice")
        child_b = derive_rng(np.random.default_rng(7), "alice")
        assert child_a.integers(0, 10**9) == child_b.integers(0, 10**9)

    def test_derive_differs_by_tag(self):
        parent = np.random.default_rng(7)
        child_a = derive_rng(parent, "alice")
        parent = np.random.default_rng(7)
        child_b = derive_rng(parent, "bob")
        assert child_a.integers(0, 10**9) != child_b.integers(0, 10**9)

    def test_spawn_count(self):
        children = spawn_rngs(3, 5)
        assert len(children) == 5
        values = {int(c.integers(0, 10**9)) for c in children}
        assert len(values) == 5

    def test_spawn_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)
