"""``draw_setting_pairs`` and its callers against the scalar calls they replace.

The helper returns a run of ``integers(low, 3)``, ``integers(1, 3)``,
``random()``, ``random()`` rounds as arrays.  Its PCG64 path relies on how
numpy draws bounded integers (Lemire's method on one 32-bit half of a raw
output) and doubles (one raw output shifted right by 11), so a numpy upgrade
that changes either algorithm fails here instead of moving every seeded
result.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import NonPhysicalStateError
from repro.protocol.chsh import CHSHSettings, DISecurityCheck
from repro.protocol.identity import Identity
from repro.protocol.parties import Bob
from repro.quantum.density import DensityMatrix
from repro.quantum.measurement import (
    bell_measurement,
    equatorial_observable,
    measure_observable,
)
from repro.utils.rng import draw_setting_pairs

#: 200 seeds; sizes cover 1…512, both ends included.
SEEDS_AND_SIZES = [(0, 1), (1, 512)] + [
    (seed, 1 + (seed * 131) % 512) for seed in range(2, 200)
]

#: PCG64's 128-bit LCG multiplier (``state ← state · M + inc``).
PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _scalar_draws(generator, count, alice_low):
    rounds = [
        (
            int(generator.integers(alice_low, 3)),
            int(generator.integers(1, 3)),
            generator.random(),
            generator.random(),
        )
        for _ in range(count)
    ]
    columns = list(zip(*rounds))
    return (
        np.array(columns[0], dtype=np.int64),
        np.array(columns[1], dtype=np.int64),
        np.array(columns[2]),
        np.array(columns[3]),
    )


def _assert_same_stream(generator, reference, count, alice_low):
    drawn = draw_setting_pairs(generator, count, alice_low)
    expected = _scalar_draws(reference, count, alice_low)
    for got, want in zip(drawn, expected):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    after, reference_after = generator.bit_generator.state, reference.bit_generator.state
    if after["bit_generator"] == "PCG64":
        # The raw LCG state and the buffer flag must match.  The buffered
        # ``uinteger`` field may differ: the array path does not refresh it,
        # and it is never read while ``has_uint32 == 0``.
        assert after["state"] == reference_after["state"]
        assert after["has_uint32"] == reference_after["has_uint32"]
    np.testing.assert_array_equal(
        generator.bit_generator.random_raw(4), reference.bit_generator.random_raw(4)
    )


@pytest.mark.parametrize("alice_low", [0, 1], ids=["use-a0", "paper"])
def test_pcg64_arrays_equal_the_scalar_calls(alice_low):
    for seed, count in SEEDS_AND_SIZES:
        _assert_same_stream(
            np.random.default_rng(seed), np.random.default_rng(seed), count, alice_low
        )


@pytest.mark.parametrize("alice_low", [0, 1], ids=["use-a0", "paper"])
def test_buffered_half_takes_the_scalar_calls(alice_low):
    generator, reference = np.random.default_rng(5), np.random.default_rng(5)
    for rng in (generator, reference):
        rng.integers(1, 3)  # One 32-bit half used, the other buffered.
        assert rng.bit_generator.state["has_uint32"] == 1
    _assert_same_stream(generator, reference, 37, alice_low)


@pytest.mark.parametrize(
    "bit_generator", [np.random.MT19937, np.random.Philox, np.random.PCG64DXSM]
)
@pytest.mark.parametrize("alice_low", [0, 1], ids=["use-a0", "paper"])
def test_other_bit_generators_take_the_scalar_calls(bit_generator, alice_low):
    generator = np.random.Generator(bit_generator(7))
    reference = np.random.Generator(bit_generator(7))
    _assert_same_stream(generator, reference, 64, alice_low)


def _generator_before_zero_output(seed):
    """A PCG64 generator whose next raw output is 0.

    PCG64 steps its state, then outputs the XSL-RR of the new state: the
    rotated XOR of its high and low words, which is 0 when they are equal.
    The state one step earlier is ``(target − inc) · M⁻¹ mod 2¹²⁸``.
    """
    generator = np.random.default_rng(seed)
    state = generator.bit_generator.state
    word = 0x0123456789ABCDEF + seed
    target = (word << 64) | word
    inverse = pow(PCG64_MULTIPLIER, -1, 1 << 128)
    state["state"]["state"] = ((target - state["state"]["inc"]) * inverse) % (1 << 128)
    generator.bit_generator.state = state
    return generator


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_forced_rejection_replays_the_scalar_calls(seed):
    probe = _generator_before_zero_output(seed)
    assert probe.bit_generator.random_raw() == 0
    # integers(0, 3) rejects a zero word, so the scalar calls consume more
    # than three raw outputs per round here.
    reference = _generator_before_zero_output(seed)
    _scalar_draws(reference, 5, alice_low=0)
    three_per_round = _generator_before_zero_output(seed)
    three_per_round.bit_generator.random_raw(15)
    assert reference.bit_generator.state["state"] != three_per_round.bit_generator.state["state"]

    _assert_same_stream(
        _generator_before_zero_output(seed), _generator_before_zero_output(seed), 5, 0
    )
    # A range of 2 never rejects, so the paper's settings keep the array path.
    _assert_same_stream(
        _generator_before_zero_output(seed), _generator_before_zero_output(seed), 5, 1
    )


def test_alice_low_outside_zero_or_one_rejected():
    with pytest.raises(ValueError):
        draw_setting_pairs(np.random.default_rng(0), 4, alice_low=2)


def _reference_outcomes_raise(settings, pairs, generator):
    """Whether two ``measure_observable`` calls per pair hit a missing branch."""
    try:
        for pair in pairs:
            alice_setting = int(generator.integers(0 if settings.use_a0 else 1, 3))
            bob_setting = int(generator.integers(1, 3))
            _, post = measure_observable(
                pair, equatorial_observable(settings.alice_angles[alice_setting]), [0],
                rng=generator,
            )
            measure_observable(
                post,
                equatorial_observable(
                    settings.bob_angles[bob_setting - 1], conjugate=settings.conjugate_bob
                ),
                [1],
                rng=generator,
            )
    except NonPhysicalStateError:
        return True
    return False


def test_estimate_raises_only_when_a_missing_branch_is_drawn():
    # Half the trace on |+⟩|0⟩: under Alice's A1 = X the −1 branch has no
    # support, and the A2 = Y branches both do.
    plus_zero = np.zeros(4)
    plus_zero[[0, 2]] = 1 / np.sqrt(2)
    pair = DensityMatrix(0.5 * np.outer(plus_zero, plus_zero), validate=False)
    settings = CHSHSettings()
    raised = []
    for seed in range(40):
        expected = _reference_outcomes_raise(settings, [pair] * 3, np.random.default_rng(seed))
        if expected:
            with pytest.raises(NonPhysicalStateError, match="zero-probability outcome"):
                DISecurityCheck(settings).estimate([pair] * 3, rng=seed)
        else:
            DISecurityCheck(settings).estimate([pair] * 3, rng=seed)
        raised.append(expected)
    assert any(raised) and not all(raised)


def test_bell_measure_raises_choices_error_on_nan_probabilities():
    pair = DensityMatrix(np.full((4, 4), np.nan), validate=False)
    with pytest.raises(ValueError) as expected:
        bell_measurement(pair, [0, 1], rng=0)
    bob = Bob(
        identity=Identity.random(1, owner="bob", rng=0),
        peer_identity=Identity.random(1, owner="alice", rng=1),
        rng=0,
    )
    with pytest.raises(ValueError) as raised:
        bob.bell_measure({0: pair}, (0,))
    assert str(raised.value) == str(expected.value) == "Probabilities contain NaN"
