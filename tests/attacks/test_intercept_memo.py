"""The memoised intercept-resend measurement against its per-pair reference.

``InterceptResendAttack`` keeps the deterministic part of a measurement (the
outcome cdf and the resent states) per distinct pair content.  The reference
below is the per-pair algorithm: two expectation values, one
``Generator.choice(2, p=…)``, then projection and renormalisation.  Both must
give equal output bytes, records, counters and generator state on every
seed.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.attacks import InterceptResendAttack
from repro.attacks.base import Attack
from repro.channel.quantum_channel import DepolarizingChannel, IdentityChainChannel
from repro.exceptions import AttackError
from repro.network.dynamics import evolve_channel
from repro.quantum.bell import bell_state
from repro.quantum.density import DensityMatrix
from repro.quantum.operators import embed_operator
from repro.utils.rng import choice_cdf

SEEDS = range(20)
BASES = [(theta, phi) for theta in (0.0, math.pi / 4, math.pi / 2) for phi in (0.0, 0.4)]


class _PerPairReference(Attack):
    """Intercept-resend measured pair by pair, with nothing shared."""

    def __init__(self, theta, phi, attack_fraction, basis_mode, rng):
        super().__init__(rng=rng)
        self.theta, self.phi = theta, phi
        self.attack_fraction = attack_fraction
        self.basis_mode = basis_mode
        self.measurement_record: list[tuple[int, int]] = []

    @staticmethod
    def _basis(theta, phi):
        u = np.array(
            [math.cos(theta / 2), np.exp(1j * phi) * math.sin(theta / 2)], dtype=complex
        )
        v = np.array(
            [-np.exp(-1j * phi) * math.sin(theta / 2), math.cos(theta / 2)], dtype=complex
        )
        return u, v

    def intercept_transmission(self, position, state):
        if not self.attacks_this_pair(self.attack_fraction):
            return state
        self.intercepted_pairs += 1
        if self.basis_mode == "random":
            u, v = self._basis(0.0 if int(self.rng.integers(2)) == 0 else math.pi / 2, 0.0)
        else:
            u, v = self._basis(self.theta, self.phi)
        projectors = [np.outer(u, u.conj()), np.outer(v, v.conj())]
        probabilities = [
            max(float(np.real(state.expectation_value(projector, [0]))), 0.0)
            for projector in projectors
        ]
        total = sum(probabilities)
        if total <= 0:
            raise AttackError("interception hit a zero-probability branch")
        probabilities = [p / total for p in probabilities]
        outcome = int(self.rng.choice(2, p=probabilities))
        self.measurement_record.append((position, outcome))
        full = embed_operator(projectors[outcome], [0], state.num_qubits)
        projected = full @ state.matrix @ full
        norm = float(np.real(np.trace(projected)))
        return DensityMatrix(projected / norm, validate=False)


def _product(first: np.ndarray, second: np.ndarray) -> DensityMatrix:
    return DensityMatrix(np.kron(np.outer(first, first.conj()), np.outer(second, second.conj())))


def _pairs() -> list[DensityMatrix]:
    """One repeated object, equal-content copies, a depolarized pair, a
    drifted-channel pair and product pairs with a zero-probability branch in
    the computational basis (``|0⟩`` and ``|1⟩`` on qubit 0)."""
    bell = DensityMatrix(bell_state())
    depolarized = DepolarizingChannel(probability=0.3).transmit(bell, 0)
    drifted = evolve_channel(
        IdentityChainChannel(eta=10), error_scale=40.0, t1_scale=0.01, t2_scale=0.01
    ).transmit(bell, 0)
    plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    zero_first = _product(np.array([1.0, 0.0], dtype=complex), plus)
    one_first = _product(np.array([0.0, 1.0], dtype=complex), plus)
    copies = [DensityMatrix(bell.matrix.copy()) for _ in range(3)]
    pattern = [bell, depolarized, bell, copies[0], drifted, zero_first, bell, one_first]
    return pattern * 3 + copies + [DensityMatrix(drifted.matrix.copy()), bell]


def _attacks(theta, phi, fraction, mode, seed):
    memoised = InterceptResendAttack(
        theta=theta, phi=phi, attack_fraction=fraction, basis_mode=mode, rng=seed
    )
    reference = _PerPairReference(theta, phi, fraction, mode, rng=np.random.default_rng(seed))
    return memoised, reference


def _run(attack, pairs):
    return [attack.intercept_transmission(position, state) for position, state in enumerate(pairs)]


CASES = [(theta, phi, "fixed") for theta, phi in BASES] + [(0.0, 0.0, "random")]


@pytest.mark.parametrize("fraction", [1.0, 0.5])
@pytest.mark.parametrize(
    "theta, phi, mode",
    CASES,
    ids=[f"theta={t:.3f}-phi={p}-{m}" for t, p, m in CASES],
)
def test_matches_the_per_pair_reference(theta, phi, mode, fraction):
    pairs = _pairs()
    for seed in SEEDS:
        memoised, reference = _attacks(theta, phi, fraction, mode, seed)
        outputs = _run(memoised, pairs)
        expected = _run(reference, pairs)
        assert [out.matrix.tobytes() for out in outputs] == [
            out.matrix.tobytes() for out in expected
        ]
        assert memoised.measurement_record == reference.measurement_record
        assert memoised.intercepted_pairs == reference.intercepted_pairs
        assert memoised.rng.bit_generator.state == reference.rng.bit_generator.state

        attacked = [position for position, _ in memoised.measurement_record]
        assert all(not outputs[position].matrix.flags.writeable for position in attacked)
        skipped = set(range(len(pairs))) - set(attacked)
        assert all(outputs[position] is pairs[position] for position in skipped)
        # Equal inputs resent with equal outcomes share one output object.
        objects: dict[tuple[bytes, bytes], set[int]] = {}
        for position in attacked:
            key = (pairs[position].matrix.tobytes(), outputs[position].matrix.tobytes())
            objects.setdefault(key, set()).add(id(outputs[position]))
        assert all(len(ids) == 1 for ids in objects.values())


@pytest.mark.parametrize("mode", ["fixed", "random"])
def test_zero_support_raises_the_same_attack_error(mode):
    pairs = _pairs()[:5] + [DensityMatrix(np.zeros((4, 4), dtype=complex), validate=False)]
    for seed in SEEDS:
        memoised, reference = _attacks(math.pi / 4, 0.4, 1.0, mode, seed)
        with pytest.raises(AttackError) as got:
            _run(memoised, pairs)
        with pytest.raises(AttackError) as expected:
            _run(reference, pairs)
        assert str(got.value) == str(expected.value)
        assert memoised.measurement_record == reference.measurement_record
        assert memoised.intercepted_pairs == reference.intercepted_pairs
        assert memoised.rng.bit_generator.state == reference.rng.bit_generator.state


#: PCG64's 128-bit LCG multiplier: each draw steps ``state = state * M + inc``
#: and outputs ``rotr64(high ^ low, state >> 122)`` of the new state.
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _generator_drawing(uniform: float) -> np.random.Generator:
    """A PCG64 generator whose next ``random()`` is *uniform* (a multiple of 2⁻⁵³).

    The stepped state is the raw word itself (high half 0, so no rotation),
    and ``random()`` is that word shifted right by 11 times 2⁻⁵³.
    """
    word = int(uniform * 2**53) << 11
    generator = np.random.default_rng(0)
    state = generator.bit_generator.state
    inc = state["state"]["inc"]
    state["state"]["state"] = (word - inc) * pow(_PCG64_MULTIPLIER, -1, 2**128) % 2**128
    generator.bit_generator.state = state
    return generator


@pytest.mark.parametrize(
    "matrix, uniform",
    [
        (np.diag([0.0, 0.0, 0.5, 0.5]), 0.0),  # cdf (0, 1): 0.0 draws outcome 1
        (np.diag([0.25, 0.25, 0.25, 0.25]), 0.5),  # cdf (0.5, 1): 0.5 draws outcome 1
    ],
    ids=["zero-branch", "half"],
)
def test_a_uniform_on_a_cdf_edge_draws_as_choice(matrix, uniform):
    assert _generator_drawing(uniform).random() == uniform
    state = DensityMatrix(matrix.astype(complex))
    memoised = InterceptResendAttack(rng=_generator_drawing(uniform))
    reference = _PerPairReference(0.0, 0.0, 1.0, "fixed", rng=_generator_drawing(uniform))
    output = memoised.intercept_transmission(0, state)
    expected = reference.intercept_transmission(0, state)
    assert memoised.measurement_record == reference.measurement_record == [(0, 1)]
    assert output.matrix.tobytes() == expected.matrix.tobytes()


@pytest.mark.parametrize(
    "probabilities",
    [
        [math.nan, 1.0],
        [-0.25, 1.25],
        [0.5, 0.5 + 2.0 * math.sqrt(np.finfo(np.float64).eps)],
    ],
    ids=["nan", "negative", "sum-off-by-more-than-sqrt-eps"],
)
def test_choice_cdf_raises_the_errors_of_choice(probabilities):
    with pytest.raises(ValueError) as expected:
        np.random.default_rng(0).choice(len(probabilities), p=probabilities)
    with pytest.raises(ValueError) as got:
        choice_cdf(np.array(probabilities))
    assert str(got.value) == str(expected.value)


def test_choice_draws_its_cdf_with_one_uniform():
    source = np.random.default_rng(7)
    for seed in range(200):
        probabilities = source.dirichlet(np.ones(1 + seed % 4))
        cdf = choice_cdf(probabilities)
        drawn = np.random.default_rng(seed)
        searched = np.random.default_rng(seed)
        assert drawn.choice(len(probabilities), p=probabilities) == int(
            cdf.searchsorted(searched.random(), side="right")
        )
        assert drawn.bit_generator.state == searched.bit_generator.state
