"""Kraus maps as one array, held byte for byte to the per-operator loops they replaced.

A :class:`~repro.quantum.channels.KrausChannel` holds its operators as one
``(k, d, d)`` array and does every step over them as one NumPy call; the
CHSH block and the Bell probabilities read stacked projectors.  The
per-operator code each path replaced is kept here as its reference:

* ``_reference_embed``: one operator's ``tensordot`` against the identity
  (``embed_operator`` before it became the one-operator case of
  ``embed_operators``);
* ``_reference_apply``: ``result = result + E ρ E†`` from zero, one embedded
  operator at a time (``DensityMatrix.apply_kraus``);
* ``_reference_compose``: ``[b @ a for a in self for b in other]``, and the
  tensor and excited-population comprehensions;
* ``_reference_block``: the CHSH block with full ``observable_branches`` on
  every Bob branch, post states included;
* ``_reference_bell``: one ``Tr(ρ P)`` per embedded Bell projector.

The seeded cases cover registers of one to five qubits, every order of one,
two and three targets, operator entries whose real and imaginary parts are
often exact or negative zeros, a pickled map and eight threads racing a
fresh map's first embedding.
"""

from __future__ import annotations

import itertools
import math
import pickle
import sys
import threading

import numpy as np
import pytest

from repro.exceptions import DimensionError, NoiseModelError
from repro.protocol.chsh import CHSHSettings, DISecurityCheck
from repro.quantum.bell import BellState, bell_projector, bell_state
from repro.quantum.channels import (
    KrausChannel,
    amplitude_damping_channel,
    depolarizing_channel,
    phase_damping_channel,
    thermal_relaxation_channel,
)
from repro.quantum.density import DensityMatrix
from repro.quantum.measurement import (
    BELL_OUTCOME_ORDER,
    _observable_projectors,
    bell_basis_probability_vector,
    equatorial_observable,
)
from repro.quantum.operators import (
    MAX_KEPT_EMBEDDING_QUBITS,
    embed_operator,
    embed_operators,
)
from repro.quantum.states import Statevector

#: Maps drawn per (register size, target order); 145 target orders in all.
MAPS_PER_TARGETS = 14


# -- references: the per-operator code the stacked paths replaced --------------------


def _reference_embed(matrix: np.ndarray, qubits, num_qubits: int) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=complex)
    k = int(round(math.log2(matrix.shape[0])))
    full = np.eye(2**num_qubits, dtype=complex).reshape([2] * (2 * num_qubits))
    gate = matrix.reshape([2] * (2 * k))
    out_axes = [int(q) for q in qubits]
    contracted = np.tensordot(gate, full, axes=(list(range(k, 2 * k)), out_axes))
    contracted = np.moveaxis(contracted, range(k), out_axes)
    return contracted.reshape(2**num_qubits, 2**num_qubits)


def _reference_apply(rho: np.ndarray, embedded) -> bytes:
    """The loop over full-register operators (embedded by ``_reference_embed``)."""
    result = np.zeros_like(rho)
    for full in embedded:
        result = result + full @ rho @ full.conj().T
    return result.tobytes()


def _reference_embed_all(kraus, qubits, num_qubits: int) -> list[np.ndarray]:
    return [_reference_embed(operator, qubits, num_qubits) for operator in kraus]


def _reference_compose(first, then) -> bytes:
    return np.array([b @ a for a in first for b in then]).tobytes()


def _reference_branches(state, observable, qubit: int):
    """``observable_branches`` as it was: both post states of every branch."""
    plus, minus = (
        _reference_embed(local, [qubit], state.num_qubits)
        for local in _observable_projectors(observable)
    )
    if isinstance(state, Statevector):
        vec = state.vector
        prob_plus = float(np.real(vec.conj() @ (plus @ vec)))
        posts = []
        for projector in (plus, minus):
            post = projector @ vec
            norm = np.linalg.norm(post)
            posts.append(None if norm <= 1e-12 else Statevector(post / norm, validate=False))
    else:
        rho = state.matrix
        prob_plus = float(np.real(np.trace(plus @ rho)))
        posts = []
        for projector in (plus, minus):
            projected = projector @ rho @ projector
            norm = float(np.real(np.trace(projected)))
            posts.append(
                None if norm <= 1e-12 else DensityMatrix(projected / norm, validate=False)
            )
    return min(max(prob_plus, 0.0), 1.0), posts[0], posts[1]


def _reference_block(settings: CHSHSettings, pair) -> bytes:
    bob_observables = [
        equatorial_observable(angle, conjugate=settings.conjugate_bob)
        for angle in settings.bob_angles
    ]
    rows = []
    for angle in settings.alice_angles[0 if settings.use_a0 else 1 :]:
        p_alice, *posts = _reference_branches(pair, equatorial_observable(angle), 0)
        p_bob = [
            [-1.0] * 2
            if post is None
            else [_reference_branches(post, bob, 1)[0] for bob in bob_observables]
            for post in posts
        ]
        rows.extend(zip([p_alice] * 2, *p_bob))
    return np.array(rows).tobytes()


def _reference_bell(state: DensityMatrix, pair) -> bytes:
    values = [
        complex(
            np.trace(
                state.matrix
                @ _reference_embed(bell_projector(which).matrix, pair, state.num_qubits)
            )
        )
        for which in BELL_OUTCOME_ORDER
    ]
    probs = np.array([max(float(np.real(value)), 0.0) for value in values])
    return (probs / probs.sum()).tobytes()


# -- seeded inputs ---------------------------------------------------------------------


def _with_zeros(rng: np.random.Generator, values: np.ndarray) -> np.ndarray:
    """*values* with about a fifth of the real and of the imaginary parts set
    to exact zeros and a fifth to negative zeros."""
    values = np.array(values, dtype=complex)
    for part in (values.real, values.imag):
        draw = rng.random(part.shape)
        part[draw < 0.2] = 0.0
        part[draw > 0.8] = -0.0
    return values


def _operators(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    shape = (count, dim, dim)
    return _with_zeros(rng, rng.normal(size=shape) + 1j * rng.normal(size=shape))


def _state(rng: np.random.Generator, num_qubits: int) -> DensityMatrix:
    """A random mixed state; about half of them with small entries set to signed zeros."""
    dim = 2**num_qubits
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    rho = rho / np.trace(rho)
    if rng.random() < 0.5:
        rho.real[np.abs(rho.real) < 0.03] = -0.0
        rho.imag[np.abs(rho.imag) < 0.03] = 0.0
    return DensityMatrix(rho, validate=False)


def _target_orders(num_qubits: int) -> list[tuple[int, ...]]:
    return [
        targets
        for k in range(1, min(num_qubits, 3) + 1)
        for targets in itertools.permutations(range(num_qubits), k)
    ]


def _cases(num_qubits: int):
    """``(targets, operators, state)`` for every target order, seeded per order.

    One-qubit maps have up to 16 operators (a drifted link has 16), wider
    ones up to ``16 / 2**(k-1)``.
    """
    for index, targets in enumerate(_target_orders(num_qubits)):
        rng = np.random.default_rng([num_qubits, index])
        most = 16 >> (len(targets) - 1)
        for _ in range(MAPS_PER_TARGETS):
            count = int(rng.integers(1, most + 1))
            yield targets, _operators(rng, count, 2 ** len(targets)), _state(rng, num_qubits)


def test_case_count():
    total = sum(len(_target_orders(n)) for n in range(1, 6)) * MAPS_PER_TARGETS
    assert total >= 2000


# -- embedding and application ---------------------------------------------------------


class TestStackedPaths:
    @pytest.mark.parametrize("num_qubits", [1, 2, 3, 4, 5])
    def test_embed_and_apply_match_per_operator(self, num_qubits):
        for targets, operators, state in _cases(num_qubits):
            embedded = _reference_embed_all(operators, targets, num_qubits)
            expected = np.array(embedded).tobytes()
            assert embed_operators(operators, targets, num_qubits).tobytes() == expected
            single = embed_operator(operators[0], list(targets), num_qubits)
            assert single.tobytes() == embedded[0].tobytes()
            channel = KrausChannel(operators, validate=False)
            assert channel.embedded(targets, num_qubits).tobytes() == expected
            applied = _reference_apply(state.matrix, embedded)
            assert channel.apply(state, targets).matrix.tobytes() == applied
            assert state.apply_kraus(list(operators), targets).matrix.tobytes() == applied

    def test_map_keeps_read_only_embeddings_up_to_four_qubits(self):
        channel = amplitude_damping_channel(0.3)
        for num_qubits in range(1, MAX_KEPT_EMBEDDING_QUBITS + 1):
            kept = channel.embedded((0,), num_qubits)
            assert channel.embedded((0,), num_qubits) is kept
            assert not kept.flags.writeable
        wide = channel.embedded((0,), MAX_KEPT_EMBEDDING_QUBITS + 1)
        assert channel.embedded((0,), MAX_KEPT_EMBEDDING_QUBITS + 1) is not wide

    @pytest.mark.parametrize("targets", [(1, 1), (3,), (0, 1, 2)])
    def test_bad_targets_raise_on_every_call(self, targets):
        channel = amplitude_damping_channel(0.3).tensor(phase_damping_channel(0.2))
        for _ in range(2):
            with pytest.raises(DimensionError):
                channel.embedded(targets, 3)


    @pytest.mark.parametrize("num_qubits", [1, 2, 3])
    def test_whole_register_matches_loop(self, num_qubits):
        rng = np.random.default_rng(num_qubits)
        for _ in range(40):
            operators = _operators(rng, int(rng.integers(1, 17)), 2**num_qubits)
            state = _state(rng, num_qubits)
            expected = _reference_apply(state.matrix, operators)
            assert KrausChannel(operators, validate=False).apply(state).matrix.tobytes() == expected
            assert state.apply_kraus(operators).matrix.tobytes() == expected

    def test_negative_zero_terms_add_to_positive_zero(self):
        state = DensityMatrix(np.diag([1.0, 0.0]).astype(complex), validate=False)
        kraus = np.array([[[-0.0, 0.0], [0.0, 1.0]]], dtype=complex)
        applied = state.apply_kraus(kraus).matrix
        assert applied.tobytes() == _reference_apply(state.matrix, kraus)
        assert not np.signbit(applied.real).any()


# -- building and composing maps -------------------------------------------------------


class TestMapAlgebra:
    def test_compose_and_tensor_match_comprehensions(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            dim = 2 ** int(rng.integers(1, 3))
            first = _operators(rng, int(rng.integers(1, 9)), dim)
            then = _operators(rng, int(rng.integers(1, 9)), dim)
            a, b = KrausChannel(first, validate=False), KrausChannel(then, validate=False)
            composed = a.compose(b)
            assert composed.content_key() == (dim, _reference_compose(first, then))
            assert b"".join(k.tobytes() for k in composed.kraus_operators) == (
                _reference_compose(first, then)
            )
            tensored = a.tensor(b).content_key()[1]
            assert tensored == np.array([np.kron(x, y) for x in first for y in then]).tobytes()

    @pytest.mark.parametrize("population", [0.0, 0.05, 1.0])
    def test_thermal_relaxation_matches_comprehension(self, population):
        t1, t2, time = 120e-6, 90e-6, 3e-6
        gamma = 1.0 - math.exp(-time / t1)
        dephasing = phase_damping_channel(
            1.0 - (math.exp(-time / t2) / math.exp(-time / (2 * t1))) ** 2
        )
        down = amplitude_damping_channel(gamma).kraus_operators
        expected = _reference_compose(down, dephasing.kraus_operators)
        if population > 0:
            up = KrausChannel(
                [
                    np.array([[math.sqrt(1 - gamma), 0], [0, 1]], dtype=complex),
                    np.array([[0, 0], [math.sqrt(gamma), 0]], dtype=complex),
                ]
            ).kraus_operators
            composed = [b @ a for a in down for b in dephasing.kraus_operators]
            composed_up = [b @ a for a in up for b in dephasing.kraus_operators]
            expected = np.array(
                [math.sqrt(1 - population) * k for k in composed]
                + [math.sqrt(population) * k for k in composed_up]
            ).tobytes()
        channel = thermal_relaxation_channel(t1, t2, time, population)
        assert channel.content_key()[1] == expected

    def test_operators_are_read_only_rows(self):
        channel = depolarizing_channel(0.2)
        rows = channel.kraus_operators
        assert len(rows) == 4 and all(row.shape == (2, 2) for row in rows)
        for row in rows:
            with pytest.raises(ValueError):
                row[0, 0] = 0.0
        rows.clear()
        assert len(channel.kraus_operators) == 4

    def test_stack_and_sequence_build_equal_maps(self):
        operators = depolarizing_channel(0.3).kraus_operators
        stacked = KrausChannel(np.array(operators))
        listed = KrausChannel(operators)
        assert stacked.content_key() == listed.content_key()

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_completeness_check_keeps_the_allclose_accept_set(self):
        rng = np.random.default_rng(11)
        base = np.array(depolarizing_channel(0.3).kraus_operators)
        for _ in range(1000):
            scale = 1.0 + rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-7.5, -4.0)
            operators = base * scale
            if rng.random() < 0.3:
                operators = operators + _with_zeros(rng, rng.normal(size=base.shape)) * 10 ** rng.uniform(-8, -5)
            if rng.random() < 0.02:
                operators[0, 0, 0] = rng.choice([np.nan, np.inf])
            total = sum(k.conj().T @ k for k in operators)
            accepted = np.allclose(total, np.eye(2), atol=1e-6)
            if accepted:
                KrausChannel(operators)
            else:
                with pytest.raises(NoiseModelError):
                    KrausChannel(operators)


# -- pickling and threads --------------------------------------------------------------


class TestSharing:
    def test_pickled_map_is_read_only_and_embeds_afresh(self):
        channel = thermal_relaxation_channel(100e-6, 80e-6, 5e-6, 0.1)
        state = _state(np.random.default_rng(3), 2)
        before = channel.apply(state, [1]).matrix.tobytes()
        restored = pickle.loads(pickle.dumps(channel))
        assert restored.name == channel.name
        assert restored.content_key() == channel.content_key()
        assert all(not row.flags.writeable for row in restored.kraus_operators)
        assert restored.apply(state, [1]).matrix.tobytes() == before
        embedded = restored.embedded((1,), 2)
        assert not embedded.flags.writeable
        assert embedded.tobytes() == channel.embedded((1,), 2).tobytes()

    def test_eight_threads_racing_a_first_embedding_match_the_loop(self):
        rng = np.random.default_rng(5)
        operators = _operators(rng, 16, 2)
        states = [_state(rng, n) for n in (2, 3)]
        targets = [(0,), (1,)]
        expected = [
            _reference_apply(state.matrix, _reference_embed_all(operators, t, state.num_qubits))
            for state in states
            for t in targets
        ]
        channel = KrausChannel(operators, validate=False)
        results: list[list[bytes]] = []
        barrier = threading.Barrier(8)

        def worker() -> None:
            barrier.wait(timeout=30)
            for _ in range(10):
                results.append(
                    [channel.apply(state, t).matrix.tobytes() for state in states for t in targets]
                )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 8 * 10
        assert all(result == expected for result in results)
        assert not channel.embedded((0,), 3).flags.writeable


# -- CHSH blocks and Bell probabilities ------------------------------------------------


def _pair_states(rng: np.random.Generator) -> list:
    """Random mixed and pure pairs, Bell states and pairs with a zero-probability branch."""
    plus_zero = Statevector.from_label("+0")
    states = [bell_state(which).density_matrix() for which in BellState]
    states += [DensityMatrix(plus_zero), plus_zero, bell_state(BellState.PSI_MINUS)]
    for _ in range(60):
        states.append(_state(rng, 2))
        vector = rng.normal(size=4) + 1j * rng.normal(size=4)
        states.append(Statevector(vector / np.linalg.norm(vector)))
    return states


class TestCHSHBlock:
    @pytest.mark.parametrize(
        "settings",
        [CHSHSettings(), CHSHSettings(use_a0=True), CHSHSettings(conjugate_bob=False)],
        ids=["default", "a0", "plain-phase"],
    )
    def test_block_matches_observable_branches(self, settings):
        check = DISecurityCheck(settings)
        states = _pair_states(np.random.default_rng(17))
        for state in states:
            assert check._branch_statistics(state).tobytes() == _reference_block(settings, state)
        # |+0> is an eigenstate of A1 = X: its −1 branch has no post state.
        assert (check._branch_statistics(states[4]) == -1.0).any()


class TestBellProbabilities:
    @pytest.mark.parametrize("num_qubits", [2, 3, 4])
    def test_stacked_trace_matches_per_projector(self, num_qubits):
        rng = np.random.default_rng(num_qubits)
        pairs = list(itertools.permutations(range(num_qubits), 2))
        for index in range(700 // num_qubits):
            state = _state(rng, num_qubits)
            pair = pairs[index % len(pairs)]
            probabilities = bell_basis_probability_vector(state, pair)
            assert probabilities.tobytes() == _reference_bell(state, pair)

    def test_bell_states_and_statevectors(self):
        for which in BellState:
            pure = bell_state(which)
            mixed = pure.density_matrix()
            assert bell_basis_probability_vector(mixed, (0, 1)).tobytes() == _reference_bell(
                mixed, (0, 1)
            )
            expected = np.array(
                [float(which is outcome) for outcome in BELL_OUTCOME_ORDER]
            )
            assert np.allclose(bell_basis_probability_vector(pure, [0, 1]), expected)
