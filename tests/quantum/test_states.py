"""Unit tests for repro.quantum.states."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import DimensionError, NonPhysicalStateError
from repro.quantum.operators import H_MATRIX, X_MATRIX, Z_MATRIX
from repro.quantum.random import haar_random_state
from repro.quantum.states import Statevector


class TestConstruction:
    def test_zero_state(self):
        state = Statevector.zero_state(3)
        assert state.num_qubits == 3
        assert state.probability_of("000") == pytest.approx(1.0)

    def test_from_label_computational(self):
        state = Statevector.from_label("01")
        assert state.probability_of("01") == pytest.approx(1.0)

    def test_from_label_superposition(self):
        plus = Statevector.from_label("+")
        assert plus.probabilities()[0] == pytest.approx(0.5)
        assert plus.probabilities()[1] == pytest.approx(0.5)

    def test_from_label_rejects_unknown(self):
        with pytest.raises(DimensionError):
            Statevector.from_label("0q")

    def test_from_int(self):
        state = Statevector.from_int(5, 3)
        assert state.probability_of("101") == pytest.approx(1.0)

    def test_from_int_out_of_range(self):
        with pytest.raises(DimensionError):
            Statevector.from_int(8, 3)

    def test_rejects_unnormalised(self):
        with pytest.raises(NonPhysicalStateError):
            Statevector([1.0, 1.0])

    def test_rejects_non_power_of_two(self):
        with pytest.raises(DimensionError):
            Statevector([1.0, 0.0, 0.0])

    def test_normalized(self):
        state = Statevector([2.0, 0.0], validate=False).normalized()
        assert state.norm() == pytest.approx(1.0)


class TestEvolution:
    def test_apply_x_flips_bit(self):
        state = Statevector.zero_state(2).apply_operator(X_MATRIX, [1])
        assert state.probability_of("01") == pytest.approx(1.0)

    def test_apply_full_register_operator(self):
        state = Statevector.zero_state(1).apply_operator(H_MATRIX)
        assert state.probabilities()[0] == pytest.approx(0.5)

    def test_apply_operator_wrong_target_count(self):
        with pytest.raises(DimensionError):
            Statevector.zero_state(2).apply_operator(np.eye(4), [0])

    def test_apply_pauli_string(self):
        state = Statevector.zero_state(2).apply_pauli("XX", [0, 1])
        assert state.probability_of("11") == pytest.approx(1.0)

    def test_apply_pauli_length_mismatch(self):
        with pytest.raises(DimensionError):
            Statevector.zero_state(2).apply_pauli("X", [0, 1])

    def test_big_endian_convention(self):
        # X on qubit 0 of a 2-qubit register flips the leftmost bit.
        state = Statevector.zero_state(2).apply_operator(X_MATRIX, [0])
        assert state.probability_of("10") == pytest.approx(1.0)


class TestProbabilities:
    def test_marginal_probabilities(self):
        # |psi> = |0>(|0>+|1>)/sqrt2 : qubit 1 is uniform, qubit 0 deterministic.
        state = Statevector.from_label("0+")
        np.testing.assert_allclose(state.probabilities([0]), [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(state.probabilities([1]), [0.5, 0.5], atol=1e-12)

    def test_qubit_order_in_marginals(self):
        state = Statevector.from_label("01")
        # Asking for (qubit1, qubit0) must report the outcome "10".
        probs = state.probabilities([1, 0])
        assert probs[0b10] == pytest.approx(1.0)

    def test_probabilities_sum_to_one(self):
        state = Statevector.from_label("+-")
        assert state.probabilities().sum() == pytest.approx(1.0)

    def test_duplicate_qubits_rejected(self):
        with pytest.raises(DimensionError):
            Statevector.zero_state(2).probabilities([0, 0])

    def test_probability_of_length_mismatch(self):
        with pytest.raises(DimensionError):
            Statevector.zero_state(2).probability_of("0")


class TestSamplingAndMeasurement:
    def test_sample_counts_total(self):
        counts = Statevector.from_label("+").sample_counts(1000, rng=1)
        assert sum(counts.values()) == 1000
        assert set(counts) <= {"0", "1"}

    def test_sample_counts_deterministic_state(self):
        counts = Statevector.from_label("10").sample_counts(100, rng=2)
        assert counts == {"10": 100}

    def test_sample_counts_seeded_reproducibility(self):
        state = Statevector.from_label("++")
        assert state.sample_counts(500, rng=3) == state.sample_counts(500, rng=3)

    def test_measure_collapses_state(self):
        state = Statevector.from_label("+")
        outcome, post = state.measure(rng=4)
        assert outcome in ("0", "1")
        assert post.probability_of(outcome) == pytest.approx(1.0)

    def test_measure_subset_keeps_other_qubits(self):
        state = Statevector.from_label("+0")
        outcome, post = state.measure([0], rng=5)
        assert post.num_qubits == 2
        assert post.probability_of("0", qubits=[1]) == pytest.approx(1.0)

    def test_measurement_of_entangled_pair_is_correlated(self):
        bell = Statevector(np.array([1, 0, 0, 1]) / np.sqrt(2))
        outcome, post = bell.measure([0], rng=6)
        assert post.probability_of(outcome, qubits=[1]) == pytest.approx(1.0)

    def test_negative_shots_rejected(self):
        with pytest.raises(ValueError):
            Statevector.from_label("0").sample_counts(-1)


class TestComparisons:
    def test_overlap_and_fidelity(self):
        zero = Statevector.from_label("0")
        plus = Statevector.from_label("+")
        assert abs(zero.overlap(plus)) == pytest.approx(1 / np.sqrt(2))
        assert zero.fidelity(plus) == pytest.approx(0.5)

    def test_equiv_up_to_global_phase(self):
        state = Statevector.from_label("+")
        phased = Statevector(np.exp(1j * 1.2) * state.vector, validate=False)
        assert state.equiv(phased)

    def test_expectation_value_on_subset(self):
        state = Statevector.from_label("0+")
        assert state.expectation_value(Z_MATRIX, [0]) == pytest.approx(1.0)
        assert state.expectation_value(X_MATRIX, [1]) == pytest.approx(1.0)

    def test_tensor_product(self):
        state = Statevector.from_label("0").tensor(Statevector.from_label("1"))
        assert state.probability_of("01") == pytest.approx(1.0)

    def test_density_matrix_of_pure_state_has_unit_purity(self):
        dm = Statevector.from_label("+-").density_matrix()
        assert dm.purity() == pytest.approx(1.0)

    def test_partial_trace_of_entangled_state_is_mixed(self):
        bell = Statevector(np.array([1, 0, 0, 1]) / np.sqrt(2))
        reduced = bell.partial_trace([0])
        assert reduced.purity() == pytest.approx(0.5)


class TestDensityMatrix:
    """``v v†`` is Hermitian by construction: only its trace is checked."""

    def test_bytes_equal_the_outer_product_for_haar_random_vectors(self):
        rng = np.random.default_rng(29)
        for index in range(200):
            state = haar_random_state(1 + index % 4, rng=rng)
            matrix = state.density_matrix().matrix
            vector = state.vector
            assert matrix.tobytes() == np.outer(vector, vector.conj()).tobytes()
            assert matrix.flags.writeable

    def test_a_new_matrix_per_call(self):
        state = Statevector.from_label("+0")
        first, second = state.density_matrix(), state.density_matrix()
        assert first.matrix is not second.matrix

    @pytest.mark.parametrize(
        "vector",
        [[1.0, 1.0], [0.0, 0.0], [np.nan, 0.0], [np.inf, 0.0], [1.0, -np.inf], [np.nan, np.nan]],
        ids=["unnormalised", "zero", "nan", "inf", "minus-inf", "all-nan"],
    )
    def test_non_physical_vectors_still_raise(self, vector):
        state = Statevector(vector, validate=False)
        # inf · 0 in the outer product is NaN; numpy warns, the check raises.
        with np.errstate(invalid="ignore"), pytest.raises(NonPhysicalStateError):
            state.density_matrix()
