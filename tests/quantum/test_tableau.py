"""Unit tests for the bit-packed CHP tableau engine.

The tableau is checked against an independent reference — the dense
statevector of the same operation stream — rather than against another
tableau: every signed stabilizer generator must fix the dense state,
deterministic measurement outcomes must be the dense certainties, and a
random outcome must leave the projected dense state stabilized.  The rest
pins the batch semantics (shared symplectic block, per-element signs), the
popcount kernel, the packed-word boundary and the error surface.
"""

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.gates import make_gate
from repro.quantum.operators import Operator
from repro.quantum.simulator import DensityMatrixSimulator, StatevectorSimulator
from repro.quantum.stabilizer import CliffordTableau, StabilizerSimulator, popcount
from repro.quantum.states import Statevector

ONE_QUBIT_GATES = ("h", "s", "sdg", "x", "y", "z")
TWO_QUBIT_GATES = ("cx", "cz", "cy", "swap")


def random_step(rng, n: int) -> tuple[str, list[int], int]:
    """One random Clifford gate, its qubits and a repetition count."""
    if n >= 2 and rng.random() < 0.4:
        gate = TWO_QUBIT_GATES[int(rng.integers(len(TWO_QUBIT_GATES)))]
        qubits = [int(q) for q in rng.choice(n, size=2, replace=False)]
    else:
        gate = ONE_QUBIT_GATES[int(rng.integers(len(ONE_QUBIT_GATES)))]
        qubits = [int(rng.integers(n))]
    return gate, qubits, int(rng.integers(1, 5))


def apply_dense(state: Statevector, gate: str, qubits, repetitions: int = 1) -> Statevector:
    operator = Operator(make_gate(gate).matrix)
    for _ in range(repetitions):
        state = state.apply_operator(operator, qubits)
    return state


def assert_stabilizes(tableau: CliffordTableau, state: Statevector) -> None:
    """Every signed generator P of the tableau satisfies P|ψ> = |ψ>."""
    n = tableau.n
    for generator in tableau.stabilizer_strings():
        sign = -1.0 if generator[0] == "-" else 1.0
        image = state.apply_pauli(generator[1:], list(range(n))).vector
        assert np.allclose(sign * image, state.vector, atol=1e-9), generator


def qubit_one_probability(state: Statevector, qubit: int) -> float:
    return float(state.probabilities([qubit])[1])


def project(state: Statevector, qubit: int, outcome: int) -> Statevector:
    """The normalised post-measurement state for *outcome* on *qubit*."""
    n = state.num_qubits
    indices = np.arange(2**n)
    keep = ((indices >> (n - 1 - qubit)) & 1) == outcome
    vector = np.where(keep, state.vector, 0.0)
    return Statevector(vector / np.linalg.norm(vector))


class TestPopcount:
    def test_matches_python_bit_count(self):
        rng = np.random.default_rng(0)
        words = rng.integers(0, 2**63, size=64, dtype=np.uint64)
        words[0] = 0
        words[1] = np.uint64(2**64 - 1)
        expected = np.array([int(w).bit_count() for w in words], dtype=np.uint64)
        assert np.array_equal(popcount(words), expected)


class TestTableauAgainstStatevector:
    """The packed tableau's signed generators stabilize the dense state."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_random_clifford_stream_stabilizes_dense_state(self, seed, n):
        rng = np.random.default_rng(1000 * n + seed)
        tableau = CliffordTableau(n)
        circuit = QuantumCircuit(n)
        for _ in range(80):
            gate, qubits, repetitions = random_step(rng, n)
            tableau.apply_gate(gate, qubits, repetitions)
            circuit.repeat(gate, qubits, repetitions)
            if rng.random() < 0.15:
                label = "".join("ixyz"[int(rng.integers(4))] for _ in qubits)
                tableau.apply_pauli(label, qubits)
                circuit.pauli(label.upper(), qubits)
        assert_stabilizes(tableau, StatevectorSimulator().final_statevector(circuit))

    def test_word_boundary_qubits_match_a_narrow_tableau(self):
        # Qubits 62..65 straddle the packed 64-bit word boundary; the same
        # stream on qubits 0..3 of a 4-qubit tableau is the reference.
        rng = np.random.default_rng(66)
        wide, narrow = CliffordTableau(66), CliffordTableau(4)
        wide_rng, narrow_rng = np.random.default_rng(5), np.random.default_rng(5)
        outcomes = []
        for _ in range(120):
            gate, qubits, repetitions = random_step(rng, 4)
            wide.apply_gate(gate, [62 + q for q in qubits], repetitions)
            narrow.apply_gate(gate, qubits, repetitions)
            if rng.random() < 0.1:
                q = int(rng.integers(4))
                outcomes.append(
                    (int(wide.measure(62 + q, wide_rng)[0]),
                     int(narrow.measure(q, narrow_rng)[0]))
                )
        assert outcomes and all(a == b for a, b in outcomes)
        wide_strings = wide.stabilizer_strings()
        assert wide_strings[:62] == [
            "+" + "I" * q + "Z" + "I" * (65 - q) for q in range(62)
        ]
        assert [s[0] + s[63:] for s in wide_strings[62:]] == narrow.stabilizer_strings()
        assert all(set(s[1:63]) == {"I"} for s in wide_strings[62:])

    def test_deterministic_outcome_whose_product_carries_a_phase(self):
        # Found by search: qubit 1 ends in |1>, but the stabilizer rows that
        # multiply to -Z_1 (-YZZ, +XIY, -ZIX) pick up a factor i**2 on the
        # way, which only the phase exponents account for.
        stream = [
            ("cx", [1, 2]), ("z", [2]), ("y", [2]), ("swap", [2, 0]),
            ("cy", [0, 2]), ("sdg", [2]), ("swap", [2, 1]), ("z", [0]),
            ("z", [2]), ("h", [2]), ("z", [2]), ("h", [2]), ("cy", [0, 2]),
            ("h", [2]), ("cz", [1, 0]), ("h", [0]), ("cx", [0, 2]), ("x", [0]),
            ("y", [2]), ("cy", [0, 2]), ("z", [0]),
        ]
        sampled, symbolic = CliffordTableau(3), CliffordTableau(3, track_symbols=True)
        circuit = QuantumCircuit(3)
        for gate, qubits in stream:
            sampled.apply_gate(gate, qubits)
            symbolic.apply_gate(gate, qubits)
            circuit.repeat(gate, qubits, 1)
        state = StatevectorSimulator().final_statevector(circuit)
        assert qubit_one_probability(state, 1) == pytest.approx(1.0)
        assert sampled.stabilizer_strings() == ["-YZZ", "+XIY", "-ZIX"]
        assert sampled.measure(1, np.random.default_rng(0)).tolist() == [1]
        assert symbolic.measure_symbolic(1) == (1, 0)

    @pytest.mark.parametrize("seed", range(20))
    def test_measurement_and_reset_against_dense_projection(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        tableau = CliffordTableau(n)
        state = Statevector.zero_state(n)
        outcome_rng = np.random.default_rng(seed + 4000)
        for _ in range(40):
            draw = rng.random()
            if draw < 0.6:
                gate, qubits, repetitions = random_step(rng, n)
                tableau.apply_gate(gate, qubits, repetitions)
                state = apply_dense(state, gate, qubits, repetitions)
                continue
            q = int(rng.integers(n))
            p_one = qubit_one_probability(state, q)
            reset = draw >= 0.85
            outcome = int(
                (tableau.reset if reset else tableau.measure)(q, outcome_rng)[0]
            )
            if min(p_one, 1.0 - p_one) < 1e-9:
                assert outcome == round(p_one)  # a certainty must be reproduced
            else:
                assert p_one == pytest.approx(0.5)
            state = project(state, q, outcome)
            if reset and outcome:
                state = apply_dense(state, "x", [q])
            assert_stabilizes(tableau, state)


class TestSymbolicPassAgainstDensityMatrix:
    """The symbolic pass's exact distribution equals the dense one.

    Mid-circuit resets put symbol-dependent signs on rows that later gates
    and measurements combine, so these circuits exercise the symbol masks
    that random and deterministic measurements carry along.
    """

    @pytest.mark.parametrize("seed", range(40))
    def test_random_reset_circuit_distribution(self, seed):
        rng = np.random.default_rng(7000 + seed)
        n = int(rng.integers(1, 5))
        circuit = QuantumCircuit(n, name=f"reset_stream_{seed}")
        for _ in range(30):
            if rng.random() < 0.2:
                circuit.reset(int(rng.integers(n)))
            else:
                gate, qubits, repetitions = random_step(rng, n)
                circuit.repeat(gate, qubits, repetitions)
        circuit.measure_all()
        exact = StabilizerSimulator()._analytic(circuit, allow_fail=False)
        dense = DensityMatrixSimulator().final_density_matrix(circuit)
        assert np.allclose(exact.probabilities, dense.probabilities(list(range(n))), atol=1e-9)


class TestBatchSemantics:
    def test_deterministic_measurement_is_common_across_batch(self):
        tableau = CliffordTableau(2, batch_size=5)
        tableau.apply_gate("x", [0])
        outcomes = tableau.measure(0, np.random.default_rng(0))
        assert outcomes.tolist() == [1, 1, 1, 1, 1]

    def test_masked_pauli_flips_only_selected_elements(self):
        tableau = CliffordTableau(1, batch_size=4)
        mask = np.array([True, False, True, False])
        tableau.apply_pauli_masked("x", [0], mask)
        outcomes = tableau.measure(0, np.random.default_rng(0))
        assert outcomes.tolist() == [1, 0, 1, 0]

    def test_random_measurement_outcomes_vary_per_element(self):
        tableau = CliffordTableau(1, batch_size=512)
        tableau.apply_gate("h", [0])
        outcomes = tableau.measure(0, np.random.default_rng(7))
        assert 100 < int(outcomes.sum()) < 412  # both values occur

    def test_reset_returns_every_element_to_zero(self):
        tableau = CliffordTableau(2, batch_size=64)
        tableau.apply_gate("h", [0])
        tableau.apply_gate("cx", [0, 1])
        rng = np.random.default_rng(3)
        tableau.reset(0, rng)
        assert tableau.measure(0, rng).tolist() == [0] * 64


class TestErrorSurface:
    def test_invalid_construction(self):
        with pytest.raises(SimulationError):
            CliffordTableau(0)
        with pytest.raises(SimulationError):
            CliffordTableau(1, batch_size=0)
        with pytest.raises(SimulationError, match="batch of one"):
            CliffordTableau(1, batch_size=2, track_symbols=True)

    def test_non_clifford_gate_rejected(self):
        with pytest.raises(SimulationError, match="not Clifford"):
            CliffordTableau(1).apply_gate("t", [0])

    def test_unknown_pauli_character_rejected(self):
        with pytest.raises(SimulationError, match="Pauli"):
            CliffordTableau(1).apply_pauli("q", [0])

    @pytest.mark.parametrize(
        "label, qubits", [("x", [0, 1]), ("xx", [0])], ids=["short", "long"]
    )
    def test_pauli_label_length_must_match_qubits(self, label, qubits):
        tableau = CliffordTableau(2)
        with pytest.raises(SimulationError, match="characters"):
            tableau.apply_pauli(label, qubits)
        with pytest.raises(SimulationError, match="characters"):
            tableau.apply_pauli_masked(label, qubits, np.array([True]))
        assert tableau.stabilizer_strings() == ["+ZI", "+IZ"]

    def test_symbolic_measurement_needs_tracking(self):
        with pytest.raises(SimulationError, match="track_symbols"):
            CliffordTableau(1).measure_symbolic(0)


def bell_circuit() -> QuantumCircuit:
    circuit = QuantumCircuit(2, 2, name="bell")
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.measure([0, 1], [0, 1])
    return circuit


class TestSimulatorBatchSurface:
    def test_compatibility_name_is_the_stabilizer_simulator(self):
        from repro.quantum.tableau_batch import BatchedStabilizerSimulator

        assert BatchedStabilizerSimulator is StabilizerSimulator

    def test_run_is_a_batch_of_one(self):
        batch = StabilizerSimulator(seed=3).run_batch([bell_circuit()], shots=512)
        single = StabilizerSimulator(seed=3).run(bell_circuit(), shots=512)
        assert single.counts == batch.results[0].counts
        assert single.metadata == batch.results[0].metadata

    def test_measurement_free_circuit_yields_empty_counts_without_rng(self):
        circuit = QuantumCircuit(2, name="no_measure")
        circuit.h(0)
        simulator = StabilizerSimulator(seed=1)
        result = simulator.run_batch([circuit, bell_circuit()], shots=64).results
        assert result[0].counts == {} and result[0].shots == 0
        # The empty circuit consumed no randomness: the Bell counts match a
        # fresh simulator sampling the Bell circuit alone.
        alone = StabilizerSimulator(seed=1).run(bell_circuit(), shots=64)
        assert result[1].counts == alone.counts

    def test_noisy_measurement_free_circuit_yields_empty_counts(self):
        from repro.quantum.channels import depolarizing_channel
        from repro.quantum.noise_model import NoiseModel, ReadoutError

        model = NoiseModel("noisy")
        model.add_all_qubit_error(depolarizing_channel(0.1), "h")
        model.add_readout_error(ReadoutError.symmetric(0.1))
        circuit = QuantumCircuit(2, name="no_measure")
        circuit.h(0)
        result = StabilizerSimulator(noise_model=model, seed=1).run(circuit, shots=8)
        assert result.counts == {} and result.shots == 0

    def test_repeated_circuit_object_resolves_one_structure(self):
        circuit = bell_circuit()
        batch = StabilizerSimulator(seed=2).run_batch([circuit] * 16, shots=32)
        assert batch.metadata["structures"] == 1
        assert batch.metadata["cache_misses"] == 1
        assert len(batch.results) == 16

    def test_distribution_cache_is_shared_across_calls(self):
        simulator = StabilizerSimulator(seed=2)
        simulator.run_batch([bell_circuit()], shots=8)
        second = simulator.run_batch([bell_circuit()], shots=8)
        # Distinct circuit objects with equal structure share one entry.
        assert second.metadata["cache_hits"] == 1
        assert second.metadata["cache_misses"] == 0

    def test_forced_analytic_raises_out_of_envelope(self):
        circuit = QuantumCircuit(13, 13, name="wide")
        circuit.h(0)
        for q in range(12):
            circuit.cx(q, q + 1)
        circuit.measure(range(13), range(13))
        with pytest.raises(SimulationError, match="analytic envelope"):
            StabilizerSimulator().run_batch([circuit], shots=8, method="analytic")
