"""Parity and determinism tests for the batched simulation path.

The compiled path must produce the same final distributions as an
independent one-instruction-at-a-time evolution under identical seeds —
bit-for-bit when the probability vectors agree to float precision,
statistically always.  For the statevector simulator the reference is its
sequential ``run``; the density-matrix simulator's ``run`` *is* the compiled
path, so its reference is the private per-gate evolution.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.device.device_model import DeviceModel
from repro.exceptions import SimulationError
from repro.experiments.emulation import build_message_transfer_circuit
from repro.quantum.batch import (
    BatchResult,
    PropagatorCache,
    circuit_structure_key,
    compile_channel,
    compile_unitary,
    superoperator_of_kraus,
    superoperator_of_unitary,
)
from repro.quantum.channels import depolarizing_channel
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.density import DensityMatrix
from repro.quantum.noise_model import NoiseModel, ReadoutError
from repro.quantum.simulator import DensityMatrixSimulator, StatevectorSimulator


def _bell_circuit() -> QuantumCircuit:
    circuit = QuantumCircuit(2)
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.measure_all()
    return circuit


def _per_gate_counts(
    simulator: DensityMatrixSimulator, circuit: QuantumCircuit, shots: int, seed: int
) -> dict[str, int]:
    """Counts of the per-gate reference evolution, sampled as ``run`` samples."""
    state, measure_map = simulator._evolve_per_gate(
        circuit, DensityMatrix.zero_state(circuit.num_qubits)
    )
    return simulator._sample_measurements(
        state, measure_map, circuit.num_clbits, shots, np.random.default_rng(seed)
    ).counts


def _total_variation(counts_a: dict[str, int], counts_b: dict[str, int]) -> float:
    total_a = sum(counts_a.values()) or 1
    total_b = sum(counts_b.values()) or 1
    keys = set(counts_a) | set(counts_b)
    return 0.5 * sum(
        abs(counts_a.get(k, 0) / total_a - counts_b.get(k, 0) / total_b) for k in keys
    )


class TestStructureKeys:
    def test_identical_circuits_share_a_key(self):
        assert circuit_structure_key(_bell_circuit()) == circuit_structure_key(
            _bell_circuit()
        )

    def test_different_gates_differ(self):
        other = QuantumCircuit(2)
        other.h(0)
        other.cz(0, 1)
        other.measure_all()
        assert circuit_structure_key(_bell_circuit()) != circuit_structure_key(other)

    def test_rotation_parameters_differ(self):
        a = QuantumCircuit(1).rx(0.1, 0)
        b = QuantumCircuit(1).rx(0.2, 0)
        assert circuit_structure_key(a) != circuit_structure_key(b)

    def test_barriers_are_ignored(self):
        with_barrier = QuantumCircuit(2)
        with_barrier.h(0)
        with_barrier.barrier()
        with_barrier.cx(0, 1)
        with_barrier.measure_all()
        assert circuit_structure_key(with_barrier) == circuit_structure_key(
            _bell_circuit()
        )


class TestSuperoperatorAlgebra:
    def test_unitary_superoperator_matches_conjugation(self):
        rng = np.random.default_rng(3)
        unitary = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        rho = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]], dtype=complex)
        direct = unitary @ rho @ unitary.conj().T
        via_superop = (superoperator_of_unitary(unitary) @ rho.reshape(-1)).reshape(2, 2)
        assert np.allclose(direct, via_superop)

    def test_kraus_superoperator_matches_sum(self):
        kraus = depolarizing_channel(0.2).kraus_operators
        rho = np.array([[0.6, 0.1], [0.1, 0.4]], dtype=complex)
        direct = sum(k @ rho @ k.conj().T for k in kraus)
        via_superop = (superoperator_of_kraus(kraus) @ rho.reshape(-1)).reshape(2, 2)
        assert np.allclose(direct, via_superop)


class TestCompiledPropagators:
    def test_compiled_unitary_matches_to_operator(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.rz(0.3, 1)
        compiled = compile_unitary(circuit)
        assert np.allclose(compiled.matrix, circuit.to_operator().matrix)

    def test_run_length_compression_matches_explicit_chain(self):
        chain = QuantumCircuit(1)
        for _ in range(137):
            chain.rx(0.01, 0)
        compiled = compile_unitary(chain)
        explicit = chain.to_operator().matrix
        assert np.allclose(compiled.matrix, explicit)

    def test_compiled_channel_matches_sequential_density_evolution(self):
        device = DeviceModel.ibm_brisbane()
        noise = device.noise_model()
        circuit = build_message_transfer_circuit("10", eta=60)
        simulator = DensityMatrixSimulator(noise_model=noise)
        sequential, _ = simulator._evolve_per_gate(circuit, DensityMatrix.zero_state(2))
        compiled = compile_channel(circuit, noise)
        batched = DensityMatrix(compiled.propagate(
            DensityMatrix.zero_state(2).matrix
        ), validate=False)
        assert np.allclose(sequential.matrix, batched.matrix, atol=1e-10)
        assert np.allclose(
            simulator.final_density_matrix(circuit).matrix, batched.matrix, atol=1e-10
        )

    def test_cache_hits_on_structurally_identical_circuits(self):
        cache = PropagatorCache()
        compile_unitary(_bell_circuit(), cache)
        assert cache.misses == 1
        compile_unitary(_bell_circuit(), cache)
        assert cache.hits == 1
        assert len(cache) == 1

    def test_shared_cache_separates_unitary_and_channel_entries(self):
        # compile_unitary and compile_channel of the same circuit must not
        # collide in a shared cache (the compiled matrices have different
        # dimensions and semantics).
        cache = PropagatorCache()
        circuit = _bell_circuit()
        unitary = compile_unitary(circuit, cache)
        channel = compile_channel(circuit, None, cache)
        assert unitary.matrix.shape == (4, 4)
        assert channel.superoperator.shape == (16, 16)

    def test_in_place_noise_mutation_invalidates_compiled_channels(self):
        cache = PropagatorCache()
        noise = NoiseModel("mutable")
        circuit = QuantumCircuit(1)
        circuit.x(0)
        circuit.measure([0], [0])
        before = compile_channel(circuit, noise, cache)
        noise.add_all_qubit_error(depolarizing_channel(0.5), "x")
        after = compile_channel(circuit, noise, cache)
        assert not np.allclose(before.superoperator, after.superoperator)

    def test_noise_models_never_share_cache_tokens(self):
        # id() can be reused after garbage collection; cache tokens cannot,
        # so a long-lived shared cache never serves one model's compiled
        # superoperator for another.
        tokens = {NoiseModel().cache_token for _ in range(64)}
        assert len(tokens) == 64

    def test_copied_noise_models_get_fresh_tokens(self):
        import copy
        import pickle

        model = NoiseModel("original")
        assert copy.deepcopy(model).cache_token != model.cache_token
        assert pickle.loads(pickle.dumps(model)).cache_token != model.cache_token

    def test_mutating_a_shallow_copy_leaves_the_original_untouched(self):
        import copy

        original = NoiseModel("original")
        clone = copy.copy(original)
        clone.add_all_qubit_error(depolarizing_channel(0.5), "x")
        assert original.errors_for("x", [0]) == []
        assert original.version == 0
        assert clone.errors_for("x", [0]) != []

    def test_cache_byte_budget_evicts(self):
        # A tiny byte budget forces eviction even when entry counts are low.
        cache = PropagatorCache(max_entries=256, max_bytes=1024)
        for theta in (0.01, 0.02, 0.03, 0.04):
            chain = QuantumCircuit(3)
            for _ in range(5):
                chain.rx(theta, 0)
            compile_unitary(chain, cache)
        assert cache._bytes <= 1024

    def test_compile_rejects_mid_circuit_measurement(self):
        circuit = QuantumCircuit(1)
        circuit.h(0)
        circuit.measure([0], [0])
        circuit.x(0)
        with pytest.raises(SimulationError):
            compile_unitary(circuit)
        with pytest.raises(SimulationError):
            compile_channel(circuit, None)

    def test_cache_eviction_is_bounded(self):
        cache = PropagatorCache(max_entries=2)
        for theta in (0.1, 0.2, 0.3):
            compile_unitary(QuantumCircuit(1).rx(theta, 0), cache)
        assert len(cache) == 2


class TestStatevectorBatchParity:
    def test_counts_match_sequential_path_under_fixed_seed(self):
        circuit = build_message_transfer_circuit("01", eta=25)
        simulator = StatevectorSimulator()
        sequential = simulator.run(circuit, shots=2048, rng=np.random.default_rng(11))
        batched = simulator.run_batch(
            [circuit], shots=2048, rng=np.random.default_rng(11)
        )[0]
        assert batched.counts == sequential.counts

    def test_batch_preserves_submission_order(self):
        circuits = [
            build_message_transfer_circuit(message, eta=5)
            for message in ("00", "01", "10", "11")
        ]
        batch = StatevectorSimulator(seed=5).run_batch(circuits, shots=64)
        assert isinstance(batch, BatchResult)
        assert len(batch) == 4
        for circuit, result in zip(circuits, batch):
            # Ideal dense coding decodes deterministically: one outcome per circuit.
            assert sum(result.counts.values()) == 64
            assert len(result.counts) == 1

    def test_mid_circuit_measurement_falls_back_to_run(self):
        circuit = QuantumCircuit(1)
        circuit.h(0)
        circuit.measure([0], [0])
        circuit.x(0)
        simulator = StatevectorSimulator()
        sequential = simulator.run(circuit, shots=256, rng=np.random.default_rng(4))
        batched = simulator.run_batch(
            [circuit], shots=256, rng=np.random.default_rng(4)
        )[0]
        assert batched.counts == sequential.counts

    def test_negative_shots_rejected(self):
        with pytest.raises(SimulationError):
            StatevectorSimulator().run_batch([_bell_circuit()], shots=-1)


class TestDensityBatchParity:
    @pytest.fixture(scope="class")
    def noise(self):
        return DeviceModel.ibm_brisbane().noise_model()

    def test_counts_match_sequential_path_under_fixed_seed(self, noise):
        # The compiled path and the per-gate reference compute the same
        # probability vector to ~1e-14, so the same generator state draws
        # the same multinomial sample, readout errors included.
        circuit = build_message_transfer_circuit("11", eta=120)
        simulator = DensityMatrixSimulator(noise_model=noise)
        sequential = _per_gate_counts(simulator, circuit, 4096, seed=23)
        batched = simulator.run_batch(
            [circuit], shots=4096, rng=np.random.default_rng(23)
        )[0]
        single = simulator.run(circuit, shots=4096, rng=np.random.default_rng(23))
        assert batched.counts == sequential
        assert single.counts == sequential

    def test_statistical_consistency_across_seeds(self, noise):
        # Different seeds: the two evolutions must still sample the same
        # distribution (TV distance small at large shot counts).
        circuit = build_message_transfer_circuit("00", eta=200)
        simulator = DensityMatrixSimulator(noise_model=noise)
        sequential = _per_gate_counts(simulator, circuit, 8192, seed=1)
        batched = simulator.run_batch(
            [circuit], shots=8192, rng=np.random.default_rng(2)
        )[0]
        assert _total_variation(sequential, batched.counts) < 0.03

    def test_reset_instruction_parity(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.reset(0)
        circuit.measure_all()
        simulator = DensityMatrixSimulator()
        sequential = _per_gate_counts(simulator, circuit, 512, seed=9)
        batched = simulator.run(circuit, shots=512, rng=np.random.default_rng(9))
        assert batched.counts == sequential

    def test_wide_registers_fall_back_to_the_per_gate_evolution(self, noise, monkeypatch):
        # Five qubits exceed MAX_SUPEROP_QUBITS: run evolves gate by gate and
        # compiles nothing.
        circuit = QuantumCircuit(5)
        circuit.h(0)
        for qubit in range(4):
            circuit.cx(qubit, qubit + 1)
        circuit.measure_all()
        simulator = DensityMatrixSimulator(noise_model=noise)
        sequential = _per_gate_counts(simulator, circuit, 1024, seed=31)
        walks = []
        reference = simulator._evolve_per_gate
        monkeypatch.setattr(
            simulator,
            "_evolve_per_gate",
            lambda *args: walks.append(args) or reference(*args),
        )
        result = simulator.run(circuit, shots=1024, rng=np.random.default_rng(31))
        assert len(walks) == 1
        assert len(simulator._cache) == 0
        assert simulator._cache.misses == 0
        assert result.counts == sequential
        assert result.counts.get("00000", 0) + result.counts.get("11111", 0) > 900

    def test_structurally_equal_circuits_share_a_compiled_channel(self, noise):
        # Two distinct circuit objects with one structure: the second run is
        # a propagator-cache hit, not a recompile.
        simulator = DensityMatrixSimulator(noise_model=noise, seed=3)
        first = build_message_transfer_circuit("10", eta=40)
        second = build_message_transfer_circuit("10", eta=40)
        assert first is not second
        simulator.run(first, shots=32)
        assert (simulator._cache.hits, simulator._cache.misses) == (0, 1)
        simulator.run(second, shots=32)
        assert (simulator._cache.hits, simulator._cache.misses) == (1, 1)

    def test_readout_errors_are_applied(self):
        noise = NoiseModel("readout_only").add_readout_error(ReadoutError.symmetric(0.25))
        circuit = QuantumCircuit(1)
        circuit.measure([0], [0])
        batched = DensityMatrixSimulator(noise_model=noise).run_batch(
            [circuit], shots=8192, rng=np.random.default_rng(0)
        )[0]
        # |0> measured through a 25% symmetric flip: ~25% ones.
        assert 0.2 < batched.counts.get("1", 0) / 8192 < 0.3

    def test_run_batch_rejects_mid_circuit_measurement(self):
        circuit = QuantumCircuit(1)
        circuit.measure([0], [0])
        circuit.x(0)
        with pytest.raises(SimulationError):
            DensityMatrixSimulator().run_batch([circuit], shots=16)

    def test_repeated_batches_reuse_the_cache(self, noise):
        circuit = build_message_transfer_circuit("10", eta=40)
        simulator = DensityMatrixSimulator(noise_model=noise)
        first = simulator.run_batch([circuit], shots=32)
        second = simulator.run_batch([circuit], shots=32)
        # Metadata reports per-batch deltas, not lifetime totals.
        assert first.metadata["cache_misses"] == 1
        assert first.metadata["cache_hits"] == 0
        assert second.metadata["cache_hits"] == 1
        assert second.metadata["cache_misses"] == 0

    def test_duck_typed_noise_models_bypass_the_cache(self):
        # A foreign object that merely quacks like a NoiseModel offers no
        # mutation-proof identity, so its compiled channels are never cached.
        class DuckNoise:
            def errors_for(self, gate_name, qubits):
                return []

            def has_readout_error(self):
                return False

        cache = PropagatorCache()
        circuit = _bell_circuit()
        compile_channel(circuit, DuckNoise(), cache)
        assert len(cache) == 0

    def test_mixed_register_widths_share_one_simulator(self, noise):
        # Step/power cache entries are keyed by register size: a 1-qubit and
        # a 2-qubit circuit sharing a gate signature must not collide.
        narrow = QuantumCircuit(1)
        narrow.h(0)
        narrow.measure([0], [0])
        wide = QuantumCircuit(2)
        wide.h(0)
        wide.cx(0, 1)
        wide.measure_all()
        simulator = DensityMatrixSimulator(noise_model=noise)
        batch = simulator.run_batch([narrow, wide, narrow], shots=256)
        assert sum(batch[0].counts.values()) == 256
        assert sum(batch[1].counts.values()) == 256

    def test_statevector_mixed_register_widths(self):
        narrow = QuantumCircuit(1)
        narrow.h(0)
        narrow.measure([0], [0])
        wide = QuantumCircuit(2)
        wide.h(0)
        wide.measure_all()
        batch = StatevectorSimulator(seed=8).run_batch([narrow, wide], shots=128)
        assert sum(batch[0].counts.values()) == 128
        assert sum(batch[1].counts.values()) == 128

    def test_swapping_noise_model_invalidates_compiled_circuits(self, noise):
        circuit = build_message_transfer_circuit("00", eta=30)
        simulator = DensityMatrixSimulator(noise_model=noise)
        noisy = simulator.run_batch([circuit], shots=4096, rng=np.random.default_rng(6))[0]
        simulator.noise_model = None
        ideal = simulator.run_batch([circuit], shots=4096, rng=np.random.default_rng(6))[0]
        # The ideal path decodes perfectly; the noisy path cannot.
        assert ideal.counts == {"00": 4096}
        assert noisy.counts != ideal.counts

    def test_determinism_under_fixed_seed(self, noise):
        circuit = build_message_transfer_circuit("01", eta=80)
        first = DensityMatrixSimulator(noise_model=noise, seed=77).run_batch(
            [circuit], shots=1024
        )
        second = DensityMatrixSimulator(noise_model=noise, seed=77).run_batch(
            [circuit], shots=1024
        )
        assert first.counts == second.counts


class TestBackendBatch:
    def test_backend_run_batch_matches_single_runs_statistically(self):
        from repro.device.backend import NoisyBackend

        circuits = [
            build_message_transfer_circuit(message, eta=50)
            for message in ("00", "01", "10", "11")
        ]
        batched = NoisyBackend(seed=3).run_batch(circuits, shots=4096)
        sequential = [
            NoisyBackend(seed=3).run(circuit, shots=4096) for circuit in circuits
        ]
        for got, want in zip(batched, sequential):
            assert _total_variation(dict(got), dict(want)) < 0.05

    def test_backend_records_one_job_per_circuit(self):
        from repro.device.backend import NoisyBackend

        backend = NoisyBackend(seed=1)
        circuits = [build_message_transfer_circuit("00", eta=3)] * 3
        backend.run_batch(circuits, shots=16)
        assert len(backend.jobs) == 3
