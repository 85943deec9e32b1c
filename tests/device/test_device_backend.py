"""Unit tests for DeviceModel and NoisyBackend."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.device.backend import NoisyBackend
from repro.device.calibration import ibm_brisbane_calibration
from repro.device.device_model import DeviceModel
from repro.device.topology import linear_coupling_map
from repro.exceptions import DeviceError, SimulationError
from repro.experiments.emulation import build_message_transfer_circuit
from repro.quantum import dispatch
from repro.quantum.channels import thermal_relaxation_channel
from repro.quantum.circuit import QuantumCircuit


def bell_circuit() -> QuantumCircuit:
    qc = QuantumCircuit(2, name="bell")
    qc.h(0).cx(0, 1).measure_all()
    return qc


class TestDeviceModel:
    def test_ibm_brisbane_preset(self):
        device = DeviceModel.ibm_brisbane()
        assert device.num_qubits == 127
        assert not device.is_ideal()
        assert device.metadata["processor"] == "Eagle r3"

    def test_ideal_preset(self):
        device = DeviceModel.ideal(3)
        assert device.is_ideal()
        assert device.noise_model().is_ideal()
        assert device.gate_error("id") == 0.0
        assert device.gate_duration("id") == 0.0

    def test_linear_chain_preset(self):
        device = DeviceModel.linear_chain(10)
        assert device.num_qubits == 10
        assert device.supports_coupling(3, 4)
        assert not device.supports_coupling(0, 5)

    def test_coupling_map_size_mismatch_rejected(self):
        with pytest.raises(DeviceError):
            DeviceModel(name="bad", num_qubits=3, coupling_map=linear_coupling_map(5))

    def test_needs_at_least_one_qubit(self):
        with pytest.raises(DeviceError):
            DeviceModel(name="bad", num_qubits=0)

    def test_validate_qubits(self):
        device = DeviceModel.ideal(2)
        device.validate_qubits([0, 1])
        with pytest.raises(DeviceError):
            device.validate_qubits([2])

    def test_qubit_calibration_lookup(self):
        device = DeviceModel.ibm_brisbane()
        assert device.qubit_calibration(0).t1 == pytest.approx(233.04e-6)

    def test_qubit_calibration_on_ideal_device_raises(self):
        with pytest.raises(DeviceError):
            DeviceModel.ideal(1).qubit_calibration(0)

    def test_noise_model_includes_identity_and_readout(self):
        model = DeviceModel.ibm_brisbane().noise_model()
        assert "id" in model.noisy_gate_names
        assert model.has_readout_error()

    def test_thermal_relaxation_toggle(self):
        with_relax = DeviceModel.ibm_brisbane(include_thermal_relaxation=True)
        without_relax = DeviceModel.ibm_brisbane(include_thermal_relaxation=False)
        errors_with = len(with_relax.noise_model().errors_for("id", [0]))
        errors_without = len(without_relax.noise_model().errors_for("id", [0]))
        assert errors_with == errors_without + 1

    def test_gate_error_lookup(self):
        device = DeviceModel.ibm_brisbane()
        assert device.gate_error("id") == pytest.approx(2.41e-4)
        assert device.gate_duration("id") == pytest.approx(60e-9)


class TestNoisyBackend:
    def test_ideal_backend_gives_perfect_bell_correlations(self):
        backend = NoisyBackend(DeviceModel.ideal(2), seed=1)
        counts = backend.run(bell_circuit(), shots=2000)
        assert set(counts) <= {"00", "11"}
        assert not backend.is_noisy()

    def test_brisbane_backend_is_noisy_but_dominated_by_correct_outcomes(self):
        backend = NoisyBackend(DeviceModel.ibm_brisbane(), seed=2)
        counts = backend.run(bell_circuit(), shots=2000)
        assert backend.is_noisy()
        correct = counts.get("00", 0) + counts.get("11", 0)
        assert correct / counts.shots > 0.9

    def test_default_device_is_brisbane(self):
        assert NoisyBackend(seed=0).name == "ibm_brisbane"

    def test_rejects_oversized_circuit(self):
        backend = NoisyBackend(DeviceModel.ideal(1), seed=0)
        with pytest.raises(DeviceError):
            backend.run(bell_circuit())

    def test_jobs_are_recorded(self):
        backend = NoisyBackend(DeviceModel.ideal(2), seed=3)
        backend.run(bell_circuit(), shots=10)
        backend.run(bell_circuit(), shots=20)
        assert len(backend.jobs) == 2
        assert backend.jobs[0].shots == 10
        assert backend.jobs[1].circuit_name == "bell"

    def test_circuit_duration_counts_identity_gates(self):
        backend = NoisyBackend(DeviceModel.ibm_brisbane(), seed=4)
        qc = QuantumCircuit(1)
        for _ in range(10):
            qc.id(0)
        assert backend.circuit_duration(qc) == pytest.approx(10 * 60e-9)

    def test_circuit_duration_zero_on_ideal_device(self):
        backend = NoisyBackend(DeviceModel.ideal(1), seed=5)
        qc = QuantumCircuit(1)
        qc.id(0)
        assert backend.circuit_duration(qc) == 0.0

    def test_final_density_matrix(self):
        backend = NoisyBackend(DeviceModel.ideal(2), seed=6)
        qc = QuantumCircuit(2)
        qc.h(0).cx(0, 1)
        dm = backend.final_density_matrix(qc)
        assert dm.purity() == pytest.approx(1.0)

    def test_run_result_exposes_density_matrix(self):
        backend = NoisyBackend(DeviceModel.ideal(2), seed=7)
        result = backend.run_result(bell_circuit(), shots=16)
        assert result.density_matrix is not None
        assert sum(result.counts.values()) == 16

    def test_seeded_reproducibility(self):
        counts_a = NoisyBackend(DeviceModel.ibm_brisbane(), seed=11).run(bell_circuit(), shots=256)
        counts_b = NoisyBackend(DeviceModel.ibm_brisbane(), seed=11).run(bell_circuit(), shots=256)
        assert dict(counts_a) == dict(counts_b)

    def test_linear_chain_calibration_override(self):
        device = DeviceModel.linear_chain(5, calibration=ibm_brisbane_calibration())
        backend = NoisyBackend(device, seed=8)
        assert backend.is_noisy()


def pauli_only_device() -> DeviceModel:
    return DeviceModel.ibm_brisbane(include_thermal_relaxation=False)


def message_circuits(eta: int, repeats: int = 1) -> list[QuantumCircuit]:
    return [
        build_message_transfer_circuit(message, eta)
        for message in ("00", "01", "10", "11") * repeats
    ]


class TestSharedExecutionBody:
    @pytest.mark.parametrize(
        "device, engine",
        [(DeviceModel.ibm_brisbane, "dense"), (pauli_only_device, "stabilizer_batched")],
        ids=["thermal", "pauli_only"],
    )
    def test_run_batch_accepts_a_generator(self, device, engine):
        circuits = message_circuits(eta=10)
        backend = NoisyBackend(device(), seed=5)
        histograms = backend.run_batch((circuit for circuit in circuits), shots=64)
        reference = NoisyBackend(device(), seed=5).run_batch(circuits, shots=64)
        assert [dict(counts) for counts in histograms] == [
            dict(counts) for counts in reference
        ]
        assert [job.circuit_name for job in backend.jobs] == [c.name for c in circuits]
        assert {job.metadata["backend"] for job in backend.jobs} == {engine}


@pytest.fixture
def mixture_scans(monkeypatch) -> Counter:
    """Count Pauli-mixture scans per Kraus channel object."""
    scans: Counter = Counter()
    scan = dispatch.pauli_mixture

    def counting(channel, *args, **kwargs):
        scans[id(channel)] += 1
        return scan(channel, *args, **kwargs)

    monkeypatch.setattr(dispatch, "pauli_mixture", counting)
    return scans


class TestNoiseAnalysisMemo:
    def test_each_attached_error_is_scanned_once(self, mixture_scans):
        backend = NoisyBackend(pauli_only_device(), seed=8)
        wave = message_circuits(eta=20, repeats=16)
        backend.run_batch(wave, shots=64)
        for circuit in message_circuits(eta=20):
            backend.run(circuit, shots=64)
        assert Counter(job.metadata["backend"] for job in backend.jobs) == {
            "stabilizer_batched": 64,
            "stabilizer": 4,
        }
        attached = {
            id(error): error
            for circuit in wave
            for instruction in circuit.instructions
            if instruction.kind == "gate"
            for error in backend.noise_model.errors_for(
                instruction.name, instruction.qubits
            )
        }
        assert attached
        assert mixture_scans == Counter(id(error.channel) for error in attached.values())

    def test_in_place_mutation_invalidates_the_analysis(self):
        device = pauli_only_device()
        auto = NoisyBackend(device, seed=9)
        forced = NoisyBackend(device, seed=9, simulator_backend="stabilizer")
        assert auto.noise_model is forced.noise_model
        circuit = build_message_transfer_circuit("11", eta=10)
        auto.run(circuit, shots=32)
        forced.run(circuit, shots=32)
        assert auto.jobs[-1].metadata["backend"] == "stabilizer"
        auto.noise_model.add_all_qubit_error(
            thermal_relaxation_channel(100e-6, 80e-6, 60e-9), "id"
        )
        auto.run(circuit, shots=32)
        assert auto.jobs[-1].metadata["backend"] == "dense"
        with pytest.raises(SimulationError, match="forced"):
            forced.run(circuit, shots=32)
