"""Tests for the static eligibility analysis and backend routing."""

import sys
import threading

import numpy as np
import pytest

from repro.channel.quantum_channel import (
    FiberLossChannel,
    IdentityChainChannel,
    NoiselessChannel,
)
from repro.exceptions import SimulationError
from repro.quantum.channels import (
    amplitude_damping_channel,
    bit_flip_channel,
    bit_phase_flip_channel,
    depolarizing_channel,
    identity_channel,
    pauli_channel,
    phase_damping_channel,
    phase_flip_channel,
    thermal_relaxation_channel,
)
from repro.quantum import dispatch
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.dispatch import (
    BACKEND_CHOICES,
    circuit_is_clifford,
    channel_is_pauli,
    noise_model_is_pauli,
    noise_model_mixtures,
    pauli_mixture,
    pauli_twirl_channel,
    pauli_twirl_noise_model,
    select_backend,
)
from repro.quantum.noise_model import NoiseModel, QuantumError, ReadoutError


class TestPauliMixture:
    def test_identity_channel(self):
        assert pauli_mixture(identity_channel()) == {"I": pytest.approx(1.0)}

    def test_depolarizing_channel(self):
        mixture = pauli_mixture(depolarizing_channel(0.1))
        assert mixture is not None
        assert mixture["I"] == pytest.approx(1 - 0.1 + 0.1 / 4)
        for label in ("X", "Y", "Z"):
            assert mixture[label] == pytest.approx(0.1 / 4)

    def test_two_qubit_depolarizing_channel(self):
        mixture = pauli_mixture(depolarizing_channel(0.2, num_qubits=2))
        assert mixture is not None
        assert len(mixture) == 16
        assert sum(mixture.values()) == pytest.approx(1.0)

    def test_flip_channels(self):
        assert pauli_mixture(bit_flip_channel(0.3))["X"] == pytest.approx(0.3)
        assert pauli_mixture(phase_flip_channel(0.2))["Z"] == pytest.approx(0.2)
        assert pauli_mixture(bit_phase_flip_channel(0.1))["Y"] == pytest.approx(0.1)

    def test_general_pauli_channel(self):
        mixture = pauli_mixture(pauli_channel(0.05, 0.02, 0.01))
        assert mixture == {
            "I": pytest.approx(0.92),
            "X": pytest.approx(0.05),
            "Y": pytest.approx(0.02),
            "Z": pytest.approx(0.01),
        }

    @pytest.mark.parametrize(
        "channel",
        [
            amplitude_damping_channel(0.1),
            phase_damping_channel(0.2),
            thermal_relaxation_channel(200e-6, 130e-6, 60e-9),
        ],
        ids=["amplitude_damping", "phase_damping", "thermal_relaxation"],
    )
    def test_non_pauli_channels_rejected(self, channel):
        assert pauli_mixture(channel) is None
        assert not channel_is_pauli(channel)

    def test_composed_pauli_channels_recognised(self):
        composed = bit_flip_channel(0.1).compose(phase_flip_channel(0.2))
        mixture = pauli_mixture(composed)
        assert mixture is not None
        assert sum(mixture.values()) == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "link, pauli",
        [
            (NoiselessChannel(), True),
            (IdentityChainChannel(eta=30, include_thermal_relaxation=False), True),
            (FiberLossChannel(length_km=5.0, dephasing_per_km=0.0), True),
            (IdentityChainChannel(eta=10), False),  # thermal relaxation
        ],
        ids=["noiseless", "depolarizing-chain", "fiber", "thermal-chain"],
    )
    def test_link_single_use_maps(self, link, pauli):
        assert channel_is_pauli(link.single_use_channel()) is pauli


class TestCircuitAnalysis:
    def test_clifford_circuit_accepted(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.s(1)
        circuit.sdg(0)
        circuit.cx(0, 1)
        circuit.cz(0, 1)
        circuit.swap(0, 1)
        circuit.measure_all()
        assert circuit_is_clifford(circuit)

    @pytest.mark.parametrize(
        "builder",
        [
            lambda c: c.t(0),
            lambda c: c.rx(0.3, 0),
            lambda c: c.u3(0.1, 0.2, 0.3, 0),
            lambda c: c.ch(0, 1),
            lambda c: c.unitary(np.eye(2), [0]),
        ],
        ids=["t", "rx", "u3", "ch", "unitary"],
    )
    def test_non_clifford_gates_rejected(self, builder):
        circuit = QuantumCircuit(2)
        builder(circuit)
        assert not circuit_is_clifford(circuit)

    def test_noise_model_analysis_scoped_to_circuit(self):
        model = NoiseModel("mixed")
        model.add_all_qubit_error(depolarizing_channel(0.01), "id")
        model.add_all_qubit_error(amplitude_damping_channel(0.1), "t")
        clifford_only = QuantumCircuit(1)
        clifford_only.id(0)
        clifford_only.measure_all()
        assert noise_model_is_pauli(model, clifford_only)
        assert not noise_model_is_pauli(model)  # whole model carries damping

    def test_readout_errors_never_disqualify(self):
        model = NoiseModel("readout_only")
        model.add_readout_error(ReadoutError.symmetric(0.05))
        assert noise_model_is_pauli(model)


class TestNoiseModelMixtures:
    @pytest.fixture
    def scans(self, monkeypatch) -> list:
        calls: list = []
        scan = dispatch.pauli_mixture

        def counting(channel, *args, **kwargs):
            calls.append(channel)
            return scan(channel, *args, **kwargs)

        monkeypatch.setattr(dispatch, "pauli_mixture", counting)
        return calls

    @staticmethod
    def _bell() -> QuantumCircuit:
        circuit = QuantumCircuit(2, name="bell")
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.measure_all()
        return circuit

    def test_mixtures_of_the_attached_errors(self):
        error = QuantumError(bit_flip_channel(0.2))
        model = NoiseModel("flip").add_all_qubit_error(error, ["h", "cx"])
        labels, probabilities = noise_model_mixtures(model, self._bell())[id(error)]
        assert dict(zip(labels, probabilities)) == pytest.approx({"I": 0.8, "X": 0.2})
        assert noise_model_mixtures(None, self._bell()) == {}

    def test_model_state_is_analysed_once(self, scans):
        model = NoiseModel("pauli").add_all_qubit_error(depolarizing_channel(0.01), "h")
        for _ in range(3):
            noise_model_mixtures(model, self._bell())
        assert len(scans) == 1
        model.add_all_qubit_error(bit_flip_channel(0.1), "cx")  # bumps the version
        noise_model_mixtures(model, self._bell())
        assert len(scans) == 3
        assert noise_model_is_pauli(model)
        assert len(scans) == 3

    def test_concurrent_analysis_under_memo_eviction(self):
        # More models than the memo holds, analysed from more threads than
        # cores with frequent switches: every answer must stay correct.
        models = [
            NoiseModel(f"m{i}").add_all_qubit_error(bit_flip_channel(i / 200), "h")
            for i in range(1, 81)
        ]
        circuit = self._bell()
        failures: list = []

        def worker(offset: int) -> None:
            for step in range(400):
                index = (offset + step) % len(models)
                (labels, probabilities), = noise_model_mixtures(
                    models[index], circuit
                ).values()
                mixture = dict(zip(labels, probabilities))
                if abs(mixture.get("X", 0.0) - (index + 1) / 200) > 1e-12:
                    failures.append((index, mixture))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(17 * n,)) for n in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []

    def test_duck_typed_models_are_analysed_every_call(self, scans):
        error = QuantumError(depolarizing_channel(0.05))

        class DuckNoise:
            def errors_for(self, gate_name, qubits):
                return [error]

        duck = DuckNoise()
        for calls in (1, 2, 3):
            mixtures = noise_model_mixtures(duck, self._bell())
            assert list(mixtures) == [id(error)]
            assert len(scans) == calls


class TestSelectBackend:
    def _bell(self):
        circuit = QuantumCircuit(2, name="bell")
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.measure_all()
        return circuit

    def test_dense_always_honoured(self):
        decision = select_backend("dense", self._bell(), None)
        assert decision.backend == "dense"
        assert not decision.use_stabilizer

    def test_auto_picks_stabilizer_for_clifford_pauli(self):
        model = NoiseModel("pauli")
        model.add_all_qubit_error(depolarizing_channel(0.01), "cx")
        decision = select_backend("auto", [self._bell()], model)
        assert decision.use_stabilizer

    def test_auto_falls_back_on_non_clifford(self):
        circuit = QuantumCircuit(1, name="rot")
        circuit.rx(0.2, 0)
        circuit.measure_all()
        decision = select_backend("auto", circuit, None)
        assert decision.backend == "dense"
        assert "non-Clifford" in decision.reason

    def test_auto_falls_back_on_non_pauli_noise(self):
        model = NoiseModel("damping")
        model.add_all_qubit_error(thermal_relaxation_channel(2e-4, 1e-4, 6e-8), "cx")
        decision = select_backend("auto", self._bell(), model)
        assert decision.backend == "dense"
        assert "non-Pauli" in decision.reason

    def test_forced_stabilizer_raises_on_ineligible(self):
        circuit = QuantumCircuit(1)
        circuit.t(0)
        circuit.measure_all()
        with pytest.raises(SimulationError, match="forced"):
            select_backend("stabilizer", circuit, None)

    def test_unknown_backend_rejected(self):
        with pytest.raises(SimulationError, match="unknown simulator backend"):
            select_backend("gpu", self._bell(), None)

    def test_backend_choices_contract(self):
        assert BACKEND_CHOICES == ("auto", "dense", "stabilizer", "stabilizer_batched")


class TestPauliTwirl:
    def test_twirl_is_identity_on_pauli_channels(self):
        original = pauli_mixture(depolarizing_channel(0.07))
        twirled = pauli_mixture(pauli_twirl_channel(depolarizing_channel(0.07)))
        assert twirled is not None
        for label, probability in original.items():
            assert twirled[label] == pytest.approx(probability)

    def test_twirl_makes_damping_pauli(self):
        twirled = pauli_twirl_channel(amplitude_damping_channel(0.2))
        mixture = pauli_mixture(twirled)
        assert mixture is not None
        assert sum(mixture.values()) == pytest.approx(1.0)

    def test_twirled_noise_model_is_stabilizer_eligible(self):
        from repro.device.device_model import DeviceModel

        model = DeviceModel.ibm_brisbane().noise_model()
        assert not noise_model_is_pauli(model)
        twirled = pauli_twirl_noise_model(model)
        assert noise_model_is_pauli(twirled)
        assert twirled.has_readout_error() == model.has_readout_error()
