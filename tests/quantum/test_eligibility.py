"""Stabilizer eligibility is decided in one place: :mod:`repro.quantum.dispatch`.

``select_backend`` walks a circuit through ``stabilizer_mixtures`` (Clifford
gates, then the Pauli mixtures of the errors that can fire on them) once per
(circuit structure, noise-model version) and keeps the verdict, so fresh
objects of a known structure are looked up, not walked; a noise model
without a cache token is walked on every submission.  ``StabilizerSimulator``
asks the same walk only where its distribution memo computes and on the
paths that skip the memo (the trajectory fallback, ``method="trajectory"``,
noise models without a cache token): a memo hit means an earlier compute
under the same circuit structure and noise-model version already passed it.
``NoisyBackend`` computes each submitted circuit's structure key once and
hands it to both.

These tests count the walks and the key computations, show that no stale
answer survives a noise model change, pin the order of the engine's errors,
and hold the counts and job metadata of a mixed ``NoisyBackend`` call list to
literal digests.
"""

import hashlib
import inspect
import json
from collections import Counter

import numpy as np
import pytest

from repro.device import backend as device_backend
from repro.device.backend import NoisyBackend
from repro.device.device_model import DeviceModel
from repro.exceptions import SimulationError
from repro.quantum import batch, dispatch, stabilizer
from repro.quantum.channels import amplitude_damping_channel, depolarizing_channel
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.noise_model import NoiseModel, QuantumError
from repro.quantum.stabilizer import StabilizerSimulator
from repro.telemetry import runtime as telemetry

#: (Pauli frame, identity-chain length) of the four message structures.
STRUCTURES = (("I", 10), ("X", 10), ("Z", 50), ("Y", 50))


def message_circuit(label: str, eta: int) -> QuantumCircuit:
    """The paper's dense-coding message circuit over an η-identity channel."""
    circuit = QuantumCircuit(2, name=f"message_{label}_eta{eta}")
    circuit.h(0)
    circuit.cx(0, 1)
    if label == "I":
        circuit.id(0)
    else:
        circuit.pauli(label, [0])
    circuit.repeat("id", 0, eta)
    circuit.cx(0, 1)
    circuit.h(0)
    circuit.measure_all()
    return circuit


def rotated_circuit() -> QuantumCircuit:
    """A non-Clifford circuit (one ``rx``)."""
    circuit = QuantumCircuit(2, name="rotated")
    circuit.h(0)
    circuit.rx(0.3, 1)
    circuit.cx(0, 1)
    circuit.measure_all()
    return circuit


def mid_measure_circuit() -> QuantumCircuit:
    """A Clifford circuit with a mid-circuit measurement (trajectory path)."""
    circuit = QuantumCircuit(2, num_clbits=3, name="mid_measure")
    circuit.h(0)
    circuit.measure([0], [2])
    circuit.cx(0, 1)
    circuit.h(0)
    circuit.measure([0, 1], [0, 1])
    return circuit


def pauli_device_backend(seed: int) -> NoisyBackend:
    return NoisyBackend(
        DeviceModel.ibm_brisbane(include_thermal_relaxation=False), seed=seed
    )


def pauli_model() -> NoiseModel:
    return NoiseModel("pauli").add_all_qubit_error(depolarizing_channel(0.02), "cx")


@pytest.fixture
def walks(monkeypatch) -> dict[str, list]:
    """Eligibility walks, by the module that asked for them."""
    calls: dict[str, list] = {"dispatch": [], "stabilizer": []}
    walk = dispatch.stabilizer_mixtures

    def counting(noise_model, circuit):
        caller = inspect.currentframe().f_back.f_globals["__name__"]
        calls[caller.rsplit(".", 1)[-1]].append(circuit)
        return walk(noise_model, circuit)

    for module in (dispatch, stabilizer):
        monkeypatch.setattr(module, "stabilizer_mixtures", counting)
    return calls


class DuckNoise:
    """A noise model without a cache token: depolarizing noise on ``cx``."""

    name = "duck"

    def __init__(self):
        self.error = QuantumError(depolarizing_channel(0.05))

    def errors_for(self, gate_name, qubits):
        return [self.error] if gate_name == "cx" else []

    def has_readout_error(self):
        return False


def damping_model() -> NoiseModel:
    """Non-Pauli noise on ``h``: every circuit here is non-Pauli under it."""
    return NoiseModel("damping").add_all_qubit_error(amplitude_damping_channel(0.1), "h")


class TestWalkCount:
    def test_engine_walks_on_misses_and_dispatch_once_per_structure(self, walks):
        backend = pauli_device_backend(seed=3)
        picks = np.random.default_rng(7).integers(0, len(STRUCTURES), 64)
        first_of_each = [list(picks).index(pick) for pick in dict.fromkeys(picks)]

        def submission() -> list[QuantumCircuit]:
            # Fresh objects per submission; only the structure repeats.
            return [message_circuit(*STRUCTURES[pick]) for pick in picks]

        memo = backend._stabilizer_simulator()._distributions
        for call, expected_walks in ((1, len(first_of_each)), (2, 0)):
            circuits = submission()
            misses = memo.misses
            walks["dispatch"].clear()
            walks["stabilizer"].clear()
            backend.run_batch(circuits)
            assert backend.jobs[-1].metadata["backend"] == "stabilizer_batched"
            assert memo.misses - misses == expected_walks, call
            assert len(walks["stabilizer"]) == expected_walks, call
            expected = [circuits[index] for index in first_of_each][:expected_walks]
            assert list(map(id, walks["dispatch"])) == list(map(id, expected)), call

    def test_single_runs_walk_once_per_structure(self, walks):
        backend = pauli_device_backend(seed=4)
        for _ in range(3):
            backend.run(message_circuit("X", 10))
        assert [job.metadata["backend"] for job in backend.jobs] == ["stabilizer"] * 3
        assert len(walks["dispatch"]) == 1
        assert len(walks["stabilizer"]) == 1

    def test_in_place_add_walks_again_and_reroutes(self, walks):
        backend = pauli_device_backend(seed=5)
        backend.run(message_circuit("Z", 10))
        backend.run(message_circuit("Z", 10))
        assert len(walks["dispatch"]) == 1
        backend.noise_model.add_all_qubit_error(amplitude_damping_channel(0.1), "h")
        for _ in range(2):
            backend.run(message_circuit("Z", 10))
            assert backend.jobs[-1].metadata["backend"] == "dense"
            assert "non-Pauli" in backend.jobs[-1].metadata["dispatch_reason"]
        assert len(walks["dispatch"]) == 2

    @pytest.mark.parametrize("given_keys", [False, True])
    def test_a_model_without_a_token_walks_every_submission(self, walks, given_keys):
        duck = DuckNoise()
        for call in range(1, 4):
            circuits = [message_circuit("Y", 4), message_circuit("Y", 4)]
            keys = [batch.circuit_structure_key(c) for c in circuits] if given_keys else None
            decision = dispatch.select_backend("auto", circuits, duck, structure_keys=keys)
            assert decision.backend == "stabilizer"
            assert len(walks["dispatch"]) == 2 * call

    def test_non_clifford_outranks_non_pauli_when_both_are_kept(self, walks):
        model = damping_model()
        for _ in range(2):  # both walked, then both kept
            circuits = [message_circuit("X", 3), rotated_circuit()]
            decision = dispatch.select_backend("auto", circuits, model)
            assert decision.backend == "dense"
            assert decision.reason == "circuit 'rotated' contains non-Clifford gates"
            assert len(walks["dispatch"]) == 2
        circuits = [message_circuit("X", 3), rotated_circuit()]
        with pytest.raises(SimulationError, match="forced but circuit 'rotated' contains"):
            dispatch.select_backend("stabilizer", circuits, model)
        assert len(walks["dispatch"]) == 2
        decision = dispatch.select_backend("auto", [message_circuit("X", 3)], model)
        assert decision.reason == (
            "noise model 'damping' attaches non-Pauli errors to circuit 'message_X_eta3'"
        )
        assert len(walks["dispatch"]) == 2

    def test_each_structure_key_is_computed_once_per_submission(self, monkeypatch):
        computed: list[int] = []
        key = batch.circuit_structure_key

        def counting(circuit):
            computed.append(id(circuit))
            return key(circuit)

        for module in (batch, dispatch, stabilizer, device_backend):
            monkeypatch.setattr(module, "circuit_structure_key", counting)
        thermal = NoisyBackend(DeviceModel.ibm_brisbane(), seed=6)
        pauli = pauli_device_backend(seed=7)
        for backend in (thermal, pauli):
            for repeat in range(2):  # memo misses, then hits
                for circuits in (
                    [message_circuit("I", 10)],
                    [message_circuit(label, 10) for label in "IXZY"],
                ):
                    computed.clear()
                    if len(circuits) == 1:
                        backend.run(circuits[0], shots=16)
                    else:
                        backend.run_batch(circuits, shots=16)
                    assert Counter(computed) == Counter(map(id, circuits)), repeat
        assert {job.metadata["backend"] for job in thermal.jobs} == {"dense"}
        assert {job.metadata["backend"] for job in pauli.jobs} == {
            "stabilizer", "stabilizer_batched"
        }


class TestEligibilityMetric:
    def test_walk_count_equals_the_walks_and_results_are_unchanged(self, walks):
        def call_list(seed: int) -> list:
            backend = pauli_device_backend(seed=seed)
            for _ in range(2):
                backend.run_batch([message_circuit(*structure) for structure in STRUCTURES])
                backend.run(message_circuit("X", 10))
            backend.run_batch([message_circuit("X", 10), rotated_circuit()])
            return [(sorted(job.counts.items()), job.metadata) for job in backend.jobs]

        untraced = call_list(8)
        walks["dispatch"].clear()
        with telemetry.capture(clock="ticks") as session:
            traced = call_list(8)
            walked = session.metrics.counter_value("dispatch.eligibility", result="walk")
            kept = session.metrics.counter_value("dispatch.eligibility", result="hit")
        assert traced == untraced
        # 4 + 1 + 4 + 1 + 2 circuits looked up; 4 structures and the rotated one walked.
        assert walked == len(walks["dispatch"]) == 5
        assert kept == 12 - 5


def reset_rounds_circuit(rounds: int = 17) -> QuantumCircuit:
    """One qubit, *rounds* ``h``+``reset`` rounds: one random outcome each."""
    circuit = QuantumCircuit(1, name="reset_rounds")
    for _ in range(rounds):
        circuit.h(0)
        circuit.reset(0)
    circuit.h(0)
    circuit.measure_all()
    return circuit


class TestOutOfEnvelopeRepeats:
    """More than 16 random outcomes: trajectories, analysed once per structure."""

    #: SHA-256 of three ``run_batch`` calls' histograms (256 shots), as
    #: recorded before the memo kept out-of-envelope entries.
    DIGESTS = {
        (None, 5): "29f33ae9eda11396f53a7c9014488c99d30f320cd50d769f1cf45a86ecc8f227",
        (None, 6): "d306d44b7e0b9e8352fd80a601751134c2a5e9010887b839219089c519062947",
        ("pauli", 5): "8d509df08af79fb1f554f80b5afd6f0af5c0746f366dc52ff16c7b0869d578f9",
        ("pauli", 6): "2c37eb27659a3f3a1de8e877303cd0056161dc372670c9701d940c75ecdab0db",
    }

    @pytest.mark.parametrize("noise, seed", list(DIGESTS))
    def test_one_miss_two_hits_one_walk_same_histograms(self, walks, noise, seed):
        model = None
        if noise == "pauli":
            model = NoiseModel("pauli").add_all_qubit_error(depolarizing_channel(0.05), "h")
        simulator = StabilizerSimulator(noise_model=model, seed=seed)
        digest = hashlib.sha256()
        cache = []
        for _ in range(3):
            batch = simulator.run_batch([reset_rounds_circuit()], shots=256)
            histograms = [sorted(result.counts.items()) for result in batch.results]
            digest.update(json.dumps(histograms).encode())
            cache.append((batch.metadata["cache_hits"], batch.metadata["cache_misses"]))
        assert cache == [(0, 1), (1, 0), (1, 0)]
        assert len(walks["stabilizer"]) == 1
        assert digest.hexdigest() == self.DIGESTS[(noise, seed)]

    def test_forced_analytic_still_raises_after_an_entry_is_kept(self):
        simulator = StabilizerSimulator(seed=1)
        simulator.run(reset_rounds_circuit())
        with pytest.raises(SimulationError, match="exceeds the analytic envelope"):
            simulator.run(reset_rounds_circuit(), method="analytic")

    def test_a_model_without_a_token_walks_once_per_call(self, walks):
        class DuckNoise:
            name = "duck"

            def errors_for(self, gate_name, qubits):
                return []

            def has_readout_error(self):
                return False

            def readout_error_for(self, qubit):
                return None

        simulator = StabilizerSimulator(noise_model=DuckNoise(), seed=2)
        for call in range(1, 4):
            simulator.run(reset_rounds_circuit())
            assert len(walks["stabilizer"]) == call


class TestNoStaleAnswers:
    def test_non_pauli_error_added_after_a_served_structure(self):
        model = pauli_model()
        simulator = StabilizerSimulator(noise_model=model, seed=1)
        simulator.run(message_circuit("X", 3))
        simulator.run(message_circuit("X", 3))  # a memo hit
        model.add_all_qubit_error(amplitude_damping_channel(0.1), "h")
        with pytest.raises(SimulationError, match="not a Pauli channel"):
            simulator.run(message_circuit("X", 3))

    def test_non_clifford_before_and_after_a_hit(self):
        simulator = StabilizerSimulator(noise_model=pauli_model(), seed=2)
        with pytest.raises(SimulationError, match="gate 'rx' is not Clifford"):
            simulator.run(rotated_circuit())
        simulator.run(message_circuit("Z", 5))
        simulator.run(message_circuit("Z", 5))
        with pytest.raises(SimulationError, match="gate 'rx' is not Clifford"):
            simulator.run(rotated_circuit())
        with pytest.raises(SimulationError, match="gate 'rx' is not Clifford"):
            simulator.run_batch([message_circuit("Z", 5), rotated_circuit()])

    def test_duck_typed_model_is_checked_every_call(self):
        duck = DuckNoise()
        simulator = StabilizerSimulator(noise_model=duck, seed=5)
        for _ in range(2):
            simulator.run(message_circuit("Y", 2))
        duck.error = QuantumError(amplitude_damping_channel(0.2))  # no version bump
        with pytest.raises(SimulationError, match="not a Pauli channel"):
            simulator.run(message_circuit("Y", 2))


class TestErrorOrder:
    @staticmethod
    def non_terminal(builder) -> QuantumCircuit:
        circuit = QuantumCircuit(1, name="non_terminal")
        circuit.h(0)
        circuit.measure([0], [0])
        builder(circuit)
        circuit.measure([0], [0])
        return circuit

    @pytest.mark.parametrize("method", ["analytic", "trajectory", "auto"])
    def test_non_clifford_outranks_non_terminal(self, method):
        circuit = self.non_terminal(lambda c: c.rx(0.2, 0))
        with pytest.raises(SimulationError, match="gate 'rx' is not Clifford"):
            StabilizerSimulator().run(circuit, method=method)

    def test_non_pauli_outranks_non_terminal(self):
        model = NoiseModel("damping").add_all_qubit_error(
            amplitude_damping_channel(0.1), "h"
        )
        circuit = self.non_terminal(lambda c: c.h(0))
        with pytest.raises(SimulationError, match="not a Pauli channel"):
            StabilizerSimulator(noise_model=model).run(circuit, method="analytic")

    def test_non_clifford_outranks_an_earlier_non_pauli_error(self):
        model = NoiseModel("damping").add_all_qubit_error(
            amplitude_damping_channel(0.1), "h"
        )
        with pytest.raises(SimulationError, match="gate 'rx' is not Clifford"):
            StabilizerSimulator(noise_model=model).run(rotated_circuit())

    def test_eligible_circuits_keep_their_envelope_errors(self):
        circuit = self.non_terminal(lambda c: c.h(0))
        with pytest.raises(SimulationError, match="requires terminal measurements"):
            StabilizerSimulator(noise_model=pauli_model()).run(
                circuit, method="analytic"
            )
        wide = QuantumCircuit(13, name="wide")
        wide.measure_all()
        with pytest.raises(SimulationError, match="exceeds the analytic envelope"):
            StabilizerSimulator().run(wide, method="analytic")


def mixed_call_digest(seed: int) -> str:
    """SHA-256 over the counts and job metadata of a mixed call list."""
    thermal = NoisyBackend(DeviceModel.ibm_brisbane(), seed=seed)
    pauli = pauli_device_backend(seed=seed + 1)
    for backend in (thermal, pauli):
        for label, eta in STRUCTURES[:3]:
            batch = [message_circuit(symbol, eta) for symbol in "IXZY"]
            backend.run(message_circuit(label, eta))
            backend.run_batch(batch)
            backend.run_batch(batch[::-1])
        backend.run(rotated_circuit())
    # Mid-circuit measurements run only on the tableau (trajectories).
    pauli.run(mid_measure_circuit())
    pauli.run_batch([mid_measure_circuit(), message_circuit("Y", 10)])
    digest = hashlib.sha256()
    for backend in (thermal, pauli):
        for job in backend.jobs:
            record = [job.circuit_name, job.shots, sorted(job.counts.items()), job.metadata]
            digest.update(json.dumps(record, sort_keys=True).encode())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "seed, expected",
    [
        (11, "76a151c194f3e0adb107ed6b9225fe7a27a50e8de244e7f7933a5a23548fb1cb"),
        (21, "f2af499400734130d41b2556a9c0d7d66f0c2091eba37807fa73791aa448572f"),
    ],
)
def test_mixed_call_list_pinned(seed, expected):
    assert mixed_call_digest(seed) == expected
