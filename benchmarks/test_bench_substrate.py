"""Microbenchmarks of the quantum-simulation substrate.

These are conventional timing benchmarks (many rounds) of the primitives every
experiment is built on: statevector gate application, density-matrix channel
application, Bell-state measurement sampling, a full noisy backend execution
of the Fig. 2 circuit, and one complete protocol session.  They put the
per-artefact regeneration times of the other benches into context and guard
against performance regressions in the substrate.
"""

from __future__ import annotations

from repro.channel.quantum_channel import IdentityChainChannel, NoiselessChannel
from repro.device.backend import NoisyBackend
from repro.device.device_model import DeviceModel
from repro.experiments.emulation import build_message_transfer_circuit
from repro.protocol.config import ProtocolConfig
from repro.protocol.runner import UADIQSDCProtocol
from repro.quantum.bell import BellState, bell_state
from repro.quantum.channels import depolarizing_channel, thermal_relaxation_channel
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.measurement import bell_measurement_counts
from repro.quantum.simulator import StatevectorSimulator
from repro.quantum.states import Statevector


def test_bench_statevector_gate_application(benchmark):
    """Apply a 10-gate layer to an 8-qubit statevector."""
    circuit = QuantumCircuit(8)
    for qubit in range(8):
        circuit.h(qubit)
    for qubit in range(7):
        circuit.cx(qubit, qubit + 1)
    simulator = StatevectorSimulator(seed=0)

    result = benchmark(simulator.final_statevector, circuit)
    assert isinstance(result, Statevector)
    assert result.num_qubits == 8


def test_bench_density_channel_application(benchmark):
    """Repeat transmit of one EPR pair through the η=100 identity chain.

    Every round after the first is a ``state_statistic`` memo hit, so this
    times the lookup a session pays per repeated transmit;
    ``test_bench_kraus_channel_application`` times the Kraus application.
    """
    channel = IdentityChainChannel(eta=100)
    pair = bell_state(BellState.PHI_PLUS).density_matrix()

    noisy = benchmark(channel.transmit, pair, 0)
    assert noisy.num_qubits == 2
    assert noisy.purity() < 1.0


def test_bench_kraus_channel_application(benchmark):
    """Apply the composed η=100 identity-chain map to one EPR pair (not memoised)."""
    channel = IdentityChainChannel(eta=100).single_use_channel()
    pair = bell_state(BellState.PHI_PLUS).density_matrix()

    noisy = benchmark(channel.apply, pair, [0])
    assert noisy.num_qubits == 2
    assert noisy.purity() < 1.0


def test_bench_kraus_composition(benchmark):
    """Compose depolarizing and thermal-relaxation Kraus channels."""
    relaxation = thermal_relaxation_channel(233.04e-6, 145.75e-6, 60e-9)

    composed = benchmark(depolarizing_channel(2.41e-4).compose, relaxation)
    assert composed.num_qubits == 1


def test_bench_bell_measurement_sampling(benchmark):
    """Sample 1024 Bell-state measurements of a noisy pair."""
    noisy = depolarizing_channel(0.05).apply(
        bell_state(BellState.PHI_PLUS).density_matrix(), [0]
    )

    counts = benchmark(bell_measurement_counts, noisy, [0, 1], 1024, 7)
    assert sum(counts.values()) == 1024


def test_bench_noisy_backend_fig2_circuit(benchmark):
    """Run the Fig. 2 emulation circuit (η=10) on the ibm_brisbane backend."""
    backend = NoisyBackend(DeviceModel.ibm_brisbane(), seed=5)
    circuit = build_message_transfer_circuit("10", eta=10)

    counts = benchmark(backend.run, circuit, 1024)
    assert counts.shots == 1024


def test_bench_full_protocol_session(benchmark):
    """One complete UA-DI-QSDC session (16-bit message, d=64, ideal channel)."""
    config = ProtocolConfig.default(
        message_length=16, check_pairs_per_round=64, seed=3
    ).with_channel(NoiselessChannel())

    def session():
        return UADIQSDCProtocol(config).run("1011001110001111")

    result = benchmark(session)
    assert result.success
