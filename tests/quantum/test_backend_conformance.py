"""Cross-backend conformance battery.

One parameterised suite runs protocol-shaped Clifford circuits against every
execution path in the tree —

* ``StatevectorSimulator.run`` (sequential reference),
* ``StatevectorSimulator.run_batch`` (compiled unitaries),
* ``DensityMatrixSimulator.run`` / ``run_batch`` (compiled superoperators;
  ``run`` is the one-circuit batch),
* the density simulator's private per-gate evolution (the reference the
  compiled superoperators are held to),
* ``StabilizerSimulator`` (tableau; analytic and trajectory modes, single
  runs and whole batches),

and pins two levels of agreement:

**Exact** — on noiseless Clifford circuits every path produces *bit-identical
counts* for a circuit run on a fresh generator of a fixed seed: all paths
reduce to one ``multinomial`` draw from the same probability vector, so
equal seeds mean equal histograms.  The same holds for Pauli-noise models
between the dense path and the stabilizer *analytic* path, whose
XOR-convolution computes the identical distribution.  The claim is per
circuit: where the dense vector carries rounding residues (around 1e-32)
and the tableau exact zeros, ``multinomial`` returns equal counts but
consumes the generator differently, so later circuits on one *shared*
stream may differ between backends.

**Statistical** — the stabilizer *trajectory* mode samples noise per shot and
therefore only agrees in distribution.  Those comparisons use a two-sample
chi-squared test at significance α = 0.001 (critical values inlined below;
fixed seeds make each test deterministic, so a passing battery stays
passing).
"""

import numpy as np
import pytest

from repro.device.backend import NoisyBackend
from repro.device.device_model import DeviceModel
from repro.quantum.channels import (
    bit_flip_channel,
    depolarizing_channel,
    pauli_channel,
)
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.density import DensityMatrix
from repro.quantum.noise_model import NoiseModel, ReadoutError
from repro.quantum.simulator import DensityMatrixSimulator, StatevectorSimulator
from repro.quantum.stabilizer import StabilizerSimulator

SHOTS = 2048

#: chi-squared critical values at α = 0.001 (upper tail), keyed by degrees
#: of freedom; from the standard chi-squared distribution tables.
CHI2_CRITICAL_999 = {
    1: 10.828, 2: 13.816, 3: 16.266, 4: 18.467, 5: 20.515,
    6: 22.458, 7: 24.322, 8: 26.124, 9: 27.877, 10: 29.588,
    15: 37.697, 20: 45.315, 31: 61.098,
}


def two_sample_chi2(counts_a: dict, counts_b: dict) -> tuple[float, int]:
    """Two-sample chi-squared statistic and degrees of freedom.

    Standard homogeneity test: with totals ``N_a``/``N_b`` and per-outcome
    observations ``a_i``/``b_i``, the statistic is
    ``sum_i (sqrt(N_b/N_a) a_i - sqrt(N_a/N_b) b_i)^2 / (a_i + b_i)`` over
    outcomes observed at least once, with ``#outcomes - 1`` degrees of
    freedom.
    """
    outcomes = sorted(set(counts_a) | set(counts_b))
    n_a = sum(counts_a.values())
    n_b = sum(counts_b.values())
    statistic = 0.0
    for outcome in outcomes:
        a = counts_a.get(outcome, 0)
        b = counts_b.get(outcome, 0)
        if a + b == 0:
            continue
        statistic += (np.sqrt(n_b / n_a) * a - np.sqrt(n_a / n_b) * b) ** 2 / (a + b)
    return statistic, max(len(outcomes) - 1, 1)


def assert_statistically_equivalent(counts_a: dict, counts_b: dict) -> None:
    statistic, dof = two_sample_chi2(counts_a, counts_b)
    critical = CHI2_CRITICAL_999.get(
        dof, CHI2_CRITICAL_999[min(k for k in CHI2_CRITICAL_999 if k >= dof)]
    )
    assert statistic < critical, (
        f"chi2={statistic:.2f} exceeds the α=0.001 critical value {critical} "
        f"at {dof} dof\n  a={counts_a}\n  b={counts_b}"
    )


def per_gate_counts(circuit: QuantumCircuit, noise_model, shots: int, seed: int) -> dict:
    """Counts of the density simulator's per-gate reference evolution."""
    simulator = DensityMatrixSimulator(noise_model=noise_model)
    state, measure_map = simulator._evolve_per_gate(
        circuit, DensityMatrix.zero_state(circuit.num_qubits)
    )
    return simulator._sample_measurements(
        state, measure_map, circuit.num_clbits, shots, np.random.default_rng(seed)
    ).counts


# -- the circuit battery -------------------------------------------------------------
def message_transfer(message: str, eta: int = 30) -> QuantumCircuit:
    """The paper's dense-coding emulation circuit (Bell prep, Pauli, η-chain, BSM)."""
    from repro.experiments.emulation import build_message_transfer_circuit

    return build_message_transfer_circuit(message, eta)


def ghz(n: int) -> QuantumCircuit:
    circuit = QuantumCircuit(n, name=f"ghz{n}")
    circuit.h(0)
    for q in range(n - 1):
        circuit.cx(q, q + 1)
    circuit.measure_all()
    return circuit


def clifford_mix() -> QuantumCircuit:
    circuit = QuantumCircuit(3, name="clifford_mix")
    circuit.h(0)
    circuit.s(0)
    circuit.cz(0, 1)
    circuit.cy(1, 2)
    circuit.sdg(1)
    circuit.swap(0, 2)
    circuit.y(1)
    circuit.h(2)
    circuit.measure_all()
    return circuit


def random_clifford(seed: int, n: int = 4, depth: int = 24) -> QuantumCircuit:
    """A reproducible random Clifford circuit over the full tableau gate set."""
    rng = np.random.default_rng(seed)
    circuit = QuantumCircuit(n, name=f"random_clifford_{seed}")
    one_qubit = ("h", "s", "sdg", "x", "y", "z", "id")
    two_qubit = ("cx", "cz", "cy", "swap")
    for _ in range(depth):
        if rng.random() < 0.5:
            gate = one_qubit[int(rng.integers(len(one_qubit)))]
            getattr(circuit, gate if gate != "id" else "id")(int(rng.integers(n)))
        else:
            gate = two_qubit[int(rng.integers(len(two_qubit)))]
            a, b = rng.choice(n, size=2, replace=False)
            getattr(circuit, gate)(int(a), int(b))
    circuit.measure_all()
    return circuit


def reset_circuit() -> QuantumCircuit:
    circuit = QuantumCircuit(3, name="reset_reuse")
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.cx(1, 2)
    circuit.reset(1)
    circuit.h(1)
    circuit.cx(1, 2)
    circuit.measure_all()
    return circuit


NOISELESS_BATTERY = [
    pytest.param(lambda: message_transfer("00"), id="message_00"),
    pytest.param(lambda: message_transfer("01"), id="message_01"),
    pytest.param(lambda: message_transfer("10"), id="message_10"),
    pytest.param(lambda: message_transfer("11"), id="message_11"),
    pytest.param(lambda: ghz(3), id="ghz3"),
    pytest.param(lambda: ghz(5), id="ghz5"),
    pytest.param(clifford_mix, id="clifford_mix"),
    pytest.param(lambda: random_clifford(1), id="random_clifford_1"),
    pytest.param(lambda: random_clifford(2), id="random_clifford_2"),
    pytest.param(lambda: random_clifford(3), id="random_clifford_3"),
]


def pauli_noise_model() -> NoiseModel:
    model = NoiseModel("conformance_pauli")
    model.add_all_qubit_error(depolarizing_channel(0.004), "id")
    model.add_all_qubit_error(bit_flip_channel(0.01), "cx")
    model.add_all_qubit_error(pauli_channel(0.004, 0.002, 0.006), "h")
    model.add_readout_error(ReadoutError.symmetric(0.015))
    return model


NOISY_BATTERY = [
    pytest.param(lambda: message_transfer("00", eta=120), id="message_00_eta120"),
    pytest.param(lambda: message_transfer("11", eta=120), id="message_11_eta120"),
    pytest.param(lambda: ghz(3), id="ghz3"),
    pytest.param(clifford_mix, id="clifford_mix"),
    pytest.param(reset_circuit, id="reset_reuse"),
]


# -- exact conformance -----------------------------------------------------------------
class TestNoiselessExactConformance:
    @pytest.mark.parametrize("build", NOISELESS_BATTERY)
    def test_all_backends_bit_identical(self, build):
        seed = 20240

        def counts_of(result):
            return result.counts

        circuit = build()
        reference = DensityMatrixSimulator(seed=seed).run(circuit, shots=SHOTS).counts
        paths = {
            "statevector": StatevectorSimulator(seed=seed).run(circuit, shots=SHOTS).counts,
            "statevector_batch": counts_of(
                StatevectorSimulator(seed=seed).run_batch([build()], shots=SHOTS)[0]
            ),
            "density_per_gate": per_gate_counts(build(), None, SHOTS, seed),
            "stabilizer": StabilizerSimulator(seed=seed).run(circuit, shots=SHOTS).counts,
        }
        for name, counts in paths.items():
            assert counts == reference, f"{name} diverged from the dense reference"

    def test_shared_rng_stream_stays_aligned_across_backends(self):
        # Interleaving runs on one generator: the stabilizer path consumes
        # exactly one multinomial per circuit, like the dense path, so a
        # shared stream stays in lockstep.
        circuits = [message_transfer(m) for m in ("00", "01", "10", "11")]
        rng_dense = np.random.default_rng(99)
        rng_stab = np.random.default_rng(99)
        dense = DensityMatrixSimulator()
        stab = StabilizerSimulator()
        for circuit in circuits:
            a = dense.run(circuit, shots=256, rng=rng_dense).counts
            b = stab.run(circuit, shots=256, rng=rng_stab).counts
            assert a == b


class TestPauliNoiseConformance:
    @pytest.mark.parametrize("build", NOISY_BATTERY)
    def test_analytic_stabilizer_bit_identical_to_dense(self, build):
        """The mask convolution computes the dense path's exact distribution.

        Equal probability vectors mean equal multinomial draws under a fixed
        seed, so even *noisy* counts agree bit for bit between the dense and
        analytic-stabilizer paths.
        """
        model = pauli_noise_model()
        circuit = build()
        dense = DensityMatrixSimulator(noise_model=model, seed=31).run(
            circuit, shots=SHOTS
        )
        stab = StabilizerSimulator(noise_model=model, seed=31).run(circuit, shots=SHOTS)
        assert stab.counts == dense.counts

    @pytest.mark.parametrize("build", NOISY_BATTERY)
    def test_trajectory_sampling_statistically_equivalent(self, build):
        """Per-shot Pauli trajectories agree with the analytic distribution.

        Different seeds on purpose: this is a genuine two-sample test of the
        noise unravelling, not an RNG-alignment identity.
        """
        model = pauli_noise_model()
        circuit = build()
        analytic = StabilizerSimulator(noise_model=model, seed=7).run(
            circuit, shots=4096
        )
        trajectory = StabilizerSimulator(noise_model=model, seed=8).run(
            circuit, shots=4096, method="trajectory"
        )
        assert analytic.metadata["stabilizer_mode"] == "analytic"
        assert trajectory.metadata["stabilizer_mode"] == "trajectory"
        assert_statistically_equivalent(analytic.counts, trajectory.counts)

    def test_dense_sequential_vs_batch_with_pauli_noise(self):
        model = pauli_noise_model()
        circuit = message_transfer("10", eta=80)
        simulator = DensityMatrixSimulator(noise_model=model)
        sequential = per_gate_counts(circuit, model, SHOTS, seed=3)
        batched = simulator.run_batch(
            [message_transfer("10", eta=80)], shots=SHOTS, rng=np.random.default_rng(3)
        )[0]
        assert sequential == batched.counts


class TestBackendDispatchConformance:
    def test_auto_routes_ideal_device_to_stabilizer(self):
        backend = NoisyBackend(DeviceModel.ideal(2), seed=5)
        counts = backend.run(message_transfer("01"), shots=512)
        job = backend.jobs[-1]
        assert job.metadata["backend"] == "stabilizer"
        dense_backend = NoisyBackend(
            DeviceModel.ideal(2), seed=5, simulator_backend="dense"
        )
        dense_counts = dense_backend.run(message_transfer("01"), shots=512)
        assert dense_backend.jobs[-1].metadata["backend"] == "dense"
        assert dict(counts.items()) == dict(dense_counts.items())

    def test_auto_falls_back_for_thermal_relaxation_device(self):
        backend = NoisyBackend(DeviceModel.ibm_brisbane(), seed=5)
        backend.run(message_transfer("01"), shots=64)
        job = backend.jobs[-1]
        assert job.metadata["backend"] == "dense"
        assert "non-Pauli" in job.metadata["dispatch_reason"]

    def test_forced_stabilizer_raises_on_thermal_relaxation_device(self):
        from repro.exceptions import SimulationError

        backend = NoisyBackend(
            DeviceModel.ibm_brisbane(), seed=5, simulator_backend="stabilizer"
        )
        with pytest.raises(SimulationError, match="forced"):
            backend.run(message_transfer("01"), shots=64)

    def test_twirled_device_model_takes_fast_path_statistically(self):
        """Pauli-twirling ibm_brisbane is an explicit, documented approximation.

        The twirled model is stabilizer-eligible; its distribution agrees
        with the twirled model on the dense path (the twirl itself changes
        physics, so comparison is twirled-vs-twirled, never silent).
        """
        from repro.quantum.dispatch import pauli_twirl_noise_model

        model = pauli_twirl_noise_model(DeviceModel.ibm_brisbane().noise_model())
        circuit = message_transfer("00", eta=60)
        dense = DensityMatrixSimulator(noise_model=model, seed=11).run(
            circuit, shots=SHOTS
        )
        stab = StabilizerSimulator(noise_model=model, seed=11).run(circuit, shots=SHOTS)
        assert stab.counts == dense.counts


# -- stabilizer batch conformance ------------------------------------------------------
class TestStabilizerBatchConformance:
    """``StabilizerSimulator.run_batch`` against independent references.

    Each circuit of a batch is bit-identical to the density-matrix simulator
    on a fresh generator, and a whole batch equals a test-local loop of one
    ``multinomial`` per circuit in submission order, at batch sizes
    {1, 7, 64} under three seeds.  Batches are never compared with a dense
    batch on one shared stream (see the module docstring).
    """

    def _battery_circuits(self, count: int, noisy: bool) -> list:
        battery = NOISY_BATTERY if noisy else NOISELESS_BATTERY
        builders = [param.values[0] for param in battery]
        return [builders[i % len(builders)]() for i in range(count)]

    @pytest.mark.parametrize("seed", [101, 202, 303])
    @pytest.mark.parametrize("noisy", [False, True], ids=["noiseless", "pauli"])
    def test_each_circuit_bit_identical_to_dense_on_fresh_generator(self, seed, noisy):
        model = pauli_noise_model() if noisy else None
        for param in NOISY_BATTERY if noisy else NOISELESS_BATTERY:
            circuit = param.values[0]()
            stab = StabilizerSimulator(noise_model=model, seed=seed).run_batch(
                [circuit], shots=SHOTS
            )
            dense = DensityMatrixSimulator(noise_model=model, seed=seed).run(
                circuit, shots=SHOTS
            )
            assert stab.results[0].counts == dense.counts, circuit.name

    @pytest.mark.parametrize("seed", [101, 202, 303])
    @pytest.mark.parametrize("batch_size", [1, 7, 64])
    @pytest.mark.parametrize("noisy", [False, True], ids=["noiseless", "pauli"])
    def test_batch_draws_one_multinomial_per_circuit_in_order(
        self, seed, batch_size, noisy
    ):
        model = pauli_noise_model() if noisy else None
        circuits = self._battery_circuits(batch_size, noisy)
        batch = StabilizerSimulator(noise_model=model, seed=seed).run_batch(
            circuits, shots=SHOTS
        )
        rng = np.random.default_rng(seed)
        expected = []
        for circuit in circuits:
            # Every battery circuit measures qubit i into clbit i, so an
            # outcome index renders directly as its key.
            probabilities = StabilizerSimulator(noise_model=model)._analytic(
                circuit, allow_fail=False
            ).probabilities
            samples = rng.multinomial(SHOTS, probabilities)
            width = circuit.num_qubits
            expected.append(
                {
                    format(int(index), f"0{width}b"): int(samples[index])
                    for index in np.flatnonzero(samples)
                }
            )
        assert [result.counts for result in batch.results] == expected

    def test_eta_repeat_compression_parity(self):
        # A deep identity chain exercises the η-repeat compression on both
        # paths; the stabilizer batch must agree with dense bit for bit.
        model = pauli_noise_model()
        circuit = message_transfer("10", eta=120)
        dense = DensityMatrixSimulator(noise_model=model, seed=41).run(
            circuit, shots=SHOTS
        )
        stab = StabilizerSimulator(noise_model=model, seed=41).run_batch(
            [circuit], shots=SHOTS
        )
        assert stab.results[0].counts == dense.counts

    def test_out_of_envelope_auto_runs_trajectories_matching_statevector(self):
        # 13 measured qubits exceed the analytic envelope: auto falls back to
        # trajectories, which agree in distribution with the dense reference.
        circuit = ghz(13)
        stab = StabilizerSimulator(seed=4).run(circuit, shots=SHOTS)
        dense = StatevectorSimulator(seed=5).run(circuit, shots=SHOTS)
        assert stab.metadata["stabilizer_mode"] == "trajectory"
        assert set(stab.counts) == {"0" * 13, "1" * 13}
        assert_statistically_equivalent(stab.counts, dense.counts)

    def test_auto_batch_routes_ideal_device_to_batched_backend(self):
        backend = NoisyBackend(DeviceModel.ideal(2), seed=5)
        circuits = [message_transfer(m) for m in ("00", "01", "10", "11")]
        counts = backend.run_batch(circuits, shots=512)
        for job in backend.jobs[-len(circuits):]:
            assert job.metadata["backend"] == "stabilizer_batched"
        dense_backend = NoisyBackend(
            DeviceModel.ideal(2), seed=5, simulator_backend="dense"
        )
        dense_counts = dense_backend.run_batch(
            [message_transfer(m) for m in ("00", "01", "10", "11")], shots=512
        )
        # Every ideal message circuit has one certain outcome, so the counts
        # agree even though the two streams are consumed differently.
        assert [dict(c.items()) for c in counts] == [
            dict(c.items()) for c in dense_counts
        ]

    def test_forced_batched_raises_on_non_clifford_circuit(self):
        from repro.exceptions import SimulationError
        from repro.quantum.dispatch import select_backend

        circuit = QuantumCircuit(1)
        circuit.t(0)
        circuit.measure_all()
        with pytest.raises(SimulationError, match="forced"):
            select_backend("stabilizer_batched", circuit, None)

    def test_forced_batched_raises_on_thermal_relaxation_device(self):
        from repro.exceptions import SimulationError

        backend = NoisyBackend(
            DeviceModel.ibm_brisbane(), seed=5, simulator_backend="stabilizer_batched"
        )
        with pytest.raises(SimulationError, match="forced"):
            backend.run(message_transfer("01"), shots=64)


# -- readout-error renormalization parity ----------------------------------------------
class TestReadoutRenormalizationParity:
    """All backends share one clip-to-renormalize helper for readout folding.

    The dense sampler and the stabilizer's cached distribution both call
    :func:`renormalize_readout_probabilities`, so float-noise handling at
    the clip boundary cannot diverge between backends.
    """

    def test_helper_clips_negative_float_noise(self):
        from repro.quantum.simulator import renormalize_readout_probabilities

        probabilities = np.array([0.5, -1e-17, 0.5 - 1e-17])
        cleaned = renormalize_readout_probabilities(probabilities)
        assert (cleaned >= 0.0).all()
        assert cleaned.sum() == pytest.approx(1.0)
        assert cleaned[1] == 0.0

    def test_helper_rejects_all_nonpositive_distribution(self):
        from repro.exceptions import SimulationError
        from repro.quantum.simulator import renormalize_readout_probabilities

        with pytest.raises(SimulationError, match="empty distribution"):
            renormalize_readout_probabilities(np.array([0.0, -1e-18]))

    def test_extreme_asymmetric_readout_parity_across_backends(self):
        # An adversarially skewed confusion matrix stresses the clip-and-
        # renormalize path; both exact backends must stay bit-identical.
        model = NoiseModel("extreme_readout")
        model.add_all_qubit_error(depolarizing_channel(0.004), "id")
        model.add_readout_error(ReadoutError(0.49, 0.002))
        circuit = message_transfer("11", eta=40)
        dense = DensityMatrixSimulator(noise_model=model, seed=17).run(
            circuit, shots=SHOTS
        )
        stab = StabilizerSimulator(noise_model=model, seed=17).run(
            circuit, shots=SHOTS
        )
        assert stab.counts == dense.counts
