"""Noisy backend: executes circuits under a device model's noise.

:class:`NoisyBackend` is the library's analogue of submitting a circuit to
``ibm_brisbane`` through Qiskit: it validates the circuit against the device,
derives the noise model once, runs a simulator and returns a
:class:`~repro.device.counts.Counts` histogram.  An ideal device model yields
an exact (but still sampled) execution, which is what the paper calls the
"ideal simulation".

Backend selection: the ``simulator_backend`` knob (``"auto"``, ``"dense"``,
``"stabilizer"``, ``"stabilizer_batched"``) is resolved per circuit batch by
:func:`repro.quantum.dispatch.select_backend`.  ``auto`` routes
Clifford-only circuits whose applicable noise is Pauli-diagonal to the
:class:`~repro.quantum.stabilizer.StabilizerSimulator` — same counts
contract, polynomial cost — and everything else (including the default
``ibm_brisbane`` model, whose thermal relaxation is not a Pauli channel) to
the dense density-matrix path.  For whole-batch submissions
(:meth:`NoisyBackend.run_batch`) the dispatcher reports
``"stabilizer_batched"``, a synonym that runs the same simulator.  The
resolved backend and the dispatch reason are recorded in every
:class:`BackendJob`'s metadata.

:meth:`NoisyBackend.run` and :meth:`NoisyBackend.run_batch` share one
execution body (validate, dispatch, simulate, record jobs) and differ only in
dispatching as a single-circuit or a whole-batch submission.  Either way one
simulator ``run_batch`` call executes the circuits and dense circuits run
compiled.  Stabilizer eligibility is decided in :mod:`repro.quantum.dispatch`
alone: ``select_backend`` walks each submitted circuit once, and the
stabilizer simulator only when its distribution memo computes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from collections.abc import Iterable

from repro.device.counts import Counts
from repro.device.device_model import DeviceModel
from repro.exceptions import DeviceError
from repro.quantum.batch import PropagatorCache
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.dispatch import BACKEND_CHOICES, select_backend
from repro.quantum.simulator import DensityMatrixSimulator, SimulationResult
from repro.quantum.stabilizer import StabilizerSimulator
from repro.quantum.density import DensityMatrix
from repro.utils.rng import as_rng

__all__ = ["NoisyBackend", "BackendJob"]


@dataclass
class BackendJob:
    """Record of one backend execution (circuit, shots, result)."""

    circuit_name: str
    shots: int
    counts: Counts
    metadata: dict = field(default_factory=dict)


class NoisyBackend:
    """Execute circuits under a :class:`~repro.device.device_model.DeviceModel`.

    Parameters
    ----------
    device:
        The device model; defaults to the ``ibm_brisbane`` preset.
    seed:
        Seed or generator for all sampling performed by this backend.
    simulator_backend:
        ``"auto"`` (default: stabilizer fast path when provably exact, dense
        otherwise), ``"dense"`` (always the density-matrix simulator),
        ``"stabilizer"`` or its synonym ``"stabilizer_batched"`` (forced;
        raise on ineligible circuits).
    cache:
        Optional shared :class:`~repro.quantum.batch.PropagatorCache` for the
        dense simulator.  Sweeps that create one backend per point (for
        deterministic seeding) can pass a sweep-owned cache so points reuse
        each other's compiled step propagators.  The cache locks its own
        state, so threaded sweeps may share it; a backend itself (its RNG
        stream and job list) belongs to one thread.
    """

    def __init__(
        self,
        device: DeviceModel | None = None,
        seed=None,
        simulator_backend: str = "auto",
        cache: "PropagatorCache | None" = None,
    ):
        if simulator_backend not in BACKEND_CHOICES:
            raise DeviceError(
                f"unknown simulator backend {simulator_backend!r}; "
                f"choose from {BACKEND_CHOICES}"
            )
        self.device = device or DeviceModel.ibm_brisbane()
        self._rng = as_rng(seed)
        self.simulator_backend = simulator_backend
        self._noise_model = self.device.noise_model()
        # The one normalisation rule every consumer (dense simulator,
        # stabilizer simulator, dispatch analysis) shares: an ideal model is
        # represented as "no noise model".
        self._effective_noise = (
            None if self._noise_model.is_ideal() else self._noise_model
        )
        self._simulator = DensityMatrixSimulator(
            noise_model=self._effective_noise,
            seed=self._rng,
            cache=cache,
        )
        self._stabilizer: StabilizerSimulator | None = None
        self.jobs: list[BackendJob] = []

    def _stabilizer_simulator(self) -> StabilizerSimulator:
        if self._stabilizer is None:
            self._stabilizer = StabilizerSimulator(
                noise_model=self._effective_noise, seed=self._rng
            )
        return self._stabilizer

    # -- queries -----------------------------------------------------------------
    @property
    def name(self) -> str:
        """Backend name (the device name)."""
        return self.device.name

    @property
    def noise_model(self):
        """The derived noise model (read-only)."""
        return self._noise_model

    def is_noisy(self) -> bool:
        """True if executions apply any gate or readout noise."""
        return not self._noise_model.is_ideal()

    # -- execution -----------------------------------------------------------------
    def run(self, circuit: QuantumCircuit, shots: int = 1024) -> Counts:
        """Execute *circuit* with *shots* repetitions and return the counts.

        The circuit routes through the backend resolved by the dispatch
        layer for a single-circuit submission (see the class docstring).
        Whichever backend ``auto`` resolves to, a noiseless Clifford circuit
        run on a fresh generator of a fixed seed gives bit-identical counts.
        The claim is per circuit: later circuits on one stream may differ
        between backends, because a dense probability vector can carry
        rounding residues where the tableau has exact zeros, and that
        changes how ``multinomial`` consumes the generator.
        """
        return self._execute([circuit], shots, batch=False)[0]

    def run_batch(
        self, circuits: Iterable[QuantumCircuit], shots: int = 1024
    ) -> list[Counts]:
        """Execute several circuits as one whole-batch submission.

        Dense circuits share one propagator cache and are each sampled with
        a single multinomial draw; stabilizer-eligible batches share the
        stabilizer's distribution cache the same way.  One
        :class:`BackendJob` is recorded per circuit, exactly as with
        repeated :meth:`run` calls.

        Parameters
        ----------
        circuits:
            Circuits to execute, in order (any iterable, generators included).
        shots:
            Shots sampled per circuit.

        Returns
        -------
        list of Counts
            One histogram per circuit, in submission order.
        """
        return self._execute(circuits, shots, batch=True)

    def run_result(self, circuit: QuantumCircuit, shots: int = 1024) -> SimulationResult:
        """Execute *circuit* and return the full simulator result (incl. the state).

        Always runs the dense density-matrix simulator: callers of this
        method want the final state, which the stabilizer backend does not
        materialise.
        """
        self._validate(circuit)
        return self._simulator.run(circuit, shots=shots, rng=self._rng)

    def final_density_matrix(self, circuit: QuantumCircuit) -> DensityMatrix:
        """Final mixed state of *circuit* under the device noise (no sampling)."""
        self._validate(circuit)
        return self._simulator.final_density_matrix(circuit)

    def circuit_duration(self, circuit: QuantumCircuit) -> float:
        """Wall-clock duration of the circuit: sum of calibrated gate durations.

        The protocol circuits are sequential on each qubit (no parallel layers
        matter for the paper's figures), so the simple sum over instructions is
        the relevant quantity: ``η`` identity gates take ``η * 60 ns``.
        """
        total = 0.0
        for instruction in circuit.instructions:
            if instruction.kind == "gate":
                total += self.device.gate_duration(instruction.name) * instruction.repetitions
        return total

    # -- internals -------------------------------------------------------------------
    def _execute(
        self, circuits: Iterable[QuantumCircuit], shots: int, batch: bool
    ) -> list[Counts]:
        """The one execution body: validate, dispatch, simulate, record jobs."""
        circuits = list(circuits)
        for circuit in circuits:
            self._validate(circuit)
        decision = select_backend(
            self.simulator_backend, circuits, self._effective_noise, batch=batch
        )
        simulator = (
            self._stabilizer_simulator() if decision.use_stabilizer else self._simulator
        )
        results = simulator.run_batch(circuits, shots=shots, rng=self._rng)
        histograms = [Counts(result.counts, shots=results.shots) for result in results]
        for circuit, result, counts in zip(circuits, results, histograms):
            metadata = {
                **result.metadata,
                "backend": decision.backend,
                "dispatch_reason": decision.reason,
            }
            self.jobs.append(BackendJob(circuit.name, results.shots, counts, metadata))
        return histograms

    def _validate(self, circuit: QuantumCircuit) -> None:
        if circuit.num_qubits > self.device.num_qubits:
            raise DeviceError(
                f"circuit needs {circuit.num_qubits} qubits but {self.device.name!r} "
                f"has only {self.device.num_qubits}"
            )

    def __repr__(self) -> str:
        return f"NoisyBackend(device={self.device.name!r}, noisy={self.is_noisy()})"
