"""Circuit simulators: ideal statevector and noise-aware density matrix.

:class:`StatevectorSimulator` executes measurement-bearing circuits exactly
and samples shot counts from the final distribution; it is the "ideal
simulation" reference the paper compares hardware results against.

:class:`DensityMatrixSimulator` additionally applies a
:class:`~repro.quantum.noise_model.NoiseModel` — per-gate Kraus channels and
readout assignment errors — which is how the repository reproduces the
``ibm_brisbane`` executions of the paper's evaluation section without access
to the hardware.

In both simulators ``run`` is the one-circuit case of ``run_batch``.
:class:`DensityMatrixSimulator` folds each circuit into a cached,
run-length-compressed superoperator (see :mod:`repro.quantum.batch`) and
samples its counts with one multinomial draw.  A private per-gate evolution
serves registers wider than :data:`~repro.quantum.batch.MAX_SUPEROP_QUBITS`
and is the independent reference ``tests/quantum/test_batch.py`` holds the
compiled path to.  :class:`StatevectorSimulator` routes per circuit: a
cached compiled unitary for terminal, reset-free circuits of at most
:data:`~repro.quantum.batch.MAX_UNITARY_QUBITS` qubits, gate-by-gate
evolution for wider ones, and per-shot execution under mid-circuit
measurement or reset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from repro.exceptions import SimulationError
from repro.quantum.batch import (
    BatchResult,
    MAX_SUPEROP_QUBITS,
    MAX_UNITARY_QUBITS,
    PropagatorCache,
    RESET_KRAUS,
    check_shots,
    circuit_measure_map,
    compile_channel,
    compile_unitary,
    measurements_are_terminal,
)
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.density import DensityMatrix
from repro.quantum.noise_model import NoiseModel
from repro.quantum.operators import Operator
from repro.quantum.states import Statevector
from repro.telemetry import runtime as telemetry
from repro.utils.rng import as_rng

__all__ = [
    "BatchResult",
    "SimulationResult",
    "StatevectorSimulator",
    "DensityMatrixSimulator",
    "renormalize_readout_probabilities",
]


def renormalize_readout_probabilities(probabilities: np.ndarray) -> np.ndarray:
    """Clip and renormalize a readout-folded outcome distribution.

    Confusion-matrix folding (:meth:`NoiseModel.apply_readout_errors`) can
    leave tiny negative entries from floating-point cancellation; every
    backend that samples from a folded distribution must repair it the same
    way — clip to zero, then divide by the sum — or fixed-seed multinomial
    draws diverge between backends.  This helper is that single byte-exact
    sequence, shared by the dense and stabilizer samplers (parity asserted
    by the cross-backend conformance suite).
    """
    probabilities = np.clip(probabilities, 0.0, None)
    total = probabilities.sum()
    if total <= 0.0:
        raise SimulationError(
            "readout-error folding produced an empty distribution; "
            "check the confusion matrix for invalid entries"
        )
    return probabilities / total


@dataclass
class SimulationResult:
    """Outcome of running a circuit on a simulator.

    Attributes
    ----------
    counts:
        Histogram of classical-register values, keyed by big-endian bitstring
        over the circuit's classical bits (clbit 0 is the leftmost character).
        Empty when the circuit has no measurements.
    shots:
        Number of sampled shots.
    statevector:
        Final pure state (statevector simulator, measurement-free circuits).
    density_matrix:
        Final mixed state (density-matrix simulator).
    metadata:
        Simulator-specific extras (e.g. whether noise was applied).
    """

    counts: dict[str, int]
    shots: int
    statevector: Statevector | None = None
    density_matrix: DensityMatrix | None = None
    metadata: dict = field(default_factory=dict)

    def probabilities(self) -> dict[str, float]:
        """Counts normalised to relative frequencies."""
        total = sum(self.counts.values())
        if total == 0:
            return {}
        return {key: value / total for key, value in self.counts.items()}

    def most_frequent(self) -> str:
        """The most frequently observed classical outcome.

        Ties are broken deterministically towards the lexicographically
        smallest bitstring, independent of dict insertion order — so the
        answer is stable across simulator backends, Python versions and
        platforms (asserted by ``tests/quantum/test_simulation_result.py``).
        """
        if not self.counts:
            raise SimulationError("result contains no counts")
        return min(self.counts.items(), key=lambda item: (-item[1], item[0]))[0]


def _format_clbits(values: dict[int, int], num_clbits: int) -> str:
    """Render a clbit->value mapping as a big-endian bitstring over all clbits."""
    bits = ["0"] * num_clbits
    for clbit, value in values.items():
        bits[clbit] = "1" if value else "0"
    return "".join(bits)


class StatevectorSimulator:
    """Exact, noise-free circuit execution on statevectors.

    Parameters
    ----------
    seed:
        Optional seed (or :class:`numpy.random.Generator`) used for all
        measurement sampling performed by this simulator instance.
    cache:
        Optional externally owned :class:`~repro.quantum.batch.PropagatorCache`
        shared with other simulators (serial execution only).
    """

    def __init__(self, seed=None, cache: PropagatorCache | None = None):
        self._rng = as_rng(seed)
        self._cache = cache if cache is not None else PropagatorCache()

    # -- public API -------------------------------------------------------------
    def run(
        self,
        circuit: QuantumCircuit,
        shots: int = 1024,
        initial_state: Statevector | None = None,
        rng=None,
    ) -> SimulationResult:
        """Execute *circuit* and sample *shots* measurement outcomes.

        The one-circuit case of :meth:`run_batch`.  Circuits whose
        measurements are all terminal (no gate touches a measured qubit
        afterwards) are simulated once and sampled with one multinomial
        draw; circuits with mid-circuit measurement or reset run per shot.
        """
        return self.run_batch(
            [circuit], shots=shots, initial_state=initial_state, rng=rng
        )[0]

    def run_batch(
        self,
        circuits: Sequence[QuantumCircuit],
        shots: int = 1024,
        initial_state: Statevector | None = None,
        rng=None,
    ) -> BatchResult:
        """Execute a sequence of circuits, routing each to its cheapest exact path.

        A terminal-measurement, reset-free circuit of at most
        :data:`~repro.quantum.batch.MAX_UNITARY_QUBITS` qubits is folded into
        a single cached unitary; a wider one evolves gate by gate.  Either
        way its counts are one multinomial draw.  Circuits with mid-circuit
        measurement or reset run per shot.

        Parameters
        ----------
        circuits:
            The circuits to execute, in order.
        shots:
            Shots sampled per circuit.
        initial_state:
            Optional common initial state (defaults to ``|0...0>``).
        rng:
            Seed or generator for all sampling in this batch; defaults to the
            simulator's own generator.

        Returns
        -------
        BatchResult
            One :class:`SimulationResult` per circuit, in submission order.
        """
        shots = check_shots(shots)
        generator = as_rng(rng) if rng is not None else self._rng
        hits_before, misses_before = self._cache.hits, self._cache.misses
        mark = telemetry.clock_mark()
        results = []
        for circuit in circuits:
            state = self._initial_state(circuit, initial_state)
            if self._has_nonunitary(circuit) or not measurements_are_terminal(circuit):
                results.append(self._run_per_shot(circuit, state, shots, generator))
                continue
            if circuit.num_qubits <= MAX_UNITARY_QUBITS:
                compiled = compile_unitary(circuit, self._cache)
                final = Statevector(compiled.matrix @ state.vector)
                measure_map = compiled.measure_map
            else:
                final = self._apply_gates(circuit, state)
                measure_map = circuit_measure_map(circuit)
            results.append(
                self._sample_terminal(
                    final, measure_map, circuit.num_clbits, shots, generator
                )
            )
        telemetry.record_span(
            "sim.run_batch",
            "sim",
            start=mark,
            attributes={
                "method": "statevector_batch",
                "circuits": len(results),
                "cache_hits": self._cache.hits - hits_before,
                "cache_misses": self._cache.misses - misses_before,
            },
        )
        return BatchResult(
            results=results,
            shots=shots,
            metadata={
                "method": "statevector_batch",
                "cache_hits": self._cache.hits - hits_before,
                "cache_misses": self._cache.misses - misses_before,
            },
        )

    def final_statevector(
        self, circuit: QuantumCircuit, initial_state: Statevector | None = None
    ) -> Statevector:
        """Final statevector of a measurement-free circuit."""
        if circuit.has_measurements() or self._has_nonunitary(circuit):
            raise SimulationError(
                "final_statevector requires a measurement- and reset-free circuit"
            )
        return self._apply_gates(circuit, self._initial_state(circuit, initial_state))

    # -- internals -------------------------------------------------------------------
    @staticmethod
    def _initial_state(
        circuit: QuantumCircuit, initial_state: Statevector | None
    ) -> Statevector:
        if initial_state is None:
            return Statevector.zero_state(circuit.num_qubits)
        state = Statevector(initial_state)
        if state.num_qubits != circuit.num_qubits:
            raise SimulationError(
                f"initial state has {state.num_qubits} qubits, circuit has "
                f"{circuit.num_qubits}"
            )
        return state

    @staticmethod
    def _has_nonunitary(circuit: QuantumCircuit) -> bool:
        return any(instruction.kind == "reset" for instruction in circuit.instructions)

    @staticmethod
    def _apply_gates(circuit: QuantumCircuit, state: Statevector) -> Statevector:
        for instruction in circuit.instructions:
            if instruction.kind == "gate" and instruction.gate is not None:
                operator = Operator(instruction.gate.matrix)
                for _ in range(instruction.repetitions):
                    state = state.apply_operator(operator, instruction.qubits)
            elif instruction.kind in ("barrier", "measure"):
                continue
            else:
                raise SimulationError(
                    f"unexpected instruction {instruction.kind!r} in unitary-only path"
                )
        return state

    @staticmethod
    def _sample_terminal(
        final: Statevector,
        measure_map: dict[int, int],
        num_clbits: int,
        shots: int,
        generator: np.random.Generator,
    ) -> SimulationResult:
        """Sample counts from a final state under a terminal measurement map."""
        if not measure_map:
            return SimulationResult(counts={}, shots=0, statevector=final)
        measured_qubits = sorted(measure_map)
        qubit_counts = final.sample_counts(shots, qubits=measured_qubits, rng=generator)
        counts: dict[str, int] = {}
        for outcome, count in qubit_counts.items():
            values = {
                measure_map[qubit]: int(bit)
                for qubit, bit in zip(measured_qubits, outcome)
            }
            key = _format_clbits(values, num_clbits)
            counts[key] = counts.get(key, 0) + count
        return SimulationResult(
            counts=counts, shots=shots, statevector=final,
            metadata={"method": "statevector", "terminal_sampling": True},
        )

    def _run_per_shot(
        self,
        circuit: QuantumCircuit,
        state: Statevector,
        shots: int,
        generator: np.random.Generator,
    ) -> SimulationResult:
        counts: dict[str, int] = {}
        for _ in range(shots):
            current = state
            clbit_values: dict[int, int] = {}
            for instruction in circuit.instructions:
                if instruction.kind == "gate" and instruction.gate is not None:
                    operator = Operator(instruction.gate.matrix)
                    for _ in range(instruction.repetitions):
                        current = current.apply_operator(operator, instruction.qubits)
                elif instruction.kind == "measure":
                    outcome, current = current.measure(instruction.qubits, rng=generator)
                    for bit_char, clbit in zip(outcome, instruction.clbits):
                        clbit_values[clbit] = int(bit_char)
                elif instruction.kind == "reset":
                    outcome, current = current.measure(instruction.qubits, rng=generator)
                    if outcome == "1":
                        current = current.apply_pauli("X", instruction.qubits)
                elif instruction.kind == "barrier":
                    continue
            key = _format_clbits(clbit_values, circuit.num_clbits)
            counts[key] = counts.get(key, 0) + 1
        return SimulationResult(
            counts=counts, shots=shots,
            metadata={"method": "statevector", "terminal_sampling": False},
        )


class DensityMatrixSimulator:
    """Noise-aware circuit execution on density matrices.

    Parameters
    ----------
    noise_model:
        Optional :class:`~repro.quantum.noise_model.NoiseModel`; omit for an
        ideal (but still mixed-state) simulation.
    seed:
        Seed or generator for measurement sampling.
    cache:
        Optional externally owned :class:`~repro.quantum.batch.PropagatorCache`
        shared with other simulators (serial execution only; compiled
        superoperators stay correct across owners because cache keys embed
        the noise model's identity token).
    """

    def __init__(
        self,
        noise_model: NoiseModel | None = None,
        seed=None,
        cache: PropagatorCache | None = None,
    ):
        self._noise_model = noise_model
        self._rng = as_rng(seed)
        self._cache = cache if cache is not None else PropagatorCache()

    @property
    def noise_model(self) -> NoiseModel | None:
        """The noise model applied to every gate (settable)."""
        return self._noise_model

    @noise_model.setter
    def noise_model(self, noise_model: NoiseModel | None) -> None:
        # Compiled superoperators bake the noise channels in, so swapping the
        # model invalidates every cached propagator.
        if noise_model is not self._noise_model:
            self._cache.clear()
        self._noise_model = noise_model

    # -- public API --------------------------------------------------------------
    def run(
        self,
        circuit: QuantumCircuit,
        shots: int = 1024,
        initial_state: "DensityMatrix | Statevector | None" = None,
        rng=None,
    ) -> SimulationResult:
        """Execute *circuit* under the configured noise model and sample counts.

        The one-circuit case of :meth:`run_batch`.  Measurements must be
        terminal (the protocol circuits satisfy this); mid-circuit
        measurement raises :class:`SimulationError`.
        """
        return self.run_batch(
            [circuit], shots=shots, initial_state=initial_state, rng=rng
        )[0]

    def run_batch(
        self,
        circuits: Sequence[QuantumCircuit],
        shots: int = 1024,
        initial_state: "DensityMatrix | Statevector | None" = None,
        rng=None,
    ) -> BatchResult:
        """Execute a sequence of circuits through the compiled path.

        Each circuit with terminal measurements is folded into a single
        cached superoperator (gates, attached noise-model errors and resets
        included) and its counts are sampled with one multinomial draw.
        Runs of repeated instructions, such as the η identity gates of the
        paper's channel emulation, are collapsed with ``matrix_power``, so
        cost grows logarithmically rather than linearly with η.  Registers
        wider than :data:`~repro.quantum.batch.MAX_SUPEROP_QUBITS` evolve
        one instruction at a time instead.

        Parameters
        ----------
        circuits:
            The circuits to execute, in order.
        shots:
            Shots sampled per circuit.
        initial_state:
            Optional common initial state (defaults to ``|0...0>``).
        rng:
            Seed or generator for all sampling in this batch; defaults to the
            simulator's own generator.

        Returns
        -------
        BatchResult
            One :class:`SimulationResult` per circuit, in submission order.
        """
        shots = check_shots(shots)
        generator = as_rng(rng) if rng is not None else self._rng
        hits_before, misses_before = self._cache.hits, self._cache.misses
        mark = telemetry.clock_mark()
        results = []
        for circuit in circuits:
            if not measurements_are_terminal(circuit):
                raise SimulationError(
                    "DensityMatrixSimulator supports only terminal measurements"
                )
            state = self._initial_state(circuit, initial_state)
            final, measure_map = self._evolve(circuit, state)
            results.append(
                self._sample_measurements(
                    final, measure_map, circuit.num_clbits, shots, generator
                )
            )
        telemetry.record_span(
            "sim.run_batch",
            "sim",
            start=mark,
            attributes={
                "method": "density_matrix_batch",
                "circuits": len(results),
                "cache_hits": self._cache.hits - hits_before,
                "cache_misses": self._cache.misses - misses_before,
            },
        )
        return BatchResult(
            results=results,
            shots=shots,
            metadata={
                "method": "density_matrix_batch",
                "noise_model": None if self.noise_model is None else self.noise_model.name,
                "cache_hits": self._cache.hits - hits_before,
                "cache_misses": self._cache.misses - misses_before,
            },
        )

    def _sample_measurements(
        self,
        state: DensityMatrix,
        measure_map: dict[int, int],
        num_clbits: int,
        shots: int,
        generator: np.random.Generator,
    ) -> SimulationResult:
        """Sample counts (readout errors included) from a final mixed state.

        Seed handling: *generator* is always the explicit
        :class:`numpy.random.Generator` resolved by the calling ``run`` /
        ``run_batch`` — the caller's ``rng`` argument when given, else the
        simulator's own seeded stream.  Exactly one ``multinomial`` draw is
        consumed per sampled circuit, so a fixed seed yields bit-identical
        counts across runs, platforms and the sequential/batched/stabilizer
        execution paths (asserted by
        ``tests/quantum/test_simulation_result.py`` and the cross-backend
        conformance suite).
        """
        if not measure_map:
            return SimulationResult(
                counts={}, shots=0, density_matrix=state,
                metadata=self._metadata(),
            )

        measured_qubits = sorted(measure_map)
        probabilities = state.probabilities(measured_qubits)
        if self.noise_model is not None and self.noise_model.has_readout_error():
            probabilities = self.noise_model.apply_readout_errors(
                probabilities, measured_qubits
            )
            probabilities = renormalize_readout_probabilities(probabilities)

        samples = generator.multinomial(shots, probabilities)
        counts: dict[str, int] = {}
        width = len(measured_qubits)
        for index, count in enumerate(samples):
            if count == 0:
                continue
            outcome = format(index, f"0{width}b")
            values = {
                measure_map[qubit]: int(bit)
                for qubit, bit in zip(measured_qubits, outcome)
            }
            key = _format_clbits(values, num_clbits)
            counts[key] = counts.get(key, 0) + int(count)
        return SimulationResult(
            counts=counts, shots=shots, density_matrix=state, metadata=self._metadata(),
        )

    def final_density_matrix(
        self,
        circuit: QuantumCircuit,
        initial_state: "DensityMatrix | Statevector | None" = None,
    ) -> DensityMatrix:
        """Final mixed state of the circuit (measurements ignored)."""
        unmeasured = circuit.copy()
        unmeasured.instructions[:] = [
            instruction for instruction in circuit.instructions if instruction.kind != "measure"
        ]
        return self._evolve(unmeasured, self._initial_state(circuit, initial_state))[0]

    # -- internals -----------------------------------------------------------------
    @staticmethod
    def _initial_state(
        circuit: QuantumCircuit, initial_state: "DensityMatrix | Statevector | None"
    ) -> DensityMatrix:
        if initial_state is None:
            return DensityMatrix.zero_state(circuit.num_qubits)
        state = (
            DensityMatrix(initial_state)
            if not isinstance(initial_state, DensityMatrix)
            else initial_state
        )
        if state.num_qubits != circuit.num_qubits:
            raise SimulationError(
                f"initial state has {state.num_qubits} qubits, circuit has "
                f"{circuit.num_qubits}"
            )
        return state

    def _metadata(self) -> dict:
        return {
            "method": "density_matrix",
            "noise_model": None if self.noise_model is None else self.noise_model.name,
        }

    def _evolve(
        self, circuit: QuantumCircuit, state: DensityMatrix
    ) -> tuple[DensityMatrix, dict[int, int]]:
        """Final state and ``qubit -> clbit`` measure map of a terminal-measurement circuit."""
        if circuit.num_qubits > MAX_SUPEROP_QUBITS:
            return self._evolve_per_gate(circuit, state)
        compiled = compile_channel(circuit, self.noise_model, self._cache)
        final = DensityMatrix(compiled.propagate(state.matrix), validate=False)
        return final, compiled.measure_map

    def _evolve_per_gate(
        self, circuit: QuantumCircuit, state: DensityMatrix
    ) -> tuple[DensityMatrix, dict[int, int]]:
        """Reference evolution: every gate repetition, error and reset in turn.

        Used for registers too wide for a superoperator, and by the parity
        tests as the independent check on the compiled path.
        """
        measure_map: dict[int, int] = {}
        for instruction in circuit.instructions:
            if instruction.kind == "gate" and instruction.gate is not None:
                operator = Operator(instruction.gate.matrix)
                errors = (
                    self.noise_model.errors_for(instruction.name, instruction.qubits)
                    if self.noise_model is not None
                    else ()
                )
                for _ in range(instruction.repetitions):
                    state = state.evolve(operator, instruction.qubits)
                    for error in errors:
                        state = self._apply_error(state, error, instruction.qubits)
            elif instruction.kind == "reset":
                state = state.apply_kraus(RESET_KRAUS, [instruction.qubits[0]])
            elif instruction.kind == "measure":
                for qubit, clbit in zip(instruction.qubits, instruction.clbits):
                    measure_map[qubit] = clbit
        return state, measure_map

    @staticmethod
    def _apply_error(state: DensityMatrix, error, qubits: Sequence[int]) -> DensityMatrix:
        if error.num_qubits == len(qubits):
            return error.channel.apply(state, qubits)
        if error.num_qubits == 1:
            for qubit in qubits:
                state = error.channel.apply(state, [qubit])
            return state
        raise SimulationError(
            f"error on {error.num_qubits} qubits cannot be applied to a "
            f"{len(qubits)}-qubit instruction"
        )
