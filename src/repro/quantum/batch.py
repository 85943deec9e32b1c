"""Batched circuit execution: structure keys, compiled propagators, results.

The per-shot and per-instruction loops of :mod:`repro.quantum.simulator` are
exact but slow on the paper's workloads, which re-run *structurally similar*
circuits thousands of times (the Fig. 3 sweep alone executes sixty circuits
whose bulk is an identical η-long identity-gate chain).  This module provides
the machinery that makes those workloads cheap:

* :func:`circuit_structure_key` — a hashable fingerprint of a circuit's
  instruction sequence, used to key compilation caches;
* :class:`CompiledUnitary` / :class:`CompiledChannel` — a circuit folded into
  a single matrix (the composed unitary for pure-state simulation, the
  composed superoperator — including per-gate Kraus noise — for mixed-state
  simulation).  Runs of repeated instructions are collapsed with
  ``np.linalg.matrix_power``, so an η-identity-gate channel costs
  ``O(log η)`` small matrix products instead of ``O(η)`` channel
  applications;
* :class:`PropagatorCache` — a bounded cache of compiled propagators keyed by
  circuit structure, shared by every run a simulator performs;
* :class:`BatchResult` — the aggregate returned by the simulators'
  ``run_batch`` methods: one :class:`~repro.quantum.simulator.SimulationResult`
  per submitted circuit, each sampled with a single multinomial draw.

Superoperators use the **row-stacking** convention: ``vec(rho)`` is
``rho.reshape(-1)`` and a map ``rho -> A rho B`` becomes
``(A ⊗ B^T) vec(rho)``, so a unitary contributes ``U ⊗ conj(U)`` and a Kraus
set contributes ``sum_k K_k ⊗ conj(K_k)``.

See ``docs/performance.md`` for the performance model and the guarantees the
compiled path makes relative to the sequential reference implementation.
"""

from __future__ import annotations

import operator
import threading
from collections import OrderedDict
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import SimulationError
from repro.quantum.circuit import Instruction, QuantumCircuit
from repro.quantum.operators import embed_operator, embed_operators

__all__ = [
    "BatchResult",
    "CompiledChannel",
    "CompiledUnitary",
    "PropagatorCache",
    "RESET_KRAUS",
    "check_shots",
    "circuit_measure_map",
    "circuit_structure_key",
    "instruction_signature",
    "measurements_are_terminal",
    "superoperator_of_kraus",
    "superoperator_of_unitary",
]

#: Largest register (in qubits) for which the density path builds full
#: superoperators.  A compiled superoperator is ``4**n x 4**n``; beyond this
#: size composing it costs more than the sequential reference path saves.
MAX_SUPEROP_QUBITS = 4

#: Largest register for which the statevector path folds the circuit into a
#: single ``2**n x 2**n`` unitary.
MAX_UNITARY_QUBITS = 10

RESET_KRAUS = (
    np.array([[1, 0], [0, 0]], dtype=complex),
    np.array([[0, 1], [0, 0]], dtype=complex),
)


def check_shots(shots) -> int:
    """Validate a per-circuit shot count and return it as an ``int``.

    Accepts any integer type (``operator.index``: ``int``, ``np.int64`` …)
    and rejects negatives, fractions, NaN and strings with
    :class:`~repro.exceptions.SimulationError` — so counts always sum to the
    recorded ``shots``.
    """
    try:
        value = operator.index(shots)
    except TypeError:
        raise SimulationError(
            f"shots must be a non-negative integer, got {shots!r}"
        ) from None
    if value < 0:
        raise SimulationError(f"shots must be non-negative, got {value}")
    return value


# -- structure keys -------------------------------------------------------------------
def instruction_signature(instruction: Instruction) -> tuple:
    """Hashable fingerprint of one instruction.

    Two instructions with equal signatures act identically on the state: gate
    signatures include the gate name, parameters, the acted-on qubits and the
    raw matrix bytes (so anonymous ``unitary`` gates with equal labels but
    different matrices never collide).
    """
    if instruction.kind == "gate" and instruction.gate is not None:
        gate = instruction.gate
        return (
            "gate",
            gate.name,
            gate.params,
            instruction.qubits,
            gate.matrix.tobytes(),
        )
    return (instruction.kind, instruction.qubits, instruction.clbits)


def circuit_structure_key(circuit: QuantumCircuit) -> tuple:
    """Hashable fingerprint of a circuit's full instruction sequence.

    Circuits with equal keys produce identical propagators, so the key indexes
    the compilation caches.  Barriers are skipped (they never affect the
    simulated state).
    """
    return (
        circuit.num_qubits,
        circuit.num_clbits,
        tuple(
            (instruction_signature(instruction), instruction.repetitions)
            for instruction in circuit.instructions
            if instruction.kind != "barrier"
        ),
    )


def measurements_are_terminal(circuit: QuantumCircuit) -> bool:
    """True if no gate or reset acts on a qubit after it has been measured.

    Compiled propagators collapse the circuit into one map applied before a
    single sampling step, which is only equivalent to sequential execution
    when every measurement is terminal.
    """
    measured: set[int] = set()
    for instruction in circuit.instructions:
        if instruction.kind == "measure":
            measured.update(instruction.qubits)
        elif instruction.kind in ("gate", "reset"):
            if measured.intersection(instruction.qubits):
                return False
    return True


def circuit_measure_map(circuit: QuantumCircuit) -> dict[int, int]:
    """The ``qubit -> clbit`` map of a circuit's measurements (last one wins)."""
    return {
        qubit: clbit
        for instruction in circuit.instructions
        if instruction.kind == "measure"
        for qubit, clbit in zip(instruction.qubits, instruction.clbits)
    }


# -- superoperator algebra -------------------------------------------------------------
def superoperator_of_unitary(matrix: np.ndarray) -> np.ndarray:
    """Row-stacking superoperator of a unitary: ``U ⊗ conj(U)``."""
    matrix = np.asarray(matrix, dtype=complex)
    return np.kron(matrix, matrix.conj())


def superoperator_of_kraus(kraus_operators: Sequence[np.ndarray]) -> np.ndarray:
    """Row-stacking superoperator of a Kraus set: ``sum_k K_k ⊗ conj(K_k)``.

    *kraus_operators* is a sequence of matrices or a ``(k, d, d)`` stack.
    """
    if len(kraus_operators) == 0:
        raise SimulationError("a channel needs at least one Kraus operator")
    total: np.ndarray | None = None
    for kraus in kraus_operators:
        kraus = np.asarray(kraus, dtype=complex)
        term = np.kron(kraus, kraus.conj())
        total = term if total is None else total + term
    return total


# -- compiled propagators -------------------------------------------------------------------
@dataclass(frozen=True)
class CompiledUnitary:
    """A measurement-stripped circuit folded into one unitary matrix.

    Attributes
    ----------
    matrix:
        The composed ``2**n x 2**n`` circuit unitary.
    measure_map:
        Mapping ``qubit -> clbit`` collected from the (terminal) measurement
        instructions; empty for measurement-free circuits.
    num_qubits, num_clbits:
        Register sizes of the source circuit.
    """

    matrix: np.ndarray
    measure_map: dict[int, int]
    num_qubits: int
    num_clbits: int


@dataclass(frozen=True)
class CompiledChannel:
    """A circuit (gates + attached noise + resets) folded into one superoperator.

    Attributes
    ----------
    superoperator:
        The composed ``4**n x 4**n`` row-stacking superoperator, including
        every noise-model error attached to the circuit's gates.
    measure_map:
        Mapping ``qubit -> clbit`` from the (terminal) measurements.
    num_qubits, num_clbits:
        Register sizes of the source circuit.
    """

    superoperator: np.ndarray
    measure_map: dict[int, int]
    num_qubits: int
    num_clbits: int

    def propagate(self, density: np.ndarray) -> np.ndarray:
        """Apply the compiled map to a density matrix (returns a new matrix)."""
        vec = np.asarray(density, dtype=complex).reshape(-1)
        dim = density.shape[0]
        return (self.superoperator @ vec).reshape(dim, dim)


class PropagatorCache:
    """A bounded LRU cache of compiled propagators keyed by circuit structure.

    One cache instance is owned by each simulator, so repeated runs of
    structurally identical circuits (protocol sessions, sweep points sharing a
    channel chain) compile exactly once.  Step propagators (one per distinct
    instruction signature and register size) and run-length powers are cached
    separately from whole circuits, so circuits that merely *share segments* —
    e.g. the four Fig. 2 message circuits, which differ only in Alice's
    encoding Pauli — still reuse each other's work.

    Parameters
    ----------
    max_entries:
        Cap on the number of whole-circuit entries.  Step and power entries
        are LRU-bounded at four times this cap (a power entry exists per
        distinct repeated-run length, e.g. one per swept η).
    max_bytes:
        Cap on the approximate total matrix bytes held across all three
        stores.  Entry counts alone would admit multi-GB caches at the large
        end of the register limits (a 10-qubit compiled unitary is 16 MB),
        so eviction also triggers on byte pressure, least recently used
        first.

    Thread safety: all accessors take an internal re-entrant lock, so one
    cache may be shared by concurrent sessions (threaded sweeps, the
    delivery runtime's worker pool).  Builds on a miss run *outside* the
    lock — two threads missing the same key may both compile, but the
    compilation is deterministic and last-write-wins, so the race costs
    duplicate work, never wrong results.
    """

    def __init__(self, max_entries: int = 256, max_bytes: int = 256 * 2**20):
        if max_entries < 1:
            raise SimulationError("the propagator cache needs at least one slot")
        if max_bytes < 1:
            raise SimulationError("the propagator cache needs a positive byte budget")
        self.max_entries = int(max_entries)
        self.max_bytes = int(max_bytes)
        self._circuits: OrderedDict[tuple, object] = OrderedDict()
        self._steps: OrderedDict[tuple, np.ndarray] = OrderedDict()
        self._powers: OrderedDict[tuple, np.ndarray] = OrderedDict()
        self._bytes = 0
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        # Telemetry reads these counters at snapshot time (never per access),
        # so registration is the cache's only telemetry cost.
        from repro.telemetry.runtime import register_propagator_cache

        register_propagator_cache(self)

    @property
    def bytes_in_use(self) -> int:
        """Approximate matrix bytes currently held across all three stores."""
        return self._bytes

    @staticmethod
    def _entry_bytes(entry) -> int:
        """Approximate resident size of a cached matrix or compiled circuit."""
        matrix = getattr(entry, "matrix", None)
        if matrix is None:
            matrix = getattr(entry, "superoperator", None)
        if matrix is None:
            matrix = entry
        return int(getattr(matrix, "nbytes", 0))

    def _evict_for_bytes(self) -> None:
        """Drop least-recently-used entries until under the byte budget.

        Stores are drained cheapest-to-rebuild first — run-length powers,
        then step propagators, then whole circuits — since a power or step
        is one ``matrix_power``/embedding away while a whole circuit costs a
        full recompile.
        """
        while self._bytes > self.max_bytes:
            for store in (self._powers, self._steps, self._circuits):
                if store:
                    _, evicted = store.popitem(last=False)
                    self._bytes -= self._entry_bytes(evicted)
                    self.evictions += 1
                    break
            else:
                break

    # -- whole-circuit entries ---------------------------------------------------------
    def get(self, key: tuple):
        """Return the compiled propagator for *key*, or ``None`` on a miss."""
        with self._lock:
            entry = self._circuits.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._circuits.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: tuple, compiled) -> None:
        """Insert a compiled propagator, evicting the least recently used entry."""
        with self._lock:
            if key not in self._circuits:
                self._bytes += self._entry_bytes(compiled)
            self._circuits[key] = compiled
            self._circuits.move_to_end(key)
            while len(self._circuits) > self.max_entries:
                _, evicted = self._circuits.popitem(last=False)
                self._bytes -= self._entry_bytes(evicted)
                self.evictions += 1
            self._evict_for_bytes()

    # -- step and run-length entries -----------------------------------------------------
    def step(self, key: tuple, build) -> np.ndarray:
        """Return the cached step propagator for *key*, building on miss.

        *key* must uniquely determine the built matrix: the compiler keys on
        (scope, register size, instruction signature), since the same
        signature embedded into different register sizes — or compiled under
        different noise models — yields different matrices.
        """
        with self._lock:
            matrix = self._steps.get(key)
            if matrix is not None:
                self._steps.move_to_end(key)
                return matrix
        built = build()  # outside the lock: deterministic, so a duplicate
        with self._lock:  # build under a race is wasted work, not corruption
            matrix = self._steps.get(key)
            if matrix is not None:
                self._steps.move_to_end(key)
                return matrix
            self._steps[key] = built
            self._bytes += self._entry_bytes(built)
            while len(self._steps) > 4 * self.max_entries:
                _, evicted = self._steps.popitem(last=False)
                self._bytes -= self._entry_bytes(evicted)
                self.evictions += 1
            self._evict_for_bytes()
        return built

    def power(self, key: tuple, count: int, matrix: np.ndarray) -> np.ndarray:
        """Return ``matrix ** count`` for a repeated instruction run, cached.

        Run-length compression is what makes η-identity-gate chains cheap:
        ``matrix_power`` evaluates the product with ``O(log count)``
        multiplications, and the result is reused by every circuit sharing
        the same step key and run length.
        """
        if count == 1:
            return matrix
        power_key = (key, count)
        with self._lock:
            result = self._powers.get(power_key)
            if result is not None:
                self._powers.move_to_end(power_key)
                return result
        built = np.linalg.matrix_power(matrix, count)
        with self._lock:
            result = self._powers.get(power_key)
            if result is not None:
                self._powers.move_to_end(power_key)
                return result
            self._powers[power_key] = built
            self._bytes += self._entry_bytes(built)
            while len(self._powers) > 4 * self.max_entries:
                _, evicted = self._powers.popitem(last=False)
                self._bytes -= self._entry_bytes(evicted)
                self.evictions += 1
            self._evict_for_bytes()
        return built

    def clear(self) -> None:
        """Drop every cached entry (used when a noise model is swapped out)."""
        with self._lock:
            self._circuits.clear()
            self._steps.clear()
            self._powers.clear()
            self._bytes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._circuits)


def _run_length_segments(
    instructions: Sequence[Instruction],
) -> Iterator[tuple[Instruction, tuple, int]]:
    """Group consecutive instructions with equal signatures into (head, sig, count).

    An instruction's own ``repetitions`` field contributes to the count, so a
    run-length-encoded η-identity chain and η separate ``id`` instructions
    collapse to the same segment.
    """
    pending: Instruction | None = None
    pending_sig: tuple | None = None
    count = 0
    for instruction in instructions:
        sig = instruction_signature(instruction)
        if pending is not None and sig == pending_sig:
            count += instruction.repetitions
            continue
        if pending is not None:
            yield pending, pending_sig, count
        pending, pending_sig, count = instruction, sig, instruction.repetitions
    if pending is not None:
        yield pending, pending_sig, count


def _compile(
    circuit: QuantumCircuit,
    cache: PropagatorCache | None,
    scope: tuple,
    step_builder,
    identity_dim: int,
    wrap,
):
    """Shared compilation loop for both propagator flavors.

    *scope* namespaces every cache key (whole-circuit, step and power), so a
    shared :class:`PropagatorCache` never confuses unitary entries with
    superoperator entries, or superoperators compiled under different noise
    models.  *step_builder* maps one non-measure instruction to its
    full-register step matrix; *wrap* packages ``(matrix, measure_map)`` into
    the caller's compiled dataclass.
    """
    if not measurements_are_terminal(circuit):
        raise SimulationError(
            "compiled propagators require terminal measurements; "
            f"circuit {circuit.name!r} operates on a qubit after measuring it"
        )
    key = (scope, circuit_structure_key(circuit))
    if cache is not None:
        compiled = cache.get(key)
        if compiled is not None:
            return compiled

    n = circuit.num_qubits
    matrix = np.eye(identity_dim, dtype=complex)
    active = [
        instruction
        for instruction in circuit.instructions
        if instruction.kind != "barrier"
    ]
    for instruction, signature, count in _run_length_segments(active):
        if instruction.kind == "measure":  # skipped, but it still ends a run
            continue
        step_key = (scope, n, signature)
        step = (
            cache.step(step_key, lambda i=instruction: step_builder(i))
            if cache is not None
            else step_builder(instruction)
        )
        if count > 1:
            step = (
                cache.power(step_key, count, step)
                if cache is not None
                else np.linalg.matrix_power(step, count)
            )
        matrix = step @ matrix

    compiled = wrap(matrix, circuit_measure_map(circuit))
    if cache is not None:
        cache.put(key, compiled)
    return compiled


def _noise_token(noise_model) -> tuple | None:
    """Cache-key token identifying a noise model instance *and* its contents.

    ``NoiseModel.cache_token`` is process-unique (never reused, unlike
    ``id()``), and the ``version`` counter (bumped by every ``add_*`` call)
    makes in-place mutation invalidate previously compiled superoperators.
    Returns ``None`` for foreign noise-model objects that merely duck-type
    ``errors_for`` — callers must then bypass caching, since no token can
    prove such a model unchanged.
    """
    if noise_model is None:
        return None
    token = getattr(noise_model, "cache_token", None)
    if token is None or not hasattr(noise_model, "version"):
        return None
    return (token, noise_model.version)


def compile_unitary(
    circuit: QuantumCircuit, cache: PropagatorCache | None = None
) -> CompiledUnitary:
    """Fold a terminal-measurement, reset-free circuit into one unitary.

    Raises :class:`SimulationError` if the circuit contains resets or
    non-terminal measurements (callers gate on those before compiling).
    """
    num_qubits = circuit.num_qubits

    def build_step(instruction: Instruction) -> np.ndarray:
        if instruction.kind != "gate" or instruction.gate is None:
            raise SimulationError(
                f"cannot compile instruction {instruction.kind!r} into a unitary"
            )
        return embed_operator(
            instruction.gate.matrix, list(instruction.qubits), num_qubits
        )

    return _compile(
        circuit,
        cache,
        scope=("unitary",),
        step_builder=build_step,
        identity_dim=2**num_qubits,
        wrap=lambda matrix, measure_map: CompiledUnitary(
            matrix=matrix,
            measure_map=measure_map,
            num_qubits=num_qubits,
            num_clbits=circuit.num_clbits,
        ),
    )


def compile_channel(
    circuit: QuantumCircuit,
    noise_model=None,
    cache: PropagatorCache | None = None,
) -> CompiledChannel:
    """Fold a terminal-measurement circuit (gates + noise + resets) into one superoperator.

    Every :class:`~repro.quantum.noise_model.QuantumError` the noise model
    attaches to a gate is composed into that gate's step superoperator, so the
    compiled map is exactly the channel the per-gate reference evolution
    (``DensityMatrixSimulator._evolve_per_gate``) applies step by step.
    """
    num_qubits = circuit.num_qubits
    if noise_model is None:
        scope = ("channel", None)
    else:
        token = _noise_token(noise_model)
        if token is None:
            # A foreign noise object offers no mutation-proof identity, so a
            # cached propagator could silently go stale; compile fresh.
            cache = None
            scope = ("channel", "uncacheable")
        else:
            scope = ("channel", token)
    return _compile(
        circuit,
        cache,
        scope=scope,
        step_builder=lambda instruction: _step_superoperator(
            instruction, num_qubits, noise_model
        ),
        identity_dim=4**num_qubits,
        wrap=lambda matrix, measure_map: CompiledChannel(
            superoperator=matrix,
            measure_map=measure_map,
            num_qubits=num_qubits,
            num_clbits=circuit.num_clbits,
        ),
    )


def _step_superoperator(
    instruction: Instruction, num_qubits: int, noise_model
) -> np.ndarray:
    """Full-register superoperator of one instruction plus its attached noise."""
    if instruction.kind == "reset":
        return superoperator_of_kraus(
            embed_operators(RESET_KRAUS, instruction.qubits, num_qubits)
        )
    if instruction.kind != "gate" or instruction.gate is None:
        raise SimulationError(
            f"cannot compile instruction {instruction.kind!r} into a superoperator"
        )
    step = superoperator_of_unitary(
        embed_operator(instruction.gate.matrix, list(instruction.qubits), num_qubits)
    )
    if noise_model is None:
        return step
    for error in noise_model.errors_for(instruction.name, instruction.qubits):
        step = _error_superoperator(error, instruction.qubits, num_qubits) @ step
    return step


def _error_superoperator(
    error, qubits: Sequence[int], num_qubits: int
) -> np.ndarray:
    """Superoperator of a noise-model error, matching the sequential semantics.

    A k-qubit error on a k-qubit instruction applies once on the
    instruction's qubits; a 1-qubit error on a multi-qubit instruction applies
    independently to each qubit (the same broadcast the sequential
    ``DensityMatrixSimulator._apply_error`` performs).
    """
    if error.num_qubits == len(qubits):
        return superoperator_of_kraus(error.channel.embedded(tuple(qubits), num_qubits))
    if error.num_qubits == 1:
        total = np.eye(4**num_qubits, dtype=complex)
        for qubit in qubits:
            embedded = error.channel.embedded((qubit,), num_qubits)
            total = superoperator_of_kraus(embedded) @ total
        return total
    raise SimulationError(
        f"error on {error.num_qubits} qubits cannot be applied to a "
        f"{len(qubits)}-qubit instruction"
    )


# -- batch results -------------------------------------------------------------------------
@dataclass
class BatchResult:
    """Aggregate result of executing a sequence of circuits in one call.

    Attributes
    ----------
    results:
        One :class:`~repro.quantum.simulator.SimulationResult` per submitted
        circuit, in submission order.
    shots:
        Shots sampled per circuit.
    metadata:
        Batch-level extras (method, cache statistics).
    """

    results: list = field(default_factory=list)
    shots: int = 0
    metadata: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.results)

    def __iter__(self):
        return iter(self.results)

    def __getitem__(self, index: int):
        return self.results[index]

    @property
    def counts(self) -> list[dict[str, int]]:
        """The counts histogram of every circuit, in submission order."""
        return [result.counts for result in self.results]

    def probabilities(self) -> list[dict[str, float]]:
        """Normalised count frequencies of every circuit, in submission order."""
        return [result.probabilities() for result in self.results]
