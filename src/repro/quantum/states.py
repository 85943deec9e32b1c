"""Pure-state (statevector) representation of qubit registers.

:class:`Statevector` stores the amplitudes of an n-qubit pure state as a
complex vector of length ``2**n`` and provides construction helpers, gate
application, measurement sampling, marginal probabilities, partial traces and
fidelity computations.  It is the workhorse behind the ideal (noise-free)
simulator and the analytic ground truths used in tests.

Convention: big-endian qubit order.  Qubit 0 corresponds to the most
significant bit of a basis-state index, so ``|01>`` (qubit 0 in ``|0>``,
qubit 1 in ``|1>``) is the amplitude at index 1 of a 2-qubit vector.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

import numpy as np

from repro.exceptions import DimensionError, NonPhysicalStateError
from repro.quantum.operators import Operator, PAULI_MATRICES
from repro.utils.rng import as_rng

__all__ = ["Statevector"]

_ATOL = 1e-10

#: Single-qubit kets addressable by label character.
_LABEL_KETS: dict[str, np.ndarray] = {
    "0": np.array([1, 0], dtype=complex),
    "1": np.array([0, 1], dtype=complex),
    "+": np.array([1, 1], dtype=complex) / math.sqrt(2),
    "-": np.array([1, -1], dtype=complex) / math.sqrt(2),
    "r": np.array([1, 1j], dtype=complex) / math.sqrt(2),
    "l": np.array([1, -1j], dtype=complex) / math.sqrt(2),
}


class Statevector:
    """An n-qubit pure quantum state.

    Parameters
    ----------
    data:
        Amplitude vector of length ``2**n``, another :class:`Statevector`,
        or any nested sequence convertible to such a vector.
    validate:
        If True (default), require the vector to be normalised.
    """

    __slots__ = ("_vector", "_num_qubits")

    def __init__(self, data, validate: bool = True):
        if isinstance(data, Statevector):
            vector = data._vector.copy()
        else:
            vector = np.array(data, dtype=complex).reshape(-1)
        num_qubits = int(round(math.log2(vector.shape[0]))) if vector.shape[0] else 0
        if vector.shape[0] == 0 or 2**num_qubits != vector.shape[0]:
            raise DimensionError(
                f"statevector length {vector.shape[0]} is not a power of two"
            )
        if validate and not math.isclose(
            float(np.linalg.norm(vector)), 1.0, abs_tol=1e-8
        ):
            raise NonPhysicalStateError(
                f"statevector is not normalised (norm={np.linalg.norm(vector):.6g})"
            )
        self._vector = vector
        self._num_qubits = num_qubits

    # -- constructors --------------------------------------------------------
    @classmethod
    def zero_state(cls, num_qubits: int) -> "Statevector":
        """The all-``|0>`` state on *num_qubits* qubits."""
        if num_qubits < 1:
            raise DimensionError("a statevector needs at least one qubit")
        vector = np.zeros(2**num_qubits, dtype=complex)
        vector[0] = 1.0
        return cls(vector, validate=False)

    @classmethod
    def from_label(cls, label: str) -> "Statevector":
        """Build a product state from a label such as ``"01"``, ``"+-"`` or ``"0r"``.

        Supported characters: ``0 1 + - r l`` (r/l are the ±i eigenstates of Y).
        """
        if not label:
            raise DimensionError("label must contain at least one character")
        kets = []
        for ch in label:
            if ch not in _LABEL_KETS:
                raise DimensionError(f"unknown state label character {ch!r}")
            kets.append(_LABEL_KETS[ch])
        vector = kets[0]
        for ket in kets[1:]:
            vector = np.kron(vector, ket)
        return cls(vector, validate=False)

    @classmethod
    def from_int(cls, value: int, num_qubits: int) -> "Statevector":
        """The computational-basis state ``|value>`` on *num_qubits* qubits."""
        dim = 2**num_qubits
        if not 0 <= value < dim:
            raise DimensionError(f"basis index {value} out of range for {num_qubits} qubits")
        vector = np.zeros(dim, dtype=complex)
        vector[value] = 1.0
        return cls(vector, validate=False)

    # -- accessors -------------------------------------------------------------
    @property
    def vector(self) -> np.ndarray:
        """The amplitude vector (not copied)."""
        return self._vector

    @property
    def num_qubits(self) -> int:
        """Number of qubits in the register."""
        return self._num_qubits

    @property
    def dim(self) -> int:
        """Hilbert-space dimension ``2**num_qubits``."""
        return self._vector.shape[0]

    def norm(self) -> float:
        """Euclidean norm of the amplitude vector."""
        return float(np.linalg.norm(self._vector))

    def normalized(self) -> "Statevector":
        """Return a normalised copy of the state."""
        norm = self.norm()
        if norm < _ATOL:
            raise NonPhysicalStateError("cannot normalise the zero vector")
        return Statevector(self._vector / norm, validate=False)

    # -- composition -----------------------------------------------------------
    def tensor(self, other: "Statevector") -> "Statevector":
        """Kronecker product ``self (x) other`` (self occupies the leading qubits)."""
        other = Statevector(other)
        return Statevector(np.kron(self._vector, other._vector), validate=False)

    # -- evolution ---------------------------------------------------------------
    def apply_operator(
        self, operator: "Operator | np.ndarray", qubits: Sequence[int] | None = None
    ) -> "Statevector":
        """Apply a k-qubit operator to the given qubits and return the new state.

        If *qubits* is None the operator must act on the full register.
        """
        op = operator if isinstance(operator, Operator) else Operator(operator)
        if qubits is None:
            if op.num_qubits != self._num_qubits:
                raise DimensionError(
                    f"operator acts on {op.num_qubits} qubits, state has {self._num_qubits}"
                )
            return Statevector(op.matrix @ self._vector, validate=False)

        targets = [int(q) for q in qubits]
        if len(targets) != op.num_qubits:
            raise DimensionError(
                f"operator acts on {op.num_qubits} qubits but {len(targets)} targets given"
            )
        if len(set(targets)) != len(targets):
            raise DimensionError(f"target qubits must be distinct, got {targets}")
        if any(q < 0 or q >= self._num_qubits for q in targets):
            raise DimensionError(
                f"target qubits {targets} out of range for {self._num_qubits} qubits"
            )

        k = op.num_qubits
        tensor = self._vector.reshape([2] * self._num_qubits)
        gate = op.matrix.reshape([2] * (2 * k))
        moved = np.tensordot(gate, tensor, axes=(list(range(k, 2 * k)), targets))
        moved = np.moveaxis(moved, range(k), targets)
        return Statevector(moved.reshape(-1), validate=False)

    def apply_pauli(self, label: str, qubits: Sequence[int]) -> "Statevector":
        """Apply a Pauli string such as ``"XZ"`` to the listed qubits."""
        if len(label) != len(qubits):
            raise DimensionError(
                f"Pauli string of length {len(label)} does not match {len(qubits)} qubits"
            )
        state = self
        for ch, qubit in zip(label.upper(), qubits):
            if ch not in PAULI_MATRICES:
                raise DimensionError(f"unknown Pauli label {ch!r}")
            state = state.apply_operator(PAULI_MATRICES[ch], [qubit])
        return state

    # -- probabilities and measurement ----------------------------------------
    def probabilities(self, qubits: Sequence[int] | None = None) -> np.ndarray:
        """Outcome probabilities over the listed qubits (all qubits by default).

        The returned array has length ``2**len(qubits)`` indexed by the
        big-endian outcome of the listed qubits in the listed order.
        """
        probs_full = np.abs(self._vector) ** 2
        if qubits is None:
            return probs_full
        targets = [int(q) for q in qubits]
        if len(set(targets)) != len(targets):
            raise DimensionError("qubits must be distinct")
        if any(q < 0 or q >= self._num_qubits for q in targets):
            raise DimensionError(f"qubits {targets} out of range")
        tensor = probs_full.reshape([2] * self._num_qubits)
        other = [q for q in range(self._num_qubits) if q not in targets]
        marginal = tensor.sum(axis=tuple(other)) if other else tensor
        # After summation, axis i of `marginal` corresponds to sorted(targets)[i];
        # permute axes so they follow the caller's requested qubit order.
        sorted_targets = sorted(targets)
        perm = [sorted_targets.index(q) for q in targets]
        marginal = np.transpose(marginal, axes=perm)
        return marginal.reshape(-1)

    def probability_of(self, bitstring: str, qubits: Sequence[int] | None = None) -> float:
        """Probability of observing *bitstring* on the listed qubits."""
        targets = list(range(self._num_qubits)) if qubits is None else list(qubits)
        if len(bitstring) != len(targets):
            raise DimensionError(
                f"bitstring length {len(bitstring)} does not match {len(targets)} qubits"
            )
        probs = self.probabilities(targets)
        index = int(bitstring, 2) if bitstring else 0
        return float(probs[index])

    def sample_counts(
        self, shots: int, qubits: Sequence[int] | None = None, rng=None
    ) -> dict[str, int]:
        """Sample measurement outcomes in the computational basis.

        Returns a mapping from outcome bitstring (big-endian, over the listed
        qubits) to the number of times it occurred in *shots* repetitions.
        """
        if shots < 0:
            raise ValueError(f"shots must be non-negative, got {shots}")
        targets = list(range(self._num_qubits)) if qubits is None else list(qubits)
        probs = self.probabilities(targets)
        probs = probs / probs.sum()
        generator = as_rng(rng)
        outcomes = generator.multinomial(shots, probs)
        width = len(targets)
        return {
            format(idx, f"0{width}b"): int(count)
            for idx, count in enumerate(outcomes)
            if count > 0
        }

    def measure(
        self, qubits: Sequence[int] | None = None, rng=None
    ) -> tuple[str, "Statevector"]:
        """Projectively measure the listed qubits in the computational basis.

        Returns ``(outcome_bitstring, post_measurement_state)``; the post
        measurement state keeps all qubits (measured ones collapse).
        """
        targets = list(range(self._num_qubits)) if qubits is None else [int(q) for q in qubits]
        probs = self.probabilities(targets)
        generator = as_rng(rng)
        index = int(generator.choice(len(probs), p=probs / probs.sum()))
        outcome = format(index, f"0{len(targets)}b")

        # Project onto the observed outcome.
        tensor = self._vector.reshape([2] * self._num_qubits)
        slicer: list[slice | int] = [slice(None)] * self._num_qubits
        projected = np.zeros_like(tensor)
        sub_slicer = list(slicer)
        for qubit, bit in zip(targets, outcome):
            sub_slicer[qubit] = int(bit)
        projected[tuple(sub_slicer)] = tensor[tuple(sub_slicer)]
        post = projected.reshape(-1)
        norm = np.linalg.norm(post)
        if norm < _ATOL:
            raise NonPhysicalStateError("measurement projected onto a zero-probability outcome")
        return outcome, Statevector(post / norm, validate=False)

    # -- reductions -----------------------------------------------------------
    def density_matrix(self):
        """Return the pure-state density matrix ``|psi><psi|``.

        ``v v†`` is Hermitian by construction, so only its unit trace is
        checked, which fails for a vector that is not normalised or not
        finite.  Imported lazily to avoid a circular import with
        :mod:`repro.quantum.density`.
        """
        from repro.quantum.density import DensityMatrix, require_unit_trace

        matrix = np.outer(self._vector, self._vector.conj())
        require_unit_trace(matrix)
        return DensityMatrix(matrix, validate=False)

    def partial_trace(self, keep: Sequence[int]):
        """Trace out all qubits not in *keep* and return a density matrix."""
        return self.density_matrix().partial_trace(keep)

    # -- comparisons ------------------------------------------------------------
    def overlap(self, other: "Statevector") -> complex:
        """Inner product ``<other|self>``."""
        other = Statevector(other)
        if other.dim != self.dim:
            raise DimensionError("states have different dimensions")
        return complex(np.vdot(other._vector, self._vector))

    def fidelity(self, other: "Statevector") -> float:
        """``|<other|self>|^2`` — the pure-state fidelity."""
        return float(abs(self.overlap(other)) ** 2)

    def expectation_value(
        self, operator: "Operator | np.ndarray", qubits: Sequence[int] | None = None
    ) -> complex:
        """``<psi| O |psi>`` where O may act on a subset of qubits."""
        op = operator if isinstance(operator, Operator) else Operator(operator)
        if qubits is None:
            return op.expectation(self._vector)
        applied = self.apply_operator(op, qubits)
        return complex(np.vdot(self._vector, applied._vector))

    def equiv(self, other: "Statevector", atol: float = 1e-8) -> bool:
        """Equality up to a global phase."""
        other = Statevector(other)
        if other.dim != self.dim:
            return False
        return math.isclose(self.fidelity(other), 1.0, abs_tol=atol)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Statevector):
            return NotImplemented
        return bool(np.allclose(self._vector, other._vector, atol=1e-10))

    def __hash__(self) -> int:
        return id(self)

    def __repr__(self) -> str:
        return f"Statevector(num_qubits={self.num_qubits})"
