"""Mixed-state (density matrix) representation of qubit registers.

The noisy simulations of the UA-DI-QSDC protocol (NISQ device model, the
η-identity-gate quantum channel, attack models that discard information)
require mixed states.  :class:`DensityMatrix` provides the standard algebra:
unitary evolution, Kraus-channel application, partial trace, purity, fidelity,
von Neumann entropy and computational-basis sampling.

The qubit order convention matches :class:`repro.quantum.states.Statevector`
(big-endian).

A protocol session handles hundreds of pair states that take only a handful
of distinct values.  :class:`PairTable` carries them as one id per position
into a list of distinct state objects, and :func:`map_distinct` and
:func:`state_statistic` are the one place that shares work between states;
:func:`group_by_object` groups a plain sequence.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable, Hashable, Mapping, Sequence
from typing import Any, TypeVar

import numpy as np

from repro.exceptions import DimensionError, NonPhysicalStateError, PairPositionError
from repro.quantum.operators import Operator, embedded_operator
from repro.quantum.states import Statevector
from repro.utils.memo import BoundedMemo
from repro.utils.rng import as_rng

__all__ = [
    "DensityMatrix",
    "PairTable",
    "group_by_object",
    "map_distinct",
    "state_statistic",
]

_ATOL = 1e-8

_T = TypeVar("_T")


def require_unit_trace(matrix: np.ndarray) -> None:
    """Raise :class:`~repro.exceptions.NonPhysicalStateError` unless ``Tr(matrix)`` is 1."""
    trace = complex(np.trace(matrix))
    if not math.isclose(trace.real, 1.0, abs_tol=1e-6) or abs(trace.imag) > 1e-6:
        raise NonPhysicalStateError(f"density matrix trace is {trace:.6g}, expected 1")


class DensityMatrix:
    """An n-qubit mixed quantum state.

    Parameters
    ----------
    data:
        A ``2**n x 2**n`` complex matrix, a :class:`Statevector` (converted to
        the pure-state projector) or another :class:`DensityMatrix`.
    validate:
        If True (default), require Hermiticity and unit trace.  Positivity is
        checked lazily (it is comparatively expensive) via
        :meth:`require_physical`.
    """

    __slots__ = ("_matrix", "_num_qubits")

    def __init__(self, data, validate: bool = True):
        if isinstance(data, DensityMatrix):
            matrix = data._matrix.copy()
        elif isinstance(data, Statevector):
            vec = data.vector
            matrix = np.outer(vec, vec.conj())
        else:
            matrix = np.array(data, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise DimensionError(f"density matrix must be square, got {matrix.shape}")
        num_qubits = int(round(math.log2(matrix.shape[0])))
        if 2**num_qubits != matrix.shape[0]:
            raise DimensionError(
                f"density matrix dimension {matrix.shape[0]} is not a power of two"
            )
        if validate:
            if not np.allclose(matrix, matrix.conj().T, atol=_ATOL):
                raise NonPhysicalStateError("density matrix is not Hermitian")
            require_unit_trace(matrix)
        self._matrix = matrix
        self._num_qubits = num_qubits

    # -- constructors ----------------------------------------------------------
    @classmethod
    def zero_state(cls, num_qubits: int) -> "DensityMatrix":
        """The all-``|0>`` pure state as a density matrix."""
        return cls(Statevector.zero_state(num_qubits))

    @classmethod
    def maximally_mixed(cls, num_qubits: int) -> "DensityMatrix":
        """The maximally mixed state ``I / 2**n``."""
        dim = 2**num_qubits
        return cls(np.eye(dim, dtype=complex) / dim, validate=False)

    # -- accessors ---------------------------------------------------------------
    @property
    def matrix(self) -> np.ndarray:
        """The underlying matrix (not copied)."""
        return self._matrix

    @property
    def num_qubits(self) -> int:
        """Number of qubits in the register."""
        return self._num_qubits

    @property
    def dim(self) -> int:
        """Hilbert-space dimension."""
        return self._matrix.shape[0]

    def trace(self) -> complex:
        """Matrix trace (should be 1 for physical states)."""
        return complex(np.trace(self._matrix))

    def purity(self) -> float:
        """``Tr(rho^2)``; 1 for pure states, ``1/2**n`` for maximally mixed."""
        return float(np.real(np.trace(self._matrix @ self._matrix)))

    def is_pure(self, atol: float = 1e-6) -> bool:
        """True if the state is pure within tolerance."""
        return math.isclose(self.purity(), 1.0, abs_tol=atol)

    def require_physical(self, atol: float = 1e-7) -> "DensityMatrix":
        """Raise unless the state is Hermitian, unit-trace and positive semi-definite."""
        if not np.allclose(self._matrix, self._matrix.conj().T, atol=atol):
            raise NonPhysicalStateError("density matrix is not Hermitian")
        if not math.isclose(self.trace().real, 1.0, abs_tol=1e-6):
            raise NonPhysicalStateError("density matrix trace is not 1")
        eigenvalues = np.linalg.eigvalsh(self._matrix)
        if eigenvalues.min() < -atol:
            raise NonPhysicalStateError(
                f"density matrix has negative eigenvalue {eigenvalues.min():.3g}"
            )
        return self

    def eigenvalues(self) -> np.ndarray:
        """Real eigenvalue spectrum (ascending)."""
        return np.linalg.eigvalsh(self._matrix)

    def von_neumann_entropy(self, base: float = 2.0) -> float:
        """Von Neumann entropy ``-Tr(rho log rho)`` in the given log base."""
        eigenvalues = np.clip(np.real(self.eigenvalues()), 0.0, 1.0)
        nonzero = eigenvalues[eigenvalues > 1e-12]
        return float(-(nonzero * (np.log(nonzero) / np.log(base))).sum())

    # -- composition -------------------------------------------------------------
    def tensor(self, other: "DensityMatrix") -> "DensityMatrix":
        """Kronecker product ``self (x) other``."""
        other = DensityMatrix(other)
        return DensityMatrix(np.kron(self._matrix, other._matrix), validate=False)

    # -- evolution ----------------------------------------------------------------
    def evolve(
        self, operator: "Operator | np.ndarray", qubits: Sequence[int] | None = None
    ) -> "DensityMatrix":
        """Apply a unitary ``U`` (``rho -> U rho U†``) to the given qubits."""
        op = operator if isinstance(operator, Operator) else Operator(operator)
        if qubits is None:
            if op.num_qubits != self._num_qubits:
                raise DimensionError(
                    f"operator acts on {op.num_qubits} qubits, state has {self._num_qubits}"
                )
            full = op.matrix
        else:
            full = embedded_operator(op.matrix, tuple(qubits), self._num_qubits)
        return DensityMatrix(full @ self._matrix @ full.conj().T, validate=False)

    def apply_kraus(
        self, kraus_operators: Sequence[np.ndarray], qubits: Sequence[int] | None = None
    ) -> "DensityMatrix":
        """Apply a quantum channel given by Kraus operators to the listed qubits.

        Each operator's full-register embedding comes from
        :func:`~repro.quantum.operators.embedded_operator`.
        """
        if not kraus_operators:
            raise DimensionError("at least one Kraus operator is required")
        targets = None if qubits is None else tuple(qubits)
        result = np.zeros_like(self._matrix)
        for kraus in kraus_operators:
            if targets is None:
                full = np.asarray(kraus, dtype=complex)
                if full.shape != self._matrix.shape:
                    raise DimensionError(
                        f"Kraus operator shape {full.shape} does not match state"
                    )
            else:
                full = embedded_operator(kraus, targets, self._num_qubits)
            result = result + full @ self._matrix @ full.conj().T
        return DensityMatrix(result, validate=False)

    # -- reductions -----------------------------------------------------------------
    def partial_trace(self, keep: Sequence[int]) -> "DensityMatrix":
        """Trace out every qubit not listed in *keep*.

        The returned density matrix orders its qubits as listed in *keep*.
        """
        keep_list = [int(q) for q in keep]
        if len(set(keep_list)) != len(keep_list):
            raise DimensionError("qubits to keep must be distinct")
        if any(q < 0 or q >= self._num_qubits for q in keep_list):
            raise DimensionError(f"qubits {keep_list} out of range")
        n = self._num_qubits
        traced = [q for q in range(n) if q not in keep_list]
        tensor = self._matrix.reshape([2] * (2 * n))
        # Contract each traced qubit's row index with its column index.
        for offset, qubit in enumerate(sorted(traced)):
            axis_row = qubit - offset
            axis_col = axis_row + (n - offset)
            tensor = np.trace(tensor, axis1=axis_row, axis2=axis_col)
        k = len(keep_list)
        remaining = sorted(keep_list)
        reduced = tensor.reshape(2**k, 2**k)
        if remaining == keep_list:
            return DensityMatrix(reduced, validate=False)
        # Permute the kept qubits into the caller's requested order.
        perm = [remaining.index(q) for q in keep_list]
        tensor_k = reduced.reshape([2] * (2 * k))
        tensor_k = np.transpose(tensor_k, axes=perm + [p + k for p in perm])
        return DensityMatrix(tensor_k.reshape(2**k, 2**k), validate=False)

    # -- probabilities and measurement ------------------------------------------------
    def probabilities(self, qubits: Sequence[int] | None = None) -> np.ndarray:
        """Computational-basis outcome probabilities over the listed qubits."""
        if qubits is None:
            probs = np.real(np.diag(self._matrix)).copy()
        else:
            reduced = self.partial_trace(qubits)
            probs = np.real(np.diag(reduced.matrix)).copy()
        probs = np.clip(probs, 0.0, None)
        total = probs.sum()
        if total <= 0:
            raise NonPhysicalStateError("density matrix has no positive diagonal weight")
        return probs / total

    def probability_of(self, bitstring: str, qubits: Sequence[int] | None = None) -> float:
        """Probability of observing *bitstring* on the listed qubits."""
        targets = list(range(self._num_qubits)) if qubits is None else list(qubits)
        if len(bitstring) != len(targets):
            raise DimensionError(
                f"bitstring length {len(bitstring)} does not match {len(targets)} qubits"
            )
        probs = self.probabilities(targets)
        return float(probs[int(bitstring, 2)])

    def sample_counts(
        self, shots: int, qubits: Sequence[int] | None = None, rng=None
    ) -> dict[str, int]:
        """Sample computational-basis outcomes; see :meth:`Statevector.sample_counts`."""
        if shots < 0:
            raise ValueError(f"shots must be non-negative, got {shots}")
        targets = list(range(self._num_qubits)) if qubits is None else list(qubits)
        probs = self.probabilities(targets)
        generator = as_rng(rng)
        outcomes = generator.multinomial(shots, probs)
        width = len(targets)
        return {
            format(idx, f"0{width}b"): int(count)
            for idx, count in enumerate(outcomes)
            if count > 0
        }

    def expectation_value(
        self, operator: "Operator | np.ndarray", qubits: Sequence[int] | None = None
    ) -> complex:
        """``Tr(rho O)`` where O may act on a subset of qubits."""
        op = operator if isinstance(operator, Operator) else Operator(operator)
        if qubits is None:
            full = op.matrix
        else:
            full = embedded_operator(op.matrix, tuple(qubits), self._num_qubits)
        return complex(np.trace(self._matrix @ full))

    # -- comparisons ---------------------------------------------------------------------
    def fidelity(self, other: "DensityMatrix | Statevector") -> float:
        """Uhlmann fidelity ``(Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2``.

        For a pure *other* this reduces to ``<psi|rho|psi>``.
        """
        if isinstance(other, Statevector):
            vec = other.vector
            return float(np.real(vec.conj() @ (self._matrix @ vec)))
        other = DensityMatrix(other)
        if other.dim != self.dim:
            raise DimensionError("states have different dimensions")
        # Use the eigendecomposition route for numerical stability.
        eigenvalues, eigenvectors = np.linalg.eigh(self._matrix)
        eigenvalues = np.clip(eigenvalues, 0.0, None)
        sqrt_rho = (eigenvectors * np.sqrt(eigenvalues)) @ eigenvectors.conj().T
        inner = sqrt_rho @ other._matrix @ sqrt_rho
        inner_eigenvalues = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
        return float(np.sqrt(inner_eigenvalues).sum() ** 2)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DensityMatrix):
            return NotImplemented
        return bool(np.allclose(self._matrix, other._matrix, atol=1e-10))

    def __hash__(self) -> int:
        return id(self)

    def __repr__(self) -> str:
        return f"DensityMatrix(num_qubits={self.num_qubits}, purity={self.purity():.4f})"


# -- sharing work between states of equal content -----------------------------------


def _content_key(state: "DensityMatrix | Statevector") -> tuple[type, bytes]:
    """The state's type and raw bytes.

    Without the type, a 1-qubit density matrix and a 2-qubit statevector
    (both 64 bytes) would be equal.
    """
    if isinstance(state, DensityMatrix):
        return DensityMatrix, state.matrix.tobytes()
    return type(state), state.vector.tobytes()


def group_by_object(states: Sequence[Any]) -> tuple[list[int], list[Any]]:
    """Each state's slot and the distinct objects: ``distinct[slots[i]] is states[i]``.

    Slots follow first appearance.  States never mutate and memo hits return
    one object per content, so grouping by identity needs no byte hashing.
    """
    slot_of: dict[int, int] = {}
    slots = [slot_of.setdefault(id(state), len(slot_of)) for state in states]
    distinct = list({id(state): state for state in states}.values())
    return slots, distinct


class PairTable:
    """A session's pair states: one id per position into a list of distinct states.

    The state at *position* is ``states[ids[position]]``.  A consumed
    position keeps its place with id ``-1``, so positions never shift, and
    ``len(table)`` counts the live ones; iteration yields the live states in
    position order.  A table never changes: every step returns a new one,
    which may share ``ids`` and ``states`` with its input.  An entry of
    ``states`` that no live position holds is never read.
    """

    __slots__ = ("ids", "states", "_live")

    def __init__(self, ids: np.ndarray, states: list[Any], live: int | None = None):
        self.ids = ids
        self.states = states
        self._live = int(np.count_nonzero(ids >= 0)) if live is None else live

    @classmethod
    def of(cls, pairs: "PairTable | Mapping[int, Any] | Sequence[Any]") -> "PairTable":
        """*pairs* as a table: a table itself, a mapping ``position -> state``,
        or a sequence (positions 0, 1, …), grouped by object once."""
        if isinstance(pairs, PairTable):
            return pairs
        if isinstance(pairs, Mapping):
            positions = list(pairs)
            if not all(
                isinstance(position, numbers.Integral) and position >= 0
                for position in positions
            ):
                raise PairPositionError("pair positions must be non-negative integers")
            slots, states = group_by_object(list(pairs.values()))
            ids = np.full(max(positions, default=-1) + 1, -1, dtype=np.intp)
            ids[positions] = slots
            return cls(ids, states, len(positions))
        slots, states = group_by_object(pairs)
        return cls(np.array(slots, dtype=np.intp), states, len(slots))

    def __len__(self) -> int:
        return self._live

    def __iter__(self):
        states = self.states
        return (states[slot] for slot in self.ids.tolist() if slot >= 0)

    def __getitem__(self, position: int) -> Any:
        return self.states[self._index((position,))[1][0]]

    # -- positions ---------------------------------------------------------------
    def _index(self, positions: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """*positions* as an index array and the ids there, checked in one pass.

        Raises :class:`~repro.exceptions.PairPositionError` naming the first
        position that is missing or consumed.
        """
        ids = self.ids
        index = np.asarray(positions)
        if index.dtype.kind == "i" and index.ndim == 1 and index.size:
            try:
                picked = ids[index]
            except IndexError:  # a position past the end
                picked = None
            # A negative position or a consumed id (-1) sets the sign bit.
            if picked is not None and np.minimum.reduce(index | picked) >= 0:
                return index, picked
        for position in positions:
            if not (
                isinstance(position, numbers.Integral)
                and 0 <= position < len(ids)
                and ids[position] >= 0
            ):
                raise PairPositionError(f"no pair at position {position}")
        # Every position is live: an empty sequence or one of another type.
        index = np.array([int(position) for position in positions], dtype=np.intp)
        return index, ids[index]

    def take(self, positions: Sequence[int]) -> "PairTable":
        """The pairs at *positions* as a table of their own, positions 0, 1, …."""
        return PairTable(self._index(positions)[1], self.states, len(positions))

    def drop(self, positions: Sequence[int]) -> "PairTable":
        """This table with *positions* marked consumed."""
        index, _ = self._index(positions)
        ids = self.ids.copy()
        ids[index] = -1
        return PairTable(ids, self.states)

    def used(self) -> list[int]:
        """The ids some live position holds, ascending."""
        present = np.zeros(len(self.states) + 1, dtype=bool)
        present[self.ids] = True  # a consumed id, -1, marks the spare last entry
        return present[:-1].nonzero()[0].tolist()

    # -- maps ----------------------------------------------------------------------
    def map_pairs(self, fn: Callable[[int, Any], Any]) -> "PairTable":
        """``fn(position, state)`` once per live position, in position order.

        For maps that are not deterministic, such as attack hooks that draw
        per pair.  Outputs are grouped by object into the new table's states.
        """
        ids = self.ids.tolist()
        live = [position for position, slot in enumerate(ids) if slot >= 0]
        slots, outputs = group_by_object([fn(p, self.states[ids[p]]) for p in live])
        mapped = np.full(len(ids), -1, dtype=np.intp)
        mapped[live] = slots
        return PairTable(mapped, outputs, len(live))

    def map_plan(
        self,
        plan: Mapping[int, Hashable],
        map_of: Callable[[Any], "tuple[Hashable, Callable[[Any], Any]] | None"],
    ) -> "PairTable":
        """Each planned position's state through its label's map.

        ``map_of(label)`` gives the ``(tag, fn)`` of a deterministic map, or
        ``None`` to keep the states under that label.  It is called once per
        label, in order of first appearance in *plan*, after every planned
        position has been checked, and each (label, id) is mapped once
        through :func:`state_statistic`.
        """
        index, ids = self._index(list(plan))
        labels = list(dict.fromkeys(plan.values()))
        code_of = {label: code for code, label in enumerate(labels)}
        label_codes = np.fromiter(
            map(code_of.__getitem__, plan.values()), dtype=np.intp, count=len(plan)
        )
        width = len(self.states)
        keys = label_codes * width + ids
        present = np.zeros(len(labels) * width, dtype=bool)
        present[keys] = True
        # Each (label, id) key's output id: the input id, or a new state's.
        output_ids = np.empty(len(present), dtype=np.intp)
        states = list(self.states)
        mapping = None
        code = -1
        for key in present.nonzero()[0].tolist():
            if key // width != code:
                code = key // width
                mapping = map_of(labels[code])
            slot = key % width
            if mapping is not None:
                states.append(state_statistic(mapping[0], states[slot], mapping[1]))
                slot = len(states) - 1
            output_ids[key] = slot
        mapped = self.ids.copy()
        mapped[index] = output_ids[keys]
        return PairTable(mapped, states, self._live)


def map_distinct(
    tag: Hashable,
    states: "PairTable | Sequence[DensityMatrix | Statevector]",
    fn: Callable[[Any], _T],
) -> "PairTable | list[_T]":
    """``state_statistic(tag, state, fn)`` for every state, one lookup per object.

    A :class:`PairTable` maps each state a live position holds and returns a
    table with the same ids.  A sequence is made a table once and returns
    the list aligned with it.  *fn* must be deterministic: a map that
    samples a random realization per call would hand one draw to every
    equal input.
    """
    if not isinstance(states, PairTable):
        return list(map_distinct(tag, PairTable.of(states), fn))
    mapped = list(states.states)
    for slot in states.used():
        mapped[slot] = state_statistic(tag, mapped[slot], fn)
    return PairTable(states.ids, mapped, len(states))


#: The memo behind :func:`state_statistic`: 1024 entries, least recently used
#: evicted first, so the entries every session shares survive a stream of
#: one-off drifted or attacked states.  At one 2-qubit state per entry it
#: holds ≲0.5 MB, and ≲2 MB when every entry is a channel transmit tagged
#: with its map's bytes (≈1 KB).
_STATISTICS = BoundedMemo(1024)


def _read_only(compute: Callable[[Any], _T], state: Any) -> _T:
    """``compute(state)`` with its array, or its state's matrix, made read-only."""
    value = compute(state)
    array = value.matrix if isinstance(value, DensityMatrix) else value
    if isinstance(array, np.ndarray):
        array.setflags(write=False)
    return value


def state_statistic(
    tag: Hashable,
    state: "DensityMatrix | Statevector",
    compute: Callable[[Any], _T],
) -> _T:
    """``compute(state)``, memoised by *tag* and the state's content.

    The memo is shared by every caller in the process, so sessions that meet
    the same pair state under the same *tag* compute the statistic once.
    *tag* must name everything besides the state that the result depends on
    (e.g. measurement settings).  On a miss the statistic is computed from
    the live *state*, so a hit returns exactly the floats the uncached call
    would.  Cached arrays, and the matrix of a cached
    :class:`DensityMatrix`, are made read-only.
    """
    return _STATISTICS.get((tag, *_content_key(state)), _read_only, compute, state)
