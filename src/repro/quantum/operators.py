"""Matrix operators on qubit registers.

:class:`Operator` wraps a complex matrix acting on ``k`` qubits and provides
composition, tensor products, embedding into larger registers, and the
standard checks (unitarity, hermiticity).  The module also exports the Pauli
matrices as ready-made operators, since the UA-DI-QSDC protocol's dense
coding is phrased entirely in terms of ``{I, sigma_z, sigma_x, i*sigma_y}``.

The qubit order convention is big-endian (qubit 0 is the most significant bit
of the basis-state index), matching :mod:`repro.quantum.states`.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.exceptions import DimensionError, NonUnitaryError
from repro.utils.memo import BoundedMemo

__all__ = [
    "Operator",
    "I_MATRIX",
    "X_MATRIX",
    "Y_MATRIX",
    "Z_MATRIX",
    "H_MATRIX",
    "S_MATRIX",
    "T_MATRIX",
    "PAULI_I",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "PAULI_MATRICES",
    "is_unitary_matrix",
    "is_hermitian_matrix",
    "kron_all",
    "embed_operator",
    "embed_operators",
    "embedded_operator",
    "MAX_KEPT_EMBEDDING_QUBITS",
]

_ATOL = 1e-10

I_MATRIX = np.eye(2, dtype=complex)
X_MATRIX = np.array([[0, 1], [1, 0]], dtype=complex)
Y_MATRIX = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z_MATRIX = np.array([[1, 0], [0, -1]], dtype=complex)
H_MATRIX = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
S_MATRIX = np.array([[1, 0], [0, 1j]], dtype=complex)
T_MATRIX = np.array([[1, 0], [0, np.exp(1j * math.pi / 4)]], dtype=complex)

#: Mapping from single-character Pauli label to its 2x2 matrix.
PAULI_MATRICES: dict[str, np.ndarray] = {
    "I": I_MATRIX,
    "X": X_MATRIX,
    "Y": Y_MATRIX,
    "Z": Z_MATRIX,
}


def is_unitary_matrix(matrix: np.ndarray, atol: float = _ATOL) -> bool:
    """Return True if *matrix* is unitary within absolute tolerance *atol*."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    identity = np.eye(matrix.shape[0])
    return bool(np.allclose(matrix.conj().T @ matrix, identity, atol=atol))


def is_hermitian_matrix(matrix: np.ndarray, atol: float = _ATOL) -> bool:
    """Return True if *matrix* equals its own conjugate transpose."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    return bool(np.allclose(matrix, matrix.conj().T, atol=atol))


def kron_all(matrices: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of a sequence of matrices, in the given (big-endian) order."""
    if not matrices:
        return np.eye(1, dtype=complex)
    result = np.asarray(matrices[0], dtype=complex)
    for matrix in matrices[1:]:
        result = np.kron(result, np.asarray(matrix, dtype=complex))
    return result


def _num_qubits_from_dim(dim: int, what: str = "operator") -> int:
    n = dim.bit_length() - 1
    if dim < 1 or 2**n != dim:
        raise DimensionError(f"{what} dimension {dim} is not a power of two")
    return n


def embed_operators(
    operators: np.ndarray, qubits: Sequence[int], num_qubits: int
) -> np.ndarray:
    """Embed a ``(m, 2**k, 2**k)`` stack of k-qubit matrices acting on *qubits*.

    ``qubits[i]`` is the register qubit on which the i-th tensor factor of
    each matrix acts.  Returns the ``(m, 2**num_qubits, 2**num_qubits)``
    stack of full-register matrices, from one contraction for the whole
    stack.
    """
    operators = np.asarray(operators, dtype=complex)
    if operators.ndim != 3 or operators.shape[1] != operators.shape[2]:
        raise DimensionError(f"operator must be square, got shape {operators.shape[1:]}")
    k = _num_qubits_from_dim(operators.shape[1])
    if len(qubits) != k:
        raise DimensionError(
            f"operator acts on {k} qubits but {len(qubits)} targets were given"
        )
    if len(set(qubits)) != len(qubits):
        raise DimensionError(f"target qubits must be distinct, got {qubits}")
    if any(q < 0 or q >= num_qubits for q in qubits):
        raise DimensionError(
            f"target qubits {qubits} out of range for a {num_qubits}-qubit register"
        )

    # Reshape the full operator as a 2n-index tensor and contract the gates in.
    full = np.eye(2**num_qubits, dtype=complex)
    full = full.reshape([2] * (2 * num_qubits))
    count = operators.shape[0]
    gates = operators.reshape([count] + [2] * (2 * k))
    # Indices: output indices 0..n-1, input indices n..2n-1.  Applying each
    # gate to the *output* side of the identity yields its embedded matrix.
    out_axes = [int(q) for q in qubits]
    gate_in_axes = list(range(k + 1, 2 * k + 1))
    contracted = np.tensordot(gates, full, axes=(gate_in_axes, out_axes))
    # tensordot puts the stack axis, then the gates' output axes first; move
    # the output axes back into place.
    contracted = np.moveaxis(contracted, range(1, k + 1), [1 + q for q in out_axes])
    return contracted.reshape(count, 2**num_qubits, 2**num_qubits)


def embed_operator(
    matrix: np.ndarray, qubits: Sequence[int], num_qubits: int
) -> np.ndarray:
    """Embed a k-qubit *matrix* acting on *qubits* into an *num_qubits* register.

    The one-matrix case of :func:`embed_operators`: returns the full
    ``2**num_qubits`` square matrix.
    """
    return embed_operators(np.asarray(matrix, dtype=complex)[None], qubits, num_qubits)[0]


#: Widest register whose embeddings are kept: by :func:`embedded_operator`
#: (an entry then takes ≤ 8 KB with its key) and by each
#: :class:`~repro.quantum.channels.KrausChannel` for its stack.  Wider
#: registers, which only the per-gate reference simulator builds, embed on
#: every call.
MAX_KEPT_EMBEDDING_QUBITS = 4

#: Embeddings kept by :func:`embedded_operator`, one operator per entry: the
#: observable projectors, Paulis and intercept projectors that many states
#: meet.  A Kraus map keeps the stacked embedding of all its operators on
#: itself (:meth:`~repro.quantum.channels.KrausChannel.embedded`), so a
#: drifted snapshot's operators never pass through here.
_EMBEDDINGS = BoundedMemo(1024)


def _read_only_embedding(
    matrix: np.ndarray, qubits: tuple[int, ...], num_qubits: int
) -> np.ndarray:
    embedded = embed_operator(matrix, qubits, num_qubits)
    embedded.setflags(write=False)
    return embedded


def embedded_operator(
    matrix: np.ndarray, qubits: tuple[int, ...], num_qubits: int
) -> np.ndarray:
    """``embed_operator(matrix, qubits, num_qubits)``, memoised and read-only.

    Equal operator bytes, targets and register size return the one array the
    first call embedded, so a constant operator (a projector, a Pauli)
    applied to many states is embedded once.  Registers wider than
    :data:`MAX_KEPT_EMBEDDING_QUBITS` qubits get a fresh, writable embedding
    per call.  Invalid targets raise :class:`DimensionError` on every call.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if num_qubits > MAX_KEPT_EMBEDDING_QUBITS:
        return embed_operator(matrix, qubits, num_qubits)
    key = (matrix.shape[0], matrix.tobytes(), qubits, num_qubits)
    return _EMBEDDINGS.get(key, _read_only_embedding, matrix, qubits, num_qubits)


class Operator:
    """A linear operator on an n-qubit register.

    Parameters
    ----------
    data:
        A square complex matrix of dimension ``2**n`` for some integer n, or
        another :class:`Operator` to copy.
    """

    __slots__ = ("_matrix", "_num_qubits")

    def __init__(self, data: "np.ndarray | Operator | Sequence[Sequence[complex]]"):
        if isinstance(data, Operator):
            matrix = data._matrix.copy()
        else:
            matrix = np.array(data, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise DimensionError(f"operator must be a square matrix, got {matrix.shape}")
        self._num_qubits = _num_qubits_from_dim(matrix.shape[0])
        self._matrix = matrix

    # -- basic accessors ---------------------------------------------------
    @property
    def matrix(self) -> np.ndarray:
        """The underlying complex matrix (a copy is *not* made)."""
        return self._matrix

    @property
    def num_qubits(self) -> int:
        """Number of qubits the operator acts on."""
        return self._num_qubits

    @property
    def dim(self) -> int:
        """Hilbert-space dimension ``2**num_qubits``."""
        return self._matrix.shape[0]

    # -- predicates --------------------------------------------------------
    def is_unitary(self, atol: float = _ATOL) -> bool:
        """True if the operator is unitary within tolerance."""
        return is_unitary_matrix(self._matrix, atol=atol)

    def is_hermitian(self, atol: float = _ATOL) -> bool:
        """True if the operator is Hermitian within tolerance."""
        return is_hermitian_matrix(self._matrix, atol=atol)

    def require_unitary(self, atol: float = _ATOL) -> "Operator":
        """Return self, raising :class:`NonUnitaryError` if not unitary."""
        if not self.is_unitary(atol=atol):
            raise NonUnitaryError("operator is not unitary within tolerance")
        return self

    # -- algebra -----------------------------------------------------------
    def adjoint(self) -> "Operator":
        """Conjugate transpose."""
        return Operator(self._matrix.conj().T)

    def compose(self, other: "Operator") -> "Operator":
        """Return ``other @ self`` — i.e. apply *self* first, then *other*."""
        other = Operator(other)
        if other.dim != self.dim:
            raise DimensionError(
                f"cannot compose operators of dimensions {self.dim} and {other.dim}"
            )
        return Operator(other._matrix @ self._matrix)

    def tensor(self, other: "Operator") -> "Operator":
        """Kronecker product ``self (x) other`` (self on the higher-order qubits)."""
        other = Operator(other)
        return Operator(np.kron(self._matrix, other._matrix))

    def power(self, exponent: int) -> "Operator":
        """Integer matrix power."""
        return Operator(np.linalg.matrix_power(self._matrix, int(exponent)))

    def scale(self, scalar: complex) -> "Operator":
        """Multiply by a complex scalar (e.g. the ``i`` in ``i*sigma_y``)."""
        return Operator(self._matrix * scalar)

    def expand(self, qubits: Sequence[int], num_qubits: int) -> "Operator":
        """Embed into a larger register; see :func:`embed_operator`."""
        return Operator(embed_operator(self._matrix, qubits, num_qubits))

    def expectation(self, state: np.ndarray) -> complex:
        """``<psi| O |psi>`` for a statevector given as a 1-D array."""
        vec = np.asarray(state, dtype=complex).reshape(-1)
        if vec.shape[0] != self.dim:
            raise DimensionError(
                f"state of dimension {vec.shape[0]} does not match operator dim {self.dim}"
            )
        return complex(vec.conj() @ (self._matrix @ vec))

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues of the operator (Hermitian operators get real values)."""
        if self.is_hermitian():
            return np.linalg.eigvalsh(self._matrix)
        return np.linalg.eigvals(self._matrix)

    # -- comparisons and dunder helpers --------------------------------------
    def equiv(self, other: "Operator", up_to_phase: bool = False, atol: float = 1e-8) -> bool:
        """Check (optionally phase-insensitive) equality with another operator."""
        other = Operator(other)
        if other.dim != self.dim:
            return False
        if not up_to_phase:
            return bool(np.allclose(self._matrix, other._matrix, atol=atol))
        # Find the first element with significant magnitude and align phases.
        flat_self = self._matrix.reshape(-1)
        flat_other = other._matrix.reshape(-1)
        idx = int(np.argmax(np.abs(flat_self)))
        if abs(flat_self[idx]) < atol or abs(flat_other[idx]) < atol:
            return bool(np.allclose(self._matrix, other._matrix, atol=atol))
        phase = flat_other[idx] / flat_self[idx]
        phase = phase / abs(phase)
        return bool(np.allclose(self._matrix * phase, other._matrix, atol=atol))

    def __matmul__(self, other: "Operator") -> "Operator":
        """Matrix product ``self @ other`` (apply *other* first)."""
        other = Operator(other)
        if other.dim != self.dim:
            raise DimensionError(
                f"cannot multiply operators of dimensions {self.dim} and {other.dim}"
            )
        return Operator(self._matrix @ other._matrix)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Operator):
            return NotImplemented
        return self.equiv(other)

    def __hash__(self) -> int:  # Operators are mutable via .matrix; hash by identity.
        return id(self)

    def __repr__(self) -> str:
        return f"Operator(num_qubits={self.num_qubits})"


PAULI_I = Operator(I_MATRIX)
PAULI_X = Operator(X_MATRIX)
PAULI_Y = Operator(Y_MATRIX)
PAULI_Z = Operator(Z_MATRIX)
