"""Quantum noise channels in the Kraus (operator-sum) representation.

The NISQ device model and the η-identity-gate quantum channel of the paper
are built from the standard single-qubit channels implemented here:
depolarizing, bit/phase flip, amplitude damping, phase damping and thermal
relaxation (combined T1/T2 decay over a gate duration).  Each factory returns
a :class:`KrausChannel`, which validates the completeness relation
``sum_k K_k† K_k = I`` and knows how to apply itself to density matrices,
compose sequentially and take tensor products.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence

import numpy as np

from repro.exceptions import DimensionError, NoiseModelError
from repro.quantum.density import DensityMatrix
from repro.quantum.operators import (
    I_MATRIX,
    MAX_KEPT_EMBEDDING_QUBITS,
    X_MATRIX,
    Y_MATRIX,
    Z_MATRIX,
    embed_operators,
    kron_all,
)

__all__ = [
    "KrausChannel",
    "identity_channel",
    "depolarizing_channel",
    "bit_flip_channel",
    "phase_flip_channel",
    "bit_phase_flip_channel",
    "pauli_channel",
    "amplitude_damping_channel",
    "phase_damping_channel",
    "thermal_relaxation_channel",
]

_ATOL = 1e-8


class KrausChannel:
    """A completely-positive trace-preserving map given by Kraus operators.

    The operators are held as one read-only ``(k, d, d)`` array, and each
    step over them (completeness check, composition, embedding, application)
    is one NumPy call over that array.  A map is a value: its operators never
    change, so it keeps its embedding into each register it is applied to.

    Parameters
    ----------
    kraus_operators:
        Equally-shaped square matrices ``K_k`` satisfying
        ``sum_k K_k† K_k = I``: a sequence of matrices or a ``(k, d, d)``
        array (copied).
    name:
        Optional human-readable name used in reprs and noise-model summaries.
    validate:
        If True (default), check the completeness relation.
    """

    __slots__ = ("_kraus", "_num_qubits", "_embeddings", "name")

    def __init__(
        self,
        kraus_operators: "Sequence[np.ndarray] | np.ndarray",
        name: str = "kraus",
        validate: bool = True,
    ):
        kraus = _kraus_array(kraus_operators)
        dim = kraus.shape[1]
        if validate:
            total = np.add.reduce(kraus.conj().swapaxes(1, 2) @ kraus, axis=0)
            eye = np.eye(dim)
            # np.allclose(total, eye, atol=1e-6) without its wrappers: the same
            # entrywise bound |total − I| ≤ 1e-6 + 1e-5·|I|, which NaN fails.
            if not (np.abs(total - eye) <= 1e-6 + 1e-5 * eye).all():
                raise NoiseModelError(
                    "Kraus operators do not satisfy the completeness relation"
                )
        kraus.setflags(write=False)
        self._kraus = kraus
        self._num_qubits = dim.bit_length() - 1
        self._embeddings: dict[tuple[tuple[int, ...], int], np.ndarray] = {}
        self.name = name

    def __reduce__(self):
        # Rebuilt by the constructor, so a copy's operators are read-only too
        # and its embeddings are built afresh rather than unpickled writable.
        return KrausChannel, (self._kraus, self.name, False)

    # -- accessors -------------------------------------------------------------
    @property
    def kraus_operators(self) -> list[np.ndarray]:
        """The Kraus matrices: read-only rows of the map's ``(k, d, d)`` array.

        Memos of the map's outputs are keyed by their bytes
        (:meth:`content_key`).
        """
        return list(self._kraus)

    def content_key(self) -> tuple[int, bytes]:
        """Dimension and raw Kraus bytes: the memo tag part naming this map."""
        return self.dim, self._kraus.tobytes()

    @property
    def num_qubits(self) -> int:
        """Number of qubits the channel acts on."""
        return self._num_qubits

    @property
    def dim(self) -> int:
        """Hilbert-space dimension of the channel input/output."""
        return self._kraus.shape[1]

    def is_unital(self, atol: float = _ATOL) -> bool:
        """True if the channel maps the identity to the identity."""
        total = sum(k @ k.conj().T for k in self._kraus)
        return bool(np.allclose(total, np.eye(self.dim), atol=atol))

    # -- algebra ------------------------------------------------------------------
    def embedded(self, qubits: tuple[int, ...], num_qubits: int) -> np.ndarray:
        """The operators embedded on *qubits* of a *num_qubits* register.

        One read-only ``(k, 2**n, 2**n)`` array from one
        :func:`~repro.quantum.operators.embed_operators` contraction, kept on
        the map per (targets, register size) up to
        :data:`~repro.quantum.operators.MAX_KEPT_EMBEDDING_QUBITS` qubits
        (wider registers embed on every call).  The map never changes, so
        racing first calls build equal arrays and need no lock.  Invalid
        targets raise :class:`DimensionError` on every call.
        """
        key = (qubits, num_qubits)
        stack = self._embeddings.get(key)
        if stack is None:
            stack = embed_operators(self._kraus, qubits, num_qubits)
            if num_qubits <= MAX_KEPT_EMBEDDING_QUBITS:
                stack.setflags(write=False)
                self._embeddings[key] = stack
        return stack

    def apply(
        self, state: DensityMatrix, qubits: Sequence[int] | None = None
    ) -> DensityMatrix:
        """Apply the channel to *state* (optionally on a subset of its qubits).

        :meth:`DensityMatrix.apply_embedded` of the map's
        :meth:`embedded` stack: the bytes of
        ``state.apply_kraus(self.kraus_operators, qubits)``.
        """
        if qubits is None:
            return state.apply_embedded(self._kraus)
        return state.apply_embedded(self.embedded(tuple(qubits), state.num_qubits))

    def compose(self, other: "KrausChannel") -> "KrausChannel":
        """Sequential composition: apply *self* first, then *other*.

        The operators are every ``B @ A`` (``A`` of *self* major, ``B`` of
        *other* minor), from one batched product.
        """
        if other.dim != self.dim:
            raise DimensionError("cannot compose channels of different dimensions")
        kraus = other._kraus[None] @ self._kraus[:, None]
        return KrausChannel(
            kraus.reshape(-1, self.dim, self.dim),
            name=f"{other.name}∘{self.name}",
            validate=False,
        )

    def tensor(self, other: "KrausChannel") -> "KrausChannel":
        """Parallel composition ``self (x) other``: every ``A (x) B``, ``A`` major."""
        return KrausChannel(
            np.kron(self._kraus, other._kraus),
            name=f"{self.name}⊗{other.name}",
            validate=False,
        )

    def choi_matrix(self) -> np.ndarray:
        """Return the Choi matrix ``sum_k (I (x) K_k) |Omega><Omega| (I (x) K_k)†``."""
        dim = self.dim
        omega = np.zeros((dim * dim,), dtype=complex)
        for i in range(dim):
            omega[i * dim + i] = 1.0
        omega_proj = np.outer(omega, omega.conj())
        choi = np.zeros((dim * dim, dim * dim), dtype=complex)
        for k in self._kraus:
            lifted = np.kron(np.eye(dim), k)
            choi += lifted @ omega_proj @ lifted.conj().T
        return choi

    def average_gate_fidelity(self) -> float:
        """Average gate fidelity of the channel with respect to the identity.

        Uses ``F_avg = (d * F_pro + 1) / (d + 1)`` where ``F_pro`` is the
        process (entanglement) fidelity ``sum_k |Tr K_k|^2 / d^2``.
        """
        dim = self.dim
        process_fidelity = sum(abs(np.trace(k)) ** 2 for k in self._kraus) / dim**2
        return float((dim * process_fidelity + 1) / (dim + 1))

    def __repr__(self) -> str:
        return (
            f"KrausChannel(name={self.name!r}, num_qubits={self.num_qubits}, "
            f"num_kraus={len(self._kraus)})"
        )


def _kraus_array(kraus_operators) -> np.ndarray:
    """*kraus_operators* as a new complex ``(k, d, d)`` array, k ≥ 1 and d = 2**n."""
    try:
        kraus = np.array(kraus_operators, dtype=complex)
    except (TypeError, ValueError):
        try:
            np.shape(kraus_operators)
        except ValueError:  # operators of different shapes
            raise DimensionError("all Kraus operators must have one shape") from None
        raise NoiseModelError("Kraus operators must hold complex numbers") from None
    if kraus.shape[:1] == (0,):
        raise NoiseModelError("a channel needs at least one Kraus operator")
    if kraus.ndim != 3 or kraus.shape[1] != kraus.shape[2]:
        raise DimensionError(
            f"Kraus operators must be square matrices, got shape {kraus.shape[1:]}"
        )
    dim = kraus.shape[1]
    if dim < 1 or dim & (dim - 1):
        raise DimensionError(f"Kraus dimension {dim} is not a power of two")
    return kraus


def _check_real(value, name: str) -> float:
    """*value* as a ``float``; :class:`NoiseModelError` unless it converts."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise NoiseModelError(f"{name} must be a real number, got {value!r}") from None


def _check_probability(p: float, name: str, upper: float = 1.0) -> float:
    p = _check_real(p, name)
    if not 0.0 <= p <= upper + 1e-12:
        raise NoiseModelError(f"{name} must lie in [0, {upper}], got {p}")
    return min(p, upper)


def _check_qubit_count(num_qubits, what: str) -> int:
    """*num_qubits* as an ``int``; :class:`NoiseModelError` unless it is an integer ≥ 1."""
    try:
        n = operator.index(num_qubits)
    except TypeError:
        raise NoiseModelError(
            f"{what} needs an integer number of qubits, got {num_qubits!r}"
        ) from None
    if n < 1:
        raise NoiseModelError(f"{what} needs at least one qubit")
    return n


def identity_channel(num_qubits: int = 1) -> KrausChannel:
    """The trivial (noiseless) channel on *num_qubits* qubits."""
    n = _check_qubit_count(num_qubits, "identity channel")
    return KrausChannel([np.eye(2**n, dtype=complex)], name="identity")


def depolarizing_channel(probability: float, num_qubits: int = 1) -> KrausChannel:
    """Depolarizing channel: with probability *p* replace the state by the maximally mixed state.

    ``rho -> (1 - p) rho + p I / 2**n``.  Implemented with the uniform Pauli
    Kraus decomposition, which is exact for any number of qubits.
    """
    p = _check_probability(probability, "depolarizing probability")
    n = _check_qubit_count(num_qubits, "depolarizing channel")
    paulis = [I_MATRIX, X_MATRIX, Y_MATRIX, Z_MATRIX]
    dim = 4**n
    kraus = []
    for index in range(dim):
        digits = []
        rest = index
        for _ in range(n):
            digits.append(rest % 4)
            rest //= 4
        matrix = kron_all([paulis[d] for d in reversed(digits)])
        if index == 0:
            weight = math.sqrt(1 - p + p / dim)
        else:
            weight = math.sqrt(p / dim)
        if weight > 0:
            kraus.append(weight * matrix)
    return KrausChannel(kraus, name=f"depolarizing(p={p:.4g})")


def bit_flip_channel(probability: float) -> KrausChannel:
    """Bit-flip channel: apply X with probability *p*."""
    p = _check_probability(probability, "bit-flip probability")
    return KrausChannel(
        [math.sqrt(1 - p) * I_MATRIX, math.sqrt(p) * X_MATRIX],
        name=f"bit_flip(p={p:.4g})",
    )


def phase_flip_channel(probability: float) -> KrausChannel:
    """Phase-flip channel: apply Z with probability *p*."""
    p = _check_probability(probability, "phase-flip probability")
    return KrausChannel(
        [math.sqrt(1 - p) * I_MATRIX, math.sqrt(p) * Z_MATRIX],
        name=f"phase_flip(p={p:.4g})",
    )


def bit_phase_flip_channel(probability: float) -> KrausChannel:
    """Bit-phase-flip channel: apply Y with probability *p*."""
    p = _check_probability(probability, "bit-phase-flip probability")
    return KrausChannel(
        [math.sqrt(1 - p) * I_MATRIX, math.sqrt(p) * Y_MATRIX],
        name=f"bit_phase_flip(p={p:.4g})",
    )


def pauli_channel(p_x: float, p_y: float, p_z: float) -> KrausChannel:
    """General single-qubit Pauli channel with the given error probabilities."""
    p_x = _check_probability(p_x, "p_x")
    p_y = _check_probability(p_y, "p_y")
    p_z = _check_probability(p_z, "p_z")
    p_total = p_x + p_y + p_z
    if p_total > 1 + 1e-12:
        raise NoiseModelError(f"Pauli error probabilities sum to {p_total} > 1")
    kraus = [math.sqrt(max(1 - p_total, 0.0)) * I_MATRIX]
    for p, matrix in ((p_x, X_MATRIX), (p_y, Y_MATRIX), (p_z, Z_MATRIX)):
        if p > 0:
            kraus.append(math.sqrt(p) * matrix)
    return KrausChannel(kraus, name="pauli_channel")


def amplitude_damping_channel(gamma: float) -> KrausChannel:
    """Amplitude damping (T1 decay) with decay probability *gamma*."""
    g = _check_probability(gamma, "gamma")
    k0 = np.array([[1, 0], [0, math.sqrt(1 - g)]], dtype=complex)
    k1 = np.array([[0, math.sqrt(g)], [0, 0]], dtype=complex)
    return KrausChannel([k0, k1], name=f"amplitude_damping(gamma={g:.4g})")


def phase_damping_channel(lambda_pd: float) -> KrausChannel:
    """Phase damping (pure dephasing) with parameter *lambda_pd*."""
    lam = _check_probability(lambda_pd, "lambda")
    k0 = np.array([[1, 0], [0, math.sqrt(1 - lam)]], dtype=complex)
    k1 = np.array([[0, 0], [0, math.sqrt(lam)]], dtype=complex)
    return KrausChannel([k0, k1], name=f"phase_damping(lambda={lam:.4g})")


def thermal_relaxation_channel(
    t1: float, t2: float, gate_time: float, excited_state_population: float = 0.0
) -> KrausChannel:
    """Combined T1/T2 relaxation over a *gate_time* evolution.

    Modelled as amplitude damping with ``gamma = 1 - exp(-t/T1)`` followed by
    pure dephasing chosen so the total off-diagonal decay equals
    ``exp(-t/T2)``.  Requires ``T2 <= 2*T1`` (physical constraint).  A nonzero
    *excited_state_population* mixes in the inverted amplitude-damping channel
    to model a finite-temperature environment.
    """
    t1, t2 = _check_real(t1, "T1"), _check_real(t2, "T2")
    gate_time = _check_real(gate_time, "gate_time")
    if not (t1 > 0 and t2 > 0):
        raise NoiseModelError("T1 and T2 must be positive")
    if not gate_time >= 0:
        raise NoiseModelError("gate_time must be non-negative")
    if t2 > 2 * t1 + 1e-12:
        raise NoiseModelError(f"unphysical relaxation times: T2={t2} > 2*T1={2 * t1}")
    p_excited = _check_probability(excited_state_population, "excited_state_population")

    gamma = 1.0 - math.exp(-gate_time / t1)
    # Off-diagonal decay from amplitude damping alone is exp(-t / (2 T1)); the
    # remaining dephasing must supply exp(-t/T2) / exp(-t/(2 T1)).
    residual = math.exp(-gate_time / t2) / math.exp(-gate_time / (2 * t1))
    residual = min(max(residual, 0.0), 1.0)
    lambda_pd = 1.0 - residual**2

    damping_down = amplitude_damping_channel(gamma)
    dephasing = phase_damping_channel(lambda_pd)
    channel = damping_down.compose(dephasing)

    if p_excited > 0:
        # Inverted amplitude damping (relaxation towards |1>).
        k0 = np.array([[math.sqrt(1 - gamma), 0], [0, 1]], dtype=complex)
        k1 = np.array([[0, 0], [math.sqrt(gamma), 0]], dtype=complex)
        damping_up = KrausChannel([k0, k1], name="amplitude_damping_up")
        up = damping_up.compose(dephasing)
        kraus = np.concatenate(
            [math.sqrt(1 - p_excited) * channel._kraus, math.sqrt(p_excited) * up._kraus]
        )
        channel = KrausChannel(kraus, name="thermal_relaxation", validate=False)

    channel.name = (
        f"thermal_relaxation(t1={t1:.3g}, t2={t2:.3g}, time={gate_time:.3g})"
    )
    return channel
