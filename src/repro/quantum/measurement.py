"""Measurement helpers: projective, observable and Bell-state measurements.

Three measurement primitives drive the protocol:

* computational-basis **projective measurement** (delegated to the state
  classes, re-exported here for a uniform API);
* **observable measurement** of ``±1``-valued equatorial observables
  ``cos(theta)·X ± sin(theta)·Y`` used by the two DI security-check rounds;
* **Bell-state measurement** (BSM) used by Bob to decode dense-coded message
  and identity bits, and during the authentication step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.exceptions import DimensionError, NonPhysicalStateError
from repro.quantum.bell import BellState, bell_projector, equatorial_observable_matrix
from repro.quantum.density import DensityMatrix
from repro.quantum.operators import Operator, embed_operator, embedded_operator
from repro.quantum.states import Statevector
from repro.utils.memo import BoundedMemo
from repro.utils.rng import as_rng

__all__ = [
    "BellMeasurementResult",
    "equatorial_observable",
    "projective_measurement",
    "measure_observable",
    "observable_branches",
    "bell_measurement",
    "bell_measurement_probabilities",
    "bell_basis_probability_vector",
    "bell_measurement_counts",
    "BELL_BITS_TO_STATE",
    "BELL_STATE_TO_BITS",
    "BELL_OUTCOME_ORDER",
]

#: Outcome bits of the (CNOT, H) disentangling circuit mapped to Bell states.
#: The first bit is the H-measured (phase) qubit, the second the parity qubit.
BELL_BITS_TO_STATE: dict[str, BellState] = {
    "00": BellState.PHI_PLUS,
    "10": BellState.PHI_MINUS,
    "01": BellState.PSI_PLUS,
    "11": BellState.PSI_MINUS,
}

#: Inverse of :data:`BELL_BITS_TO_STATE`.
BELL_STATE_TO_BITS: dict[BellState, str] = {
    state: bits for bits, state in BELL_BITS_TO_STATE.items()
}


@dataclass(frozen=True)
class BellMeasurementResult:
    """Outcome of a single Bell-state measurement.

    Attributes
    ----------
    bell_state:
        Which Bell state was observed.
    bits:
        The two raw measurement bits of the disentangling circuit
        (phase bit, parity bit).
    """

    bell_state: BellState
    bits: str


def equatorial_observable(theta: float, conjugate: bool = False) -> Operator:
    """Equatorial ``±1`` observable ``cos(theta)·X ± sin(theta)·Y`` as an Operator."""
    return Operator(equatorial_observable_matrix(theta, conjugate=conjugate))


def projective_measurement(
    state: "Statevector | DensityMatrix",
    qubits: Sequence[int] | None = None,
    rng=None,
) -> tuple[str, "Statevector | DensityMatrix"]:
    """Measure the listed qubits in the computational basis.

    For a :class:`Statevector` this returns the collapsed pure state; for a
    :class:`DensityMatrix` it returns the normalised projected mixed state.
    """
    generator = as_rng(rng)
    if isinstance(state, Statevector):
        return state.measure(qubits, rng=generator)
    if isinstance(state, DensityMatrix):
        targets = list(range(state.num_qubits)) if qubits is None else [int(q) for q in qubits]
        probs = state.probabilities(targets)
        index = int(generator.choice(len(probs), p=probs))
        outcome = format(index, f"0{len(targets)}b")
        projector = _computational_projector(outcome, targets, state.num_qubits)
        projected = projector @ state.matrix @ projector
        norm = float(np.real(np.trace(projected)))
        if norm <= 0:
            raise NonPhysicalStateError("projective measurement hit a zero-probability outcome")
        return outcome, DensityMatrix(projected / norm, validate=False)
    raise DimensionError(f"cannot measure object of type {type(state).__name__}")


def _computational_projector(
    outcome: str, qubits: Sequence[int], num_qubits: int
) -> np.ndarray:
    """Full-register projector onto *outcome* of the listed qubits."""
    ket0 = np.array([[1, 0], [0, 0]], dtype=complex)
    ket1 = np.array([[0, 0], [0, 1]], dtype=complex)
    from repro.quantum.operators import kron_all

    locals_ = [ket0 if bit == "0" else ket1 for bit in outcome]
    return embed_operator(kron_all(locals_), list(qubits), num_qubits)


#: ±1-observable eigenprojectors keyed by matrix bytes.  The protocol
#: measures the same five CHSH observables thousands of times per session;
#: hermiticity checks and ``eigh`` need to run once per observable, not once
#: per pair.  Equal input bytes give the arrays the uncached code would
#: compute, handed out read-only.
_PROJECTORS = BoundedMemo(256)


def _eigenprojectors(op: Operator) -> tuple[np.ndarray, np.ndarray]:
    if not op.is_hermitian():
        raise DimensionError("observables must be Hermitian")
    eigenvalues, eigenvectors = np.linalg.eigh(op.matrix)
    if not np.allclose(np.abs(eigenvalues), 1.0, atol=1e-8):
        raise DimensionError("measure_observable supports only ±1-valued observables")
    plus_vectors = eigenvectors[:, eigenvalues > 0]
    projector_plus = plus_vectors @ plus_vectors.conj().T
    projector_minus = np.eye(op.dim) - projector_plus
    projector_plus.setflags(write=False)
    projector_minus.setflags(write=False)
    return projector_plus, projector_minus


def _observable_projectors(op: Operator) -> tuple[np.ndarray, np.ndarray]:
    """Local (+1, −1) eigenprojectors of a ±1-valued observable, memoised."""
    return _PROJECTORS.get((op.dim, op.matrix.tobytes()), _eigenprojectors, op)


def _embedded_projectors(
    op: Operator, qubits: tuple[int, ...], num_qubits: int
) -> tuple[np.ndarray, np.ndarray]:
    """Full-register embeddings of an observable's eigenprojectors, memoised."""
    return tuple(
        embedded_operator(local, qubits, num_qubits)
        for local in _observable_projectors(op)
    )


def observable_branches(
    state: "Statevector | DensityMatrix",
    observable: "Operator | np.ndarray",
    qubits: Sequence[int],
) -> tuple[float, "Statevector | DensityMatrix | None", "Statevector | DensityMatrix | None"]:
    """Both branches of a ±1-observable measurement, without sampling.

    Returns ``(prob_plus, post_plus, post_minus)``; a zero-probability
    branch's post state is ``None``.  :func:`measure_observable` is exactly
    this followed by one uniform draw, so a caller that keeps these
    statistics per distinct state (the CHSH check) draws from identical
    floats with identical RNG consumption.
    """
    op = observable if isinstance(observable, Operator) else Operator(observable)
    projector_plus, projector_minus = _embedded_projectors(
        op, tuple(int(q) for q in qubits), state.num_qubits
    )

    if isinstance(state, Statevector):
        vec = state.vector
        prob_plus = float(np.real(vec.conj() @ (projector_plus @ vec)))
        prob_plus = min(max(prob_plus, 0.0), 1.0)
        posts: list[Statevector | None] = []
        for projector in (projector_plus, projector_minus):
            post = projector @ vec
            norm = np.linalg.norm(post)
            posts.append(
                None if norm <= 1e-12 else Statevector(post / norm, validate=False)
            )
        return prob_plus, posts[0], posts[1]

    if isinstance(state, DensityMatrix):
        rho = state.matrix
        prob_plus = float(np.real(np.trace(projector_plus @ rho)))
        prob_plus = min(max(prob_plus, 0.0), 1.0)
        posts_dm: list[DensityMatrix | None] = []
        for projector in (projector_plus, projector_minus):
            projected = projector @ rho @ projector
            norm = float(np.real(np.trace(projected)))
            posts_dm.append(
                None
                if norm <= 1e-12
                else DensityMatrix(projected / norm, validate=False)
            )
        return prob_plus, posts_dm[0], posts_dm[1]

    raise DimensionError(f"cannot measure object of type {type(state).__name__}")


def measure_observable(
    state: "Statevector | DensityMatrix",
    observable: "Operator | np.ndarray",
    qubits: Sequence[int],
    rng=None,
) -> tuple[int, "Statevector | DensityMatrix"]:
    """Measure a ``±1``-valued observable on the listed qubits.

    The observable must have only ``+1``/``−1`` eigenvalues (all equatorial
    observables and Pauli operators qualify).  Returns the observed eigenvalue
    and the post-measurement state.  One uniform draw is consumed from *rng*
    per call; only the drawn branch's post state is computed.
    """
    op = observable if isinstance(observable, Operator) else Operator(observable)
    projector_plus, projector_minus = _embedded_projectors(
        op, tuple(int(q) for q in qubits), state.num_qubits
    )
    generator = as_rng(rng)

    if isinstance(state, Statevector):
        vec = state.vector
        prob_plus = float(np.real(vec.conj() @ (projector_plus @ vec)))
        prob_plus = min(max(prob_plus, 0.0), 1.0)
        outcome = 1 if generator.random() < prob_plus else -1
        projector = projector_plus if outcome == 1 else projector_minus
        post = projector @ vec
        norm = np.linalg.norm(post)
        if norm <= 1e-12:
            raise NonPhysicalStateError(
                "observable measurement hit a zero-probability outcome"
            )
        return outcome, Statevector(post / norm, validate=False)

    if isinstance(state, DensityMatrix):
        rho = state.matrix
        prob_plus = float(np.real(np.trace(projector_plus @ rho)))
        prob_plus = min(max(prob_plus, 0.0), 1.0)
        outcome = 1 if generator.random() < prob_plus else -1
        projector = projector_plus if outcome == 1 else projector_minus
        projected = projector @ rho @ projector
        norm = float(np.real(np.trace(projected)))
        if norm <= 1e-12:
            raise NonPhysicalStateError(
                "observable measurement hit a zero-probability outcome"
            )
        return outcome, DensityMatrix(projected / norm, validate=False)

    raise DimensionError(f"cannot measure object of type {type(state).__name__}")


#: The canonical Bell-outcome ordering used by every sampling helper below.
BELL_OUTCOME_ORDER = (
    BellState.PHI_PLUS,
    BellState.PHI_MINUS,
    BellState.PSI_PLUS,
    BellState.PSI_MINUS,
)

#: Each outcome's local projector, in :data:`BELL_OUTCOME_ORDER`.
_BELL_PROJECTORS = tuple(bell_projector(which) for which in BELL_OUTCOME_ORDER)


def bell_basis_probability_vector(
    state: "Statevector | DensityMatrix", qubit_pair: Sequence[int]
) -> np.ndarray:
    """The four Bell-outcome probabilities, ordered as :data:`BELL_OUTCOME_ORDER`.

    Callers that measure many pairs of one state (Bob's Bell measurement)
    compute the vector once and sample each outcome from it.
    """
    values = [state.expectation_value(local, qubit_pair) for local in _BELL_PROJECTORS]
    probs = np.array([max(float(np.real(value)), 0.0) for value in values])
    total = probs.sum()
    if total <= 0:
        raise NonPhysicalStateError("state has no support on the Bell basis")
    return probs / total


def bell_measurement_probabilities(
    state: "Statevector | DensityMatrix", qubit_pair: Sequence[int]
) -> dict[BellState, float]:
    """Probability of each Bell outcome when measuring *qubit_pair* in the Bell basis."""
    probs = bell_basis_probability_vector(state, qubit_pair)
    return {which: float(p) for which, p in zip(BELL_OUTCOME_ORDER, probs)}


def bell_measurement(
    state: "Statevector | DensityMatrix",
    qubit_pair: Sequence[int],
    rng=None,
) -> BellMeasurementResult:
    """Sample one Bell-state measurement outcome on the given qubit pair.

    Equivalent to running the (CNOT, H) disentangling circuit and measuring
    both qubits in the computational basis; only the Bell outcome is returned
    because the protocol never uses the post-measurement state of measured
    pairs (they are discarded).
    """
    if len(qubit_pair) != 2:
        raise DimensionError("Bell-state measurement requires exactly two qubits")
    probs = bell_basis_probability_vector(state, qubit_pair)
    which = BELL_OUTCOME_ORDER[int(as_rng(rng).choice(4, p=probs))]
    return BellMeasurementResult(bell_state=which, bits=BELL_STATE_TO_BITS[which])


def bell_measurement_counts(
    state: "Statevector | DensityMatrix",
    qubit_pair: Sequence[int],
    shots: int,
    rng=None,
) -> dict[BellState, int]:
    """Sample *shots* Bell-state measurements and histogram the outcomes."""
    if shots < 0:
        raise ValueError(f"shots must be non-negative, got {shots}")
    generator = as_rng(rng)
    probs = bell_basis_probability_vector(state, qubit_pair)
    samples = generator.multinomial(shots, probs)
    return {
        which: int(count)
        for which, count in zip(BELL_OUTCOME_ORDER, samples)
        if count > 0
    }
