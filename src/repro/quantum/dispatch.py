"""Static circuit/noise analysis and simulator-backend dispatch.

One question decides whether a workload may take the stabilizer fast path
(:mod:`repro.quantum.stabilizer`) or must pay for dense simulation: *is the
circuit Clifford and is every noise process a Pauli channel?*  This module
answers it statically — before anything is simulated — and routes
accordingly:

* :func:`circuit_is_clifford` / :func:`pauli_mixture` /
  :func:`noise_model_is_pauli` — the individual eligibility predicates.
  ``pauli_mixture`` recognises any :class:`~repro.quantum.channels.KrausChannel`
  whose operators are all proportional to Pauli strings (depolarizing,
  bit/phase flip, general Pauli channels …) and returns the underlying
  probability mixture; channels with coherent or damping components
  (e.g. thermal relaxation) return ``None`` and force the dense path.
* :func:`noise_model_mixtures` — the one walk over the errors a noise model
  attaches to a circuit (dispatcher and stabilizer engine), memoised
  per error under the propagator-cache key ``(cache_token, version)``: an
  in-place ``add_*`` invalidates it, duck-typed models skip it.
* :func:`select_backend` — the routing decision for a batch of circuits
  under a requested backend (``"auto"``, ``"dense"``, ``"stabilizer"`` or
  its synonym ``"stabilizer_batched"``).
  ``auto`` never changes semantics: it picks the tableau only when the
  result is provably distribution-identical to the dense simulators.
  Requesting ``"stabilizer"`` outright raises on ineligible input instead
  of silently degrading.
* :func:`pauli_twirl_channel` / :func:`pauli_twirl_noise_model` — explicit,
  opt-in Pauli-twirling approximation: projects a channel onto its
  Pauli-diagonal part (the standard PTA), making non-Pauli device models
  stabilizer-eligible at documented accuracy cost.  ``auto`` never applies
  this implicitly.
* :func:`protocol_eligibility` — the session-level analysis used by
  :class:`~repro.protocol.config.ProtocolConfig` when a user forces
  ``simulator_backend="stabilizer"``: every channel touched by a protocol
  session (transmission, distribution, memory decoherence, source
  preparation noise) must be Pauli-diagonal.
"""

from __future__ import annotations

import itertools
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from collections.abc import Iterable, Sequence

import numpy as np

from repro.exceptions import SimulationError
from repro.quantum.batch import _noise_token
from repro.quantum.channels import KrausChannel
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.noise_model import NoiseModel, QuantumError
from repro.quantum.operators import I_MATRIX, X_MATRIX, Y_MATRIX, Z_MATRIX, kron_all
from repro.telemetry import runtime as telemetry
from repro.utils.logging import get_logger

__all__ = [
    "BACKEND_CHOICES",
    "CLIFFORD_GATE_NAMES",
    "DispatchDecision",
    "ProtocolEligibility",
    "circuit_is_clifford",
    "channel_is_pauli",
    "noise_model_is_pauli",
    "noise_model_mixtures",
    "pauli_mixture",
    "pauli_twirl_channel",
    "pauli_twirl_noise_model",
    "protocol_eligibility",
    "select_backend",
]

#: The backend names every ``simulator_backend`` knob accepts.
BACKEND_CHOICES = ("auto", "dense", "stabilizer", "stabilizer_batched")

#: Names of the one stabilizer engine.  ``"stabilizer_batched"`` is a
#: synonym of ``"stabilizer"``; ``auto`` reports it for whole-batch
#: submissions, so job metadata still tell a batch from a single run.
_STABILIZER_BACKENDS = ("stabilizer", "stabilizer_batched")

#: Gate names the stabilizer tableau implements (single source of truth is
#: the engine; re-exported here because eligibility analysis is this
#: module's job).
from repro.quantum.stabilizer import CLIFFORD_GATE_NAMES  # noqa: E402

_PAULI_1Q = {"I": I_MATRIX, "X": X_MATRIX, "Y": Y_MATRIX, "Z": Z_MATRIX}

_ATOL = 1e-9

#: Memoised error analysis, keyed like compiled propagators by
#: ``(cache_token, version)``: per model state, ``id(error) -> (error,
#: mixture)`` (holding the error keeps its id from being reused).  Tokens are
#: process-unique, so callers never see each other's entries; entry writes
#: are unlocked but deterministic, so a race costs a duplicate scan only.
_MIXTURE_MEMO: OrderedDict[tuple, dict[int, tuple]] = OrderedDict()
_MIXTURE_MEMO_MAX = 64
_MIXTURE_MEMO_LOCK = threading.Lock()

_log = get_logger("quantum.dispatch")


def _decide(requested: str, backend: str, reason: str) -> DispatchDecision:
    """Build a decision, counting it and logging auto->dense fallbacks."""
    telemetry.counter_inc("dispatch.decisions", requested=requested, backend=backend)
    if requested == "auto" and backend == "dense":
        _log.debug(
            "dispatch fallback to dense (trace_id=%s): %s",
            telemetry.current_trace_id(),
            reason,
        )
    return DispatchDecision(backend, reason)


@dataclass(frozen=True)
class DispatchDecision:
    """Outcome of a backend-selection analysis.

    Attributes
    ----------
    backend:
        ``"stabilizer"``, ``"stabilizer_batched"`` (the same engine, for a
        whole-batch submission) or ``"dense"`` — the resolved execution
        backend.
    reason:
        Human-readable explanation (surfaced in result/job metadata so a
        user can see *why* a workload did or did not take the fast path).
    """

    backend: str
    reason: str

    @property
    def use_stabilizer(self) -> bool:
        """True when the tableau backend was selected (under either name)."""
        return self.backend in _STABILIZER_BACKENDS


def _pauli_strings(num_qubits: int) -> Iterable[tuple[str, np.ndarray]]:
    """All Pauli strings on *num_qubits* qubits as (label, matrix) pairs."""
    for chars in itertools.product("IXYZ", repeat=num_qubits):
        label = "".join(chars)
        yield label, kron_all([_PAULI_1Q[ch] for ch in chars])


def pauli_mixture(
    channel: KrausChannel, atol: float = _ATOL
) -> dict[str, float] | None:
    """The Pauli probability mixture of *channel*, or ``None`` if it has none.

    A channel is a (stochastic) Pauli channel exactly when every Kraus
    operator is proportional to a Pauli string; the squared magnitudes of
    the proportionality constants are then the mixture probabilities.
    Returns a ``label -> probability`` dict over ``channel.num_qubits``-char
    Pauli labels (zero-probability components dropped, duplicates merged),
    or ``None`` for channels with coherent or non-unital components —
    amplitude damping, thermal relaxation, arbitrary unitaries — which the
    stabilizer backend cannot execute.

    Channels on more than three qubits are conservatively reported as
    non-Pauli (the recognition scan is exponential in qubit count and no
    workload in this repository attaches wider errors).
    """
    if channel.num_qubits > 3:
        return None
    dim = channel.dim
    mixture: dict[str, float] = {}
    total = 0.0
    paulis = list(_pauli_strings(channel.num_qubits))
    for kraus in channel.kraus_operators:
        matched = False
        for label, pauli in paulis:
            coefficient = np.trace(pauli.conj().T @ kraus) / dim
            if abs(coefficient) <= atol:
                continue
            if np.allclose(kraus, coefficient * pauli, atol=atol):
                probability = float(abs(coefficient) ** 2)
                mixture[label] = mixture.get(label, 0.0) + probability
                total += probability
                matched = True
            break
        if not matched:
            if np.allclose(kraus, 0.0, atol=atol):
                continue
            return None
    if not math.isclose(total, 1.0, abs_tol=1e-6):
        return None
    return mixture


def channel_is_pauli(channel: KrausChannel, atol: float = _ATOL) -> bool:
    """True if *channel* is a stochastic Pauli channel (see :func:`pauli_mixture`)."""
    return pauli_mixture(channel, atol=atol) is not None


def circuit_is_clifford(circuit: QuantumCircuit) -> bool:
    """True if every gate of *circuit* is in the tableau's Clifford set.

    The check is by gate name: rotation gates at Clifford angles and
    anonymous ``unitary`` matrices that happen to be Clifford are *not*
    recognised — they run on the dense path (a conservative, never-wrong
    answer).
    """
    return all(
        instruction.kind != "gate" or instruction.name in CLIFFORD_GATE_NAMES
        for instruction in circuit.instructions
    )


def noise_model_mixtures(
    noise_model: NoiseModel | None, circuit: QuantumCircuit | None = None
) -> dict[int, tuple[tuple[str, ...], tuple[float, ...]]]:
    """Pauli mixtures of the gate errors *noise_model* attaches to *circuit*.

    Returns ``id(error) -> (labels, probabilities)`` for every error that can
    fire on the circuit's gates — every attached error when *circuit* is
    ``None`` — and raises :class:`~repro.exceptions.SimulationError` naming
    the first one that is not a Pauli mixture.  Each error's Kraus set is
    scanned once per model state (see the module docstring).
    """
    if noise_model is None:
        return {}
    token = _noise_token(noise_model)
    memo: dict[int, tuple] = {}
    if token is not None:
        with _MIXTURE_MEMO_LOCK:
            memo = _MIXTURE_MEMO.setdefault(token, memo)
            _MIXTURE_MEMO.move_to_end(token)
            while len(_MIXTURE_MEMO) > _MIXTURE_MEMO_MAX:
                _MIXTURE_MEMO.popitem(last=False)
    if circuit is None:
        attached = ((gate, error) for gate, _, error in noise_model.iter_errors())
    else:
        attached = (
            (instruction.name, error)
            for instruction in circuit.instructions
            if instruction.kind == "gate"
            for error in noise_model.errors_for(instruction.name, instruction.qubits)
        )
    mixtures: dict[int, tuple] = {}
    for gate, error in attached:
        key = id(error)
        if key in mixtures:
            continue
        entry = memo.get(key)
        if entry is None or entry[0] is not error:
            mixture = pauli_mixture(error.channel)
            if mixture is not None:
                mixture = (tuple(mixture), tuple(mixture.values()))
            entry = memo[key] = (error, mixture)
        if entry[1] is None:
            raise SimulationError(
                f"error {error.name!r} on gate {gate!r} is not a Pauli channel; "
                "the stabilizer backend cannot apply it"
            )
        mixtures[key] = entry[1]
    return mixtures


def noise_model_is_pauli(
    noise_model: NoiseModel | None, circuit: QuantumCircuit | None = None
) -> bool:
    """True if every relevant gate error of *noise_model* is a Pauli mixture.

    With a *circuit*, only errors that can actually fire on its instructions
    are checked (a model may carry non-Pauli errors on gates the circuit
    never uses); without one, every attached error must be Pauli.  Readout
    errors never disqualify — they are classical assignment flips the
    stabilizer backend applies exactly as the dense path does.
    """
    try:
        noise_model_mixtures(noise_model, circuit)
    except SimulationError:
        return False
    return True


def select_backend(
    requested: str,
    circuits: "QuantumCircuit | Sequence[QuantumCircuit]",
    noise_model: NoiseModel | None = None,
    batch: bool = False,
) -> DispatchDecision:
    """Resolve a requested backend for a (circuit batch, noise model) pair.

    ``"dense"`` is always honoured.  ``"auto"`` picks a stabilizer backend
    exactly when every circuit is Clifford and every noise error that can
    fire on them is a Pauli mixture — the class on which the tableau is
    provably distribution-identical to the dense simulators — and falls
    back to dense otherwise; with ``batch=True`` (a whole-batch submission,
    i.e. a ``run_batch`` call) it reports ``"stabilizer_batched"``, a
    synonym of ``"stabilizer"`` that runs the same engine.
    ``"stabilizer"`` / ``"stabilizer_batched"`` raise
    :class:`~repro.exceptions.SimulationError` on ineligible input so that
    misconfiguration fails loudly rather than silently approximating.
    """
    if requested not in BACKEND_CHOICES:
        raise SimulationError(
            f"unknown simulator backend {requested!r}; choose from {BACKEND_CHOICES}"
        )
    if requested == "dense":
        return _decide(requested, "dense", "dense backend requested")
    if isinstance(circuits, QuantumCircuit):
        circuits = [circuits]
    forced_stabilizer = requested in _STABILIZER_BACKENDS

    non_clifford = next(
        (circuit for circuit in circuits if not circuit_is_clifford(circuit)), None
    )
    if non_clifford is not None:
        reason = f"circuit {non_clifford.name!r} contains non-Clifford gates"
        if forced_stabilizer:
            raise SimulationError(
                f"simulator_backend={requested!r} was forced but {reason}"
            )
        return _decide(requested, "dense", reason)

    non_pauli = next(
        (
            circuit
            for circuit in circuits
            if not noise_model_is_pauli(noise_model, circuit)
        ),
        None,
    )
    if non_pauli is not None:
        reason = (
            f"noise model {getattr(noise_model, 'name', 'noise_model')!r} attaches "
            f"non-Pauli errors to circuit {non_pauli.name!r}"
        )
        if forced_stabilizer:
            raise SimulationError(
                f"simulator_backend={requested!r} was forced but {reason}; "
                "consider pauli_twirl_noise_model() for an explicit approximation"
            )
        return _decide(requested, "dense", reason)

    if requested == "stabilizer_batched" or (requested == "auto" and batch):
        return _decide(
            requested,
            "stabilizer_batched",
            "Clifford circuits with Pauli-diagonal noise (whole batch)",
        )
    return _decide(
        requested, "stabilizer", "Clifford circuits with Pauli-diagonal noise"
    )


# -- Pauli twirling (explicit approximation) ----------------------------------------------
def pauli_twirl_channel(channel: KrausChannel) -> KrausChannel:
    """Project *channel* onto its Pauli-diagonal part (Pauli twirling).

    The twirled channel applies Pauli string ``P`` with probability
    ``p_P = sum_k |tr(P† K_k)|² / d²`` — the standard Pauli-twirling
    approximation (PTA).  It is exact for channels that already are Pauli
    mixtures and an approximation otherwise (coherent and damping
    components are discarded; the diagonal of the chi matrix is kept).
    This is an *opt-in* accuracy trade: ``auto`` dispatch never twirls.
    """
    if channel.num_qubits > 3:
        raise SimulationError("pauli_twirl_channel supports at most three qubits")
    dim = channel.dim
    kraus: list[np.ndarray] = []
    for label, pauli in _pauli_strings(channel.num_qubits):
        probability = sum(
            float(abs(np.trace(pauli.conj().T @ k) / dim) ** 2)
            for k in channel.kraus_operators
        )
        if probability > 0:
            kraus.append(math.sqrt(probability) * pauli)
    twirled = KrausChannel(kraus, name=f"pauli_twirl({channel.name})", validate=False)
    return twirled


def pauli_twirl_noise_model(noise_model: NoiseModel) -> NoiseModel:
    """A copy of *noise_model* with every gate error Pauli-twirled.

    Readout errors are preserved unchanged (they are already classical).
    The result always satisfies :func:`noise_model_is_pauli`, so workloads
    under it take the stabilizer fast path — at the documented accuracy
    cost of discarding each channel's off-diagonal (coherent/damping)
    action.
    """
    twirled = NoiseModel(name=f"pauli_twirl({noise_model.name})")
    for gate_name, qubits, error in noise_model.iter_errors():
        replacement = QuantumError(
            pauli_twirl_channel(error.channel), name=f"pauli_twirl({error.name})"
        )
        if qubits is None:
            twirled.add_all_qubit_error(replacement, gate_name)
        else:
            twirled.add_qubit_error(replacement, gate_name, qubits)
    for qubit, readout in noise_model.iter_readout_errors():
        twirled.add_readout_error(readout, qubit)
    return twirled


# -- protocol-session eligibility ----------------------------------------------------------
@dataclass(frozen=True)
class ProtocolEligibility:
    """Stabilizer-structure eligibility of one protocol configuration.

    Attributes
    ----------
    eligible:
        True when every quantum process of a session is Pauli-diagonal on
        Bell-pair states — transmission channel, distribution channel,
        memory decoherence and source preparation noise.
    reason:
        The first disqualifying process, or a confirmation string.
    """

    eligible: bool
    reason: str


def protocol_eligibility(config) -> ProtocolEligibility:
    """Analyse a :class:`~repro.protocol.config.ProtocolConfig` statically.

    Used when a session forces ``simulator_backend="stabilizer"``: the
    session's pair states then remain Bell-diagonal throughout.  Sessions
    run one code path, exact for arbitrary channels, so ``auto`` does not
    need this check; the analysis exists so that a forced ``stabilizer``
    request fails loudly on non-Pauli physics instead of implying a
    guarantee it cannot keep.
    """
    source = config.source
    if getattr(source, "override", None) is not None:
        return ProtocolEligibility(False, "source emission is attacker-controlled")
    preparation = getattr(source, "preparation_noise", None)
    if preparation is not None and not channel_is_pauli(preparation):
        return ProtocolEligibility(
            False, f"source preparation noise {preparation.name!r} is not Pauli"
        )
    for attribute in ("channel", "distribution_channel"):
        channel = getattr(config, attribute)
        if channel is None:
            continue
        try:
            single_use = channel.single_use_channel()
        except NotImplementedError:
            return ProtocolEligibility(
                False, f"{attribute} {channel.name!r} exposes no single-use map"
            )
        if not channel_is_pauli(single_use):
            return ProtocolEligibility(
                False, f"{attribute} {channel.name!r} is not a Pauli channel"
            )
    decoherence = config.memory_decoherence
    if decoherence is not None and not channel_is_pauli(decoherence):
        return ProtocolEligibility(
            False, f"memory decoherence {decoherence.name!r} is not Pauli"
        )
    return ProtocolEligibility(True, "all session processes are Pauli-diagonal")
