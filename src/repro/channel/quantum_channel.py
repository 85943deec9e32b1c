"""Quantum channel models.

The paper emulates the quantum channel between Alice and Bob as a sequence of
``η`` identity gates on the hardware: an ideal channel is ``U_C = I`` while a
real channel is a noisy approximation whose error grows with ``η`` (each
identity gate takes 60 ns and fails with probability ``2.41e-4`` on
``ibm_brisbane``).  :class:`IdentityChainChannel` reproduces exactly that
model and is what the Fig. 2 / Fig. 3 experiments sweep.

All channels expose two complementary interfaces:

* :meth:`QuantumChannel.extend_circuit` — append the channel's gate sequence
  to a :class:`~repro.quantum.circuit.QuantumCircuit` (this is how the paper's
  emulation composes Alice's and Bob's operations into one circuit);
* :meth:`QuantumChannel.transmit_batch` — apply the channel's noise map
  directly to :class:`~repro.quantum.density.DensityMatrix` pair states,
  which the protocol runner uses when it simulates pairs analytically
  instead of via full circuits (:meth:`~QuantumChannel.transmit` is its
  one-state case).
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Callable, Sequence
from dataclasses import dataclass, replace

from repro.device.calibration import (
    IBM_BRISBANE_ID_DURATION,
    IBM_BRISBANE_ID_ERROR,
    IBM_BRISBANE_T1,
    IBM_BRISBANE_T2,
)
from repro.exceptions import ChannelError
from repro.quantum.channels import (
    KrausChannel,
    depolarizing_channel,
    identity_channel,
    thermal_relaxation_channel,
)
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.density import DensityMatrix, PairTable, map_distinct

__all__ = [
    "QuantumChannel",
    "NoiselessChannel",
    "DepolarizingChannel",
    "IdentityChainChannel",
    "FiberLossChannel",
]


def _check_finite(value: float, name: str, positive: bool = False) -> None:
    """Raise :class:`ChannelError` unless *value* is finite and ≥ 0 (> 0 if *positive*)."""
    if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
        bound = "positive" if positive else "non-negative"
        raise ChannelError(f"{name} must be finite and {bound}, got {value!r}")


def _built_once(
    build: Callable[["QuantumChannel"], KrausChannel],
) -> Callable[["QuantumChannel"], KrausChannel]:
    """Keep the single-use map *build* returns on the channel object.

    Channels are values whose map never changes, so it is composed on the
    first call only.  Racing first calls may each build it; the copies are
    equal, so no lock is needed.
    """

    @functools.wraps(build)
    def single_use_channel(self: "QuantumChannel") -> KrausChannel:
        channel = self.__dict__.get("_single_use_channel")
        if channel is None:
            channel = self.__dict__["_single_use_channel"] = build(self)
        return channel

    return single_use_channel


class QuantumChannel:
    """Interface for one-qubit transmission channels between Alice and Bob.

    A channel is a value: its noise map is fixed by its parameters (the
    dataclass channels below are frozen), so each object builds its
    :meth:`single_use_channel` once and :meth:`transmit_batch` outputs are
    shared by every session over an equal map.  Subclasses must keep that
    rule: the map a channel returns is an immutable value.  A subclass that
    samples a random error realization per use overrides
    :meth:`transmit_batch` only; :meth:`transmit` is its one-state case.
    """

    #: Human-readable channel name.
    name: str = "quantum_channel"

    def single_use_channel(self) -> KrausChannel:
        """The CPTP map applied to one qubit per traversal of the channel.

        Treat the returned map as read-only: the channel classes here build
        it once per channel object and hand out the same map on every call.
        """
        raise NotImplementedError

    def duration(self) -> float:
        """Wall-clock time (seconds) one qubit spends in the channel."""
        return 0.0

    def extend_circuit(self, circuit: QuantumCircuit, qubit: int) -> QuantumCircuit:
        """Append the channel's gate realisation for *qubit* to *circuit*.

        The default realisation is a no-op; :class:`IdentityChainChannel`
        overrides it with the η identity gates of the paper's emulation.
        """
        return circuit

    def transmit(self, state: DensityMatrix, qubit: int) -> DensityMatrix:
        """Send one qubit of *state* through the channel and return the new state.

        The one-state case of :meth:`transmit_batch`.
        """
        return self.transmit_batch([state], qubit)[0]

    def transmit_batch(
        self, states: "PairTable | Sequence[DensityMatrix]", qubit: int
    ) -> "PairTable | list[DensityMatrix]":
        """Send qubit *qubit* of every state through the channel.

        One :func:`~repro.quantum.density.map_distinct` lookup per distinct
        state: a session's :class:`~repro.quantum.density.PairTable` gives a
        table with the same ids, and a sequence the list aligned with it.
        Each lookup is tagged with *qubit* and the map's
        :meth:`~repro.quantum.channels.KrausChannel.content_key`, so every
        session over an equal map shares the (read-only) outputs.  A miss
        applies the map to the live state: each output is exactly the bytes
        of ``state.apply_kraus(self.single_use_channel().kraus_operators, [qubit])``.
        A subclass that samples a random error realization per use must
        override this method, e.g. with
        :meth:`~repro.quantum.density.PairTable.map_pairs`; otherwise equal
        pairs would share one realization.
        """
        channel = self.single_use_channel()
        return map_distinct(
            ("transmit", qubit, *channel.content_key()),
            states,
            lambda live: channel.apply(live, [qubit]),
        )

    def survival_probability(self) -> float:
        """Probability that a traversal applies no error at all (analytic estimate)."""
        return 1.0

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class NoiselessChannel(QuantumChannel):
    """An ideal channel ``U_C = I`` (the paper's closed-system assumption)."""

    name = "noiseless"

    @_built_once
    def single_use_channel(self) -> KrausChannel:
        return identity_channel()


@dataclass(frozen=True)
class DepolarizingChannel(QuantumChannel):
    """A single-use depolarizing channel — the canonical *Pauli* link model.

    ``ρ → (1 − p) ρ + p I/2``, i.e. :func:`~repro.quantum.channels.depolarizing_channel`:
    the identity with weight ``1 − 3p/4`` and each of X, Y, Z with weight
    ``p/4``.  On one half of ``|Φ+⟩`` it shrinks the CHSH value to
    ``(1 − p)·2√2``.  Unlike :class:`IdentityChainChannel` (whose
    thermal-relaxation component is not a Pauli map), this channel is a
    stochastic Pauli mixture, so it keeps Bell pairs Bell-diagonal.  The
    security-analysis experiment (``fig_security``) uses it as its default
    link.

    Parameters
    ----------
    probability:
        Probability ``p`` of replacing the qubit by the maximally mixed
        state per channel use, in [0, 1].
    """

    probability: float = 0.01

    def __post_init__(self):
        if not 0.0 <= self.probability <= 1.0:
            raise ChannelError("depolarizing probability must lie in [0, 1]")

    @property
    def name(self) -> str:
        return f"depolarizing(p={self.probability:g})"

    @_built_once
    def single_use_channel(self) -> KrausChannel:
        return depolarizing_channel(self.probability)


@dataclass(frozen=True)
class IdentityChainChannel(QuantumChannel):
    """The paper's η-identity-gate channel.

    Parameters
    ----------
    eta:
        Number of identity gates the transmitted qubit traverses
        (``10 <= η <= 700`` in the paper's Fig. 3 sweep).
    gate_error:
        Error probability per identity gate; defaults to the ``ibm_brisbane``
        median ``2.41e-4`` quoted in the paper.
    gate_duration:
        Duration of one identity gate; defaults to 60 ns.
    t1, t2:
        Relaxation times used for the decoherence accumulated while the qubit
        idles in the channel; default to the ``ibm_brisbane`` medians.
    include_thermal_relaxation:
        If True (default), the per-gate map is depolarizing + thermal
        relaxation; if False it is depolarizing only (ablation knob).
    """

    eta: int = 10
    gate_error: float = IBM_BRISBANE_ID_ERROR
    gate_duration: float = IBM_BRISBANE_ID_DURATION
    t1: float = IBM_BRISBANE_T1
    t2: float = IBM_BRISBANE_T2
    include_thermal_relaxation: bool = True

    def __post_init__(self):
        try:
            eta = operator.index(self.eta)
        except TypeError:
            raise ChannelError(f"eta must be an integer, got {self.eta!r}") from None
        if eta < 0:
            raise ChannelError(f"eta must be non-negative, got {eta}")
        if not 0.0 <= self.gate_error <= 1.0:
            raise ChannelError("gate_error must lie in [0, 1]")
        _check_finite(self.gate_duration, "gate_duration")
        _check_finite(self.t1, "t1", positive=True)
        _check_finite(self.t2, "t2", positive=True)

    @property
    def name(self) -> str:
        return f"identity_chain(eta={self.eta})"

    # -- analytic quantities ---------------------------------------------------------
    def duration(self) -> float:
        """Total channel duration ``η * gate_duration`` (0.6 µs at η=10)."""
        return self.eta * self.gate_duration

    def survival_probability(self) -> float:
        """``(1 - p_e)**η`` — the paper's probability that the channel stays error-free."""
        return (1.0 - self.gate_error) ** self.eta

    @_built_once
    def single_use_channel(self) -> KrausChannel:
        """The full-traversal map: the per-gate map composed η times.

        The composed Kraus set grows multiplicatively; for large η the
        depolarizing + relaxation composition is collapsed analytically by
        composing the η-step depolarizing probability and the η-step
        relaxation instead of multiplying Kraus operators, which keeps the
        operator count constant.  The map is built on the first call and
        the same object is returned afterwards (the channel is frozen);
        treat it as read-only.
        """
        if self.eta == 0:
            return identity_channel()
        # Effective depolarizing probability after eta applications:
        # each step keeps the Bloch vector with factor (1 - p), so the
        # composite shrink factor is (1 - p)**eta.
        effective_p = 1.0 - (1.0 - self.gate_error) ** self.eta
        channel = depolarizing_channel(effective_p)
        if self.include_thermal_relaxation and self.gate_duration > 0:
            channel = channel.compose(
                thermal_relaxation_channel(self.t1, self.t2, self.duration())
            )
        channel.name = self.name
        return channel

    # -- circuit realisation ------------------------------------------------------------
    def extend_circuit(self, circuit: QuantumCircuit, qubit: int) -> QuantumCircuit:
        """Append η identity gates on *qubit*, exactly as the paper's emulation does.

        The chain is stored as one run-length-encoded instruction
        (``repetitions=η``); simulation semantics are identical to η separate
        ``id`` gates, but construction and structure hashing are O(1).
        """
        return circuit.repeat("id", qubit, self.eta)

    def with_eta(self, eta: int) -> "IdentityChainChannel":
        """A copy of this channel with a different η (used by the Fig. 3 sweep)."""
        return replace(self, eta=eta)


@dataclass(frozen=True)
class FiberLossChannel(QuantumChannel):
    """A fibre channel parameterised by length, for km-scale extensions.

    The paper sweeps channel length in identity-gate counts; deployments
    would sweep kilometres of fibre instead.  Photon loss at ``attenuation_db_per_km``
    is modelled as replacement of the qubit by the maximally mixed state with
    the loss probability (an erasure conservatively mapped onto a fully
    depolarizing event, since the protocol discards inconclusive detections),
    plus optional dephasing per kilometre.
    """

    length_km: float = 1.0
    attenuation_db_per_km: float = 0.2
    dephasing_per_km: float = 0.0
    speed_km_per_s: float = 2.0e5

    def __post_init__(self):
        _check_finite(self.length_km, "length_km")
        _check_finite(self.attenuation_db_per_km, "attenuation_db_per_km")
        if not 0.0 <= self.dephasing_per_km <= 1.0:
            raise ChannelError("dephasing_per_km must lie in [0, 1]")
        _check_finite(self.speed_km_per_s, "speed_km_per_s", positive=True)

    @property
    def name(self) -> str:
        return f"fiber(length={self.length_km}km)"

    def transmission_probability(self) -> float:
        """Probability that the photon is not lost: ``10**(-attenuation*L/10)``."""
        return 10.0 ** (-self.attenuation_db_per_km * self.length_km / 10.0)

    def survival_probability(self) -> float:
        return self.transmission_probability()

    def duration(self) -> float:
        """Propagation delay of the fibre."""
        return self.length_km / self.speed_km_per_s

    @_built_once
    def single_use_channel(self) -> KrausChannel:
        loss_probability = 1.0 - self.transmission_probability()
        channel = depolarizing_channel(loss_probability)
        if self.dephasing_per_km > 0 and self.length_km > 0:
            total_dephasing = 1.0 - (1.0 - self.dephasing_per_km) ** self.length_km
            from repro.quantum.channels import phase_damping_channel

            channel = channel.compose(phase_damping_channel(total_dephasing))
        channel.name = self.name
        return channel
