"""Protocol configuration.

:class:`SessionParameters` holds the five tunables that fix a session (§II):
identity length ``l``, DI-round size ``d``, check bits ``c`` and two
tolerances.  Every layer that runs sessions holds one, and its
:meth:`~SessionParameters.protocol_config` builds each session's
:class:`ProtocolConfig`, which adds the message length, channel model,
entanglement source, CHSH settings and seed.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

from repro.channel.quantum_channel import IdentityChainChannel, QuantumChannel
from repro.exceptions import ConfigurationError
from repro.protocol.chsh import CHSHSettings
from repro.quantum.channels import KrausChannel
from repro.protocol.identity import Identity
from repro.protocol.source import EntanglementSource
from repro.utils.checks import check_count, check_seed
from repro.utils.rng import as_rng

__all__ = ["ProtocolConfig", "SessionParameters"]


def _check_fraction(value, name: str) -> None:
    # Written so NaN fails too: every comparison with NaN is false.
    if not isinstance(value, numbers.Real) or not 0.0 <= value < 1.0:
        raise ConfigurationError(f"{name} must lie in [0, 1)")


def _check_tunables(params) -> None:
    """The checks of the five session tunables, shared by both config classes."""
    check_count(params.identity_pairs, "identity_pairs")
    check_count(params.check_pairs_per_round, "check_pairs_per_round")
    if params.num_check_bits is not None:
        check_count(params.num_check_bits, "num_check_bits", minimum=0)
    _check_fraction(params.authentication_tolerance, "authentication_tolerance")
    _check_fraction(params.check_bit_tolerance, "check_bit_tolerance")


def _pair_count(message_length, check_bits, identity_pairs, check_pairs) -> int:
    """``N + 2l + 2d`` with ``N = (n + c) / 2``: the EPR pairs one session shares."""
    return (message_length + check_bits) // 2 + 2 * identity_pairs + 2 * check_pairs


@dataclass(frozen=True)
class SessionParameters:
    """The five tunables of a protocol session, shared by every layer.

    Fields mean what they do on :class:`ProtocolConfig`, except that
    ``num_check_bits=None`` applies :meth:`ProtocolConfig.default_check_bits`
    per message (which also bumps an odd ``n + c``).  The defaults
    (``l = 2``, ``d = 32``) are the network fleet's; the paper uses
    ``l = 8``, ``d = 256``.  Construction raises
    :class:`~repro.exceptions.ConfigurationError` on an invalid tunable, so a
    scheduler never reserves a NaN or fractional qubit count.
    """

    identity_pairs: int = 2
    check_pairs_per_round: int = 32
    num_check_bits: int | None = None
    authentication_tolerance: float = 0.25
    check_bit_tolerance: float = 0.15

    def __post_init__(self):
        _check_tunables(self)

    def pairs_per_hop(self, message_length: int) -> int:
        """EPR pairs one session of *message_length* bits consumes: ``N + 2l + 2d``."""
        check_bits = ProtocolConfig.default_check_bits(message_length, self.num_check_bits)
        return _pair_count(
            message_length, check_bits, self.identity_pairs, self.check_pairs_per_round
        )

    def protocol_config(
        self, message_length: int, channel: QuantumChannel, seed, **single_link_fields
    ) -> "ProtocolConfig":
        """One session's :class:`ProtocolConfig`; *single_link_fields* set its other fields."""
        return ProtocolConfig(
            message_length=message_length,
            num_check_bits=ProtocolConfig.default_check_bits(
                message_length, self.num_check_bits
            ),
            identity_pairs=self.identity_pairs,
            check_pairs_per_round=self.check_pairs_per_round,
            authentication_tolerance=self.authentication_tolerance,
            check_bit_tolerance=self.check_bit_tolerance,
            channel=channel,
            seed=seed,
            **single_link_fields,
        )


#: ``(name, type, None allowed)`` of every object-valued :class:`ProtocolConfig` field.
_OBJECT_FIELDS = (
    ("channel", QuantumChannel, False),
    ("distribution_channel", QuantumChannel, True),
    ("source", EntanglementSource, False),
    ("chsh_settings", CHSHSettings, False),
    ("memory_decoherence", KrausChannel, True),
    ("alice_identity", Identity, True),
    ("bob_identity", Identity, True),
)


@dataclass
class ProtocolConfig:
    """All parameters of one protocol session.

    Attributes
    ----------
    message_length:
        ``n`` — number of secret message bits Alice wants to deliver.
    num_check_bits:
        ``c`` — random check bits scattered into the message; ``n + c`` must
        be even.
    identity_pairs:
        ``l`` — EPR pairs per identity; each identity is ``2l`` bits and an
        impersonator survives verification with probability ``(1/4)**l``.
    check_pairs_per_round:
        ``d`` — pairs measured per DI security-check round.
    chsh_settings:
        Measurement angles, phase convention and abort threshold for both
        security-check rounds.
    authentication_tolerance:
        Maximum fraction of identity pairs whose Bell outcome may disagree
        with the expected one before the verifying party aborts.
    check_bit_tolerance:
        Maximum fraction of check bits that may disagree before the message
        is considered corrupted.
    channel:
        The quantum channel Alice's qubits traverse when sent to Bob
        (default: the paper's η=10 identity-gate channel).
    distribution_channel:
        Optional channel applied to Bob's half during the initial
        entanglement sharing (None = ideal distribution, the paper's setting).
    source:
        The entanglement source (default: ideal ``|Φ+⟩`` source).
    memory_decoherence:
        Optional single-qubit Kraus channel applied to Alice's stored halves
        once per whole unit of hold time between the first DI security
        check and the encoding step.  ``None`` models the paper's ideal
        memory.
    memory_hold_time:
        How long (in memory time units) Alice holds her halves before
        encoding; finite and non-negative.  With an ideal memory this has
        no physical effect; with ``memory_decoherence`` set, the channel is
        applied ``int(memory_hold_time)`` times per stored qubit.  Network
        schedulers map session queueing delay onto this knob.
    alice_identity, bob_identity:
        Pre-shared identities; generated from the seed when omitted.
    seed:
        Master seed making the whole session reproducible.
    raise_on_abort:
        If True the runner raises :class:`~repro.exceptions.ProtocolAbort`
        instead of returning an aborted result.
    scenario:
        Optional declarative adversary
        (:class:`~repro.attacks.scenarios.AttackScenario`,
        :class:`~repro.attacks.scenarios.ScenarioSchedule`, a serialised
        dict of either, or the name of a registered preset).  When set and
        no explicit ``attack`` object is handed to
        :class:`~repro.protocol.runner.UADIQSDCProtocol`, the runner builds
        the attack from this spec with seed-derived randomness, so the same
        scenario spec reproduces identical adversarial behaviour across the
        protocol, service and network layers.  ``None`` (default) runs an
        honest session.
    """

    message_length: int
    num_check_bits: int
    identity_pairs: int = 8
    check_pairs_per_round: int = 256
    chsh_settings: CHSHSettings = field(default_factory=CHSHSettings)
    authentication_tolerance: float = 0.25
    check_bit_tolerance: float = 0.15
    channel: QuantumChannel = field(default_factory=lambda: IdentityChainChannel(eta=10))
    distribution_channel: QuantumChannel | None = None
    source: EntanglementSource = field(default_factory=EntanglementSource)
    memory_decoherence: KrausChannel | None = None
    memory_hold_time: float = 0.0
    alice_identity: Identity | None = None
    bob_identity: Identity | None = None
    seed: int | None = None
    raise_on_abort: bool = False
    scenario: object | None = None

    # -- constructors ------------------------------------------------------------
    @staticmethod
    def default_check_bits(message_length: int, num_check_bits: int | None = None) -> int:
        """The check-bit count for a message of *message_length* bits.

        With ``num_check_bits=None`` the paper's rule applies: roughly a
        quarter of the message length, at least 2.  Either way the count is
        adjusted upward by one if needed so ``n + c`` is even (2 bits per
        EPR pair).  This is the single implementation of the rule;
        :meth:`SessionParameters.protocol_config` applies it to every
        fragment and hop session, so they stay bit-identical to direct
        :meth:`default` configurations.
        """
        check_bits = (
            max(2, message_length // 4) if num_check_bits is None else num_check_bits
        )
        if (message_length + check_bits) % 2 != 0:
            check_bits += 1
        return check_bits

    @classmethod
    def default(
        cls,
        message_length: int,
        seed: int | None = None,
        eta: int = 10,
        identity_pairs: int = 8,
        check_pairs_per_round: int = 256,
    ) -> "ProtocolConfig":
        """A ready-to-run configuration with the paper's parameters.

        The number of check bits is chosen as roughly a quarter of the message
        length (at least 2), adjusted so ``n + c`` is even.
        """
        check_count(message_length, "message_length")
        session = SessionParameters(
            identity_pairs=identity_pairs, check_pairs_per_round=check_pairs_per_round
        )
        return session.protocol_config(message_length, IdentityChainChannel(eta=eta), seed)

    # -- derived quantities ---------------------------------------------------------
    @property
    def num_message_pairs(self) -> int:
        """``N = (n + c) / 2`` — pairs consumed by the combined message string."""
        return (self.message_length + self.num_check_bits) // 2

    @property
    def total_pairs(self) -> int:
        """``N + 2l + 2d`` — total EPR pairs shared in step 1."""
        return _pair_count(
            self.message_length, self.num_check_bits, self.identity_pairs,
            self.check_pairs_per_round,
        )

    @property
    def qubits_per_message_bit(self) -> float:
        """Transmitted qubits per *useful* message bit (1/2 pair = 1 qubit per 2 bits → 0.5...).

        The paper's Table I counts 1 qubit per message bit for the proposed
        protocol: each EPR pair carries 2 bits and consists of 2 qubits.
        """
        return (2 * self.num_message_pairs) / self.message_length

    # -- validation --------------------------------------------------------------------
    def validate(self) -> "ProtocolConfig":
        """Raise :class:`ConfigurationError` if any parameter is inconsistent."""
        check_count(self.message_length, "message_length")
        check_count(self.num_check_bits, "num_check_bits", minimum=0)
        if (self.message_length + self.num_check_bits) % 2 != 0:
            raise ConfigurationError(
                "message_length + num_check_bits must be even (2 bits per EPR pair)"
            )
        _check_tunables(self)
        check_seed(self.seed)
        # Written so NaN fails too: every comparison with NaN is false.
        hold_time = self.memory_hold_time
        if not isinstance(hold_time, numbers.Real) or not 0.0 <= hold_time < math.inf:
            raise ConfigurationError(
                f"memory_hold_time must be finite and non-negative, got {hold_time!r}"
            )
        for name, kind, optional in _OBJECT_FIELDS:
            value = getattr(self, name)
            if not (optional and value is None or isinstance(value, kind)):
                raise ConfigurationError(
                    f"{name} must be a {kind.__name__}"
                    f"{' or None' if optional else ''}, got {type(value).__name__}"
                )
        if self.memory_decoherence is not None and self.memory_decoherence.num_qubits != 1:
            raise ConfigurationError("memory_decoherence must be a single-qubit channel")
        if self.alice_identity is not None and self.alice_identity.num_pairs != self.identity_pairs:
            raise ConfigurationError(
                "alice_identity length does not match identity_pairs"
            )
        if self.bob_identity is not None and self.bob_identity.num_pairs != self.identity_pairs:
            raise ConfigurationError(
                "bob_identity length does not match identity_pairs"
            )
        if self.scenario is not None:
            from repro.attacks.scenarios import as_schedule

            try:
                as_schedule(self.scenario)
            except Exception as error:
                raise ConfigurationError(f"invalid scenario: {error}") from error
        return self

    def resolved_scenario(self):
        """The scenario normalised to a :class:`~repro.attacks.scenarios.ScenarioSchedule` (or None)."""
        if self.scenario is None:
            return None
        from repro.attacks.scenarios import as_schedule

        return as_schedule(self.scenario)

    def materialise_identities(self, rng=None) -> tuple[Identity, Identity]:
        """Return (id_A, id_B), generating any that were not supplied explicitly."""
        generator = as_rng(rng)
        alice = self.alice_identity or Identity.random(
            self.identity_pairs, owner="alice", rng=generator
        )
        bob = self.bob_identity or Identity.random(
            self.identity_pairs, owner="bob", rng=generator
        )
        return alice, bob

    def with_channel(self, channel: QuantumChannel) -> "ProtocolConfig":
        """A copy of the configuration with a different quantum channel."""
        return replace(self, channel=channel)

    def with_seed(self, seed: int | None) -> "ProtocolConfig":
        """A copy of the configuration with a different master seed."""
        return replace(self, seed=seed)

    def with_memory(
        self, decoherence: KrausChannel | None, hold_time: float
    ) -> "ProtocolConfig":
        """A copy with a different storage-memory model for Alice's hold period."""
        return replace(
            self, memory_decoherence=decoherence, memory_hold_time=hold_time
        )

    def with_scenario(self, scenario) -> "ProtocolConfig":
        """A copy with a declarative adversarial scenario (None = honest)."""
        return replace(self, scenario=scenario)
