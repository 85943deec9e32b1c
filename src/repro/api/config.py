"""Service configuration: a fluent builder over every execution mode.

:class:`ServiceConfig` is the one knob surface of the messaging facade.  It
is an immutable dataclass; every ``with_*`` method returns a modified copy,
so configurations compose fluently::

    config = (ServiceConfig.paper_default()
              .with_backend("batch")
              .with_fragment_bits(32)
              .with_seed(7))

Presets
-------
=====================  ========================================================
``paper_default()``    The paper's single-link parameters: η=10 identity-gate
                       channel, 8 identity pairs, 256 check pairs per DI round.
``ideal()``            Noiseless channel, lighter DI rounds (128 check pairs)
                       — the fastest way to demonstrate the protocol logic.
``noisy_nisq()``       η=50 identity-gate channel (≈3 µs NISQ link), 128 check
                       pairs — errors appear but deliveries mostly succeed.
``networked(topology)``  Multi-hop trusted-relay delivery through the network
                       scheduler (2 identity pairs, 32 check pairs per hop);
                       pair with ``send(..., to="node")``.
=====================  ========================================================

``session`` holds the protocol tunables every backend runs with
(:meth:`ServiceConfig.with_session` changes them); the single-link fields
complete each fragment's :class:`~repro.protocol.config.ProtocolConfig`; the
service-level fields control fragmentation, retransmission and backends.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro.api.fragmentation import MAX_FRAGMENT_BITS
from repro.channel.quantum_channel import (
    IdentityChainChannel,
    NoiselessChannel,
    QuantumChannel,
)
from repro.exceptions import ConfigurationError
from repro.protocol.config import ProtocolConfig, SessionParameters
from repro.protocol.identity import Identity
from repro.quantum.channels import KrausChannel
from repro.utils.checks import check_count, check_seed

__all__ = ["BACKEND_NAMES", "ServiceConfig"]

#: Backend names accepted by :meth:`ServiceConfig.with_backend`.
BACKEND_NAMES = ("local", "batch", "network")

#: Single-link fields: the network backend takes them from its topology.
_PER_FRAGMENT_FIELDS = (
    "channel", "distribution_channel", "memory_decoherence", "memory_hold_time",
    "alice_identity", "bob_identity",
)

#: The paper's session (l = 8, d = 256) and the presets' lighter one.
_PAPER_SESSION = SessionParameters(identity_pairs=8, check_pairs_per_round=256)
_LIGHT_SESSION = SessionParameters(identity_pairs=8, check_pairs_per_round=128)

#: Executors the batch/network backends accept (``"process"`` is excluded:
#: fragment workers close over live channel/attack objects, which are not
#: generally picklable — the same constraint as the network scheduler).
API_EXECUTORS = ("serial", "thread")


@dataclass(frozen=True)
class ServiceConfig:
    """Immutable configuration of a :class:`~repro.api.service.MessagingService`.

    Attributes
    ----------
    backend:
        Execution backend: ``"local"`` (sequential single-link sessions),
        ``"batch"`` (fragment fan-out through the parallel sweep substrate)
        or ``"network"`` (multi-hop delivery through the network scheduler).
    fragment_bits:
        Payload bits per fragment (framing overhead is added on top).
    framing:
        If True (default) fragments travel with the 64-bit header + CRC of
        :mod:`repro.api.fragmentation`.  If False the payload is sent as one
        raw, unframed fragment — bit-identical to calling
        :class:`~repro.protocol.runner.UADIQSDCProtocol` directly, at the
        cost of losing reassembly metadata and CRC verification.
    max_retries:
        Retransmissions allowed per fragment after an abort or a failed
        frame verification (0 disables retransmission); a non-negative
        integer of any integer type.
    seed:
        Service-level master seed, None or a non-negative integer; every
        fragment/attempt seed derives from it (None = fresh entropy per send).
    session:
        The :class:`~repro.protocol.config.SessionParameters` of every
        fragment session and network hop, on every backend.
    channel, distribution_channel, memory_decoherence, memory_hold_time,
    alice_identity, bob_identity:
        Single-link parameters of each fragment's ProtocolConfig; the network
        backend rejects them unless left at their defaults.
    attack_factory:
        Optional ``(fragment_index, attempt, rng) -> attack | None`` hook for
        security studies through the facade (local/batch backends; network
        nodes are compromised via the topology instead).
    scenario:
        Optional declarative adversary
        (:class:`~repro.attacks.scenarios.AttackScenario`,
        :class:`~repro.attacks.scenarios.ScenarioSchedule`, a serialised
        dict, or a registered preset name).  On the local/batch backends it
        is mapped onto every fragment's
        :attr:`~repro.protocol.config.ProtocolConfig.scenario`, so each
        fragment session builds the attack deterministically from its own
        seed; on the network backend it rides the per-fragment
        :class:`~repro.network.sessions.SessionRequest` and applies to the
        hops its target layer selects.  Mutually exclusive with
        ``attack_factory`` (the imperative spelling).
    executor, max_workers:
        Worker pool for the batch backend and the network scheduler's
        execution pass (``"serial"`` or ``"thread"``; both produce identical
        results); ``max_workers`` is None (one per core, up to the job
        count) or a positive integer.
    topology, source, target, routing_policy, max_wait:
        Network-backend settings: the graph, default endpoints, routing
        policy and admission patience.
    """

    backend: str = "local"
    fragment_bits: int = 64
    framing: bool = True
    max_retries: int = 2
    seed: "int | None" = None
    # -- per-fragment protocol parameters ----------------------------------------
    session: SessionParameters = _PAPER_SESSION
    channel: QuantumChannel = field(default_factory=lambda: IdentityChainChannel(eta=10))
    distribution_channel: "QuantumChannel | None" = None
    memory_decoherence: "KrausChannel | None" = None
    memory_hold_time: float = 0.0
    alice_identity: "Identity | None" = None
    bob_identity: "Identity | None" = None
    attack_factory: "Callable[[int, int, Any], Any] | None" = None
    scenario: Any = None
    # -- execution ---------------------------------------------------------------
    executor: str = "thread"
    max_workers: "int | None" = None
    # -- network backend ---------------------------------------------------------
    topology: Any = None
    source: "str | None" = None
    target: "str | None" = None
    routing_policy: str = "hops"
    max_wait: "float | None" = None

    # -- presets -----------------------------------------------------------------
    @classmethod
    def paper_default(cls, seed: "int | None" = None) -> "ServiceConfig":
        """The paper's single-link parameters (η=10, l=8, d=256)."""
        return cls(seed=seed)

    @classmethod
    def ideal(cls, seed: "int | None" = None) -> "ServiceConfig":
        """Noiseless channel with lighter DI rounds — fast and error-free."""
        return cls(channel=NoiselessChannel(), session=_LIGHT_SESSION, seed=seed)

    @classmethod
    def noisy_nisq(cls, seed: "int | None" = None, eta: int = 50) -> "ServiceConfig":
        """An η-identity-gate NISQ link (default η=50 ≈ 3 µs of gates)."""
        return cls(
            channel=IdentityChainChannel(eta=eta),
            session=_LIGHT_SESSION,
            seed=seed,
        )

    @classmethod
    def networked(
        cls,
        topology: Any,
        source: "str | None" = None,
        target: "str | None" = None,
        seed: "int | None" = None,
    ) -> "ServiceConfig":
        """Multi-hop delivery through the network scheduler.

        ``source``/``target`` default to the topology's first and last node;
        ``send(..., to=...)`` overrides the target per call.  Hops run with
        the fleet's ``SessionParameters()`` (l=2, d=32), which a switch to
        the local or batch backend keeps.
        """
        return cls(backend="network", topology=topology, source=source,
                   target=target, seed=seed, session=SessionParameters())

    # -- fluent modifiers --------------------------------------------------------
    def with_backend(self, backend: str) -> "ServiceConfig":
        return replace(self, backend=backend)

    def with_fragment_bits(self, fragment_bits: int) -> "ServiceConfig":
        return replace(self, fragment_bits=fragment_bits)

    def with_framing(self, framing: bool) -> "ServiceConfig":
        return replace(self, framing=framing)

    def with_retries(self, max_retries: int) -> "ServiceConfig":
        return replace(self, max_retries=max_retries)

    def with_seed(self, seed: "int | None") -> "ServiceConfig":
        return replace(self, seed=seed)

    def with_channel(self, channel: QuantumChannel) -> "ServiceConfig":
        return replace(self, channel=channel)

    def with_distribution_channel(
        self, channel: "QuantumChannel | None"
    ) -> "ServiceConfig":
        return replace(self, distribution_channel=channel)

    def with_session(self, **changes: Any) -> "ServiceConfig":
        """A copy whose ``session`` takes *changes* (SessionParameters fields)."""
        try:
            session = replace(self.session, **changes)
        except TypeError as error:
            raise ConfigurationError(f"with_session: {error}") from None
        return replace(self, session=session)

    def with_memory(
        self, decoherence: "KrausChannel | None", hold_time: float
    ) -> "ServiceConfig":
        return replace(
            self, memory_decoherence=decoherence, memory_hold_time=hold_time
        )

    def with_identities(
        self, alice: "Identity | None", bob: "Identity | None"
    ) -> "ServiceConfig":
        return replace(self, alice_identity=alice, bob_identity=bob)

    def with_attack_factory(
        self, attack_factory: "Callable[[int, int, Any], Any] | None"
    ) -> "ServiceConfig":
        return replace(self, attack_factory=attack_factory)

    def with_scenario(self, scenario: Any) -> "ServiceConfig":
        """A copy with a declarative adversarial scenario (None = honest)."""
        return replace(self, scenario=scenario)

    def with_executor(
        self, executor: str, max_workers: "int | None" = None
    ) -> "ServiceConfig":
        return replace(self, executor=executor, max_workers=max_workers)

    def with_network(
        self,
        topology: Any = None,
        source: "str | None" = None,
        target: "str | None" = None,
        routing_policy: "str | None" = None,
        max_wait: "float | None" = None,
    ) -> "ServiceConfig":
        """Update network-backend settings (only the arguments given)."""
        updates: dict[str, Any] = {}
        if topology is not None:
            updates["topology"] = topology
        if source is not None:
            updates["source"] = source
        if target is not None:
            updates["target"] = target
        if routing_policy is not None:
            updates["routing_policy"] = routing_policy
        if max_wait is not None:
            updates["max_wait"] = max_wait
        return replace(self, **updates)

    # -- validation and mapping --------------------------------------------------
    def validate(self) -> "ServiceConfig":
        """Raise :class:`ConfigurationError` on any inconsistent setting."""
        if self.backend not in BACKEND_NAMES:
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; known: {BACKEND_NAMES}"
            )
        if check_count(self.fragment_bits, "fragment_bits") > MAX_FRAGMENT_BITS:
            raise ConfigurationError(
                f"fragment_bits must lie in 1..{MAX_FRAGMENT_BITS}, "
                f"got {self.fragment_bits}"
            )
        check_count(self.max_retries, "max_retries", minimum=0)
        check_seed(self.seed)
        if self.executor not in API_EXECUTORS:
            raise ConfigurationError(
                f"unknown executor {self.executor!r}; the service supports "
                f"{API_EXECUTORS}"
            )
        if self.max_workers is not None:
            check_count(self.max_workers, "max_workers")
        if not isinstance(self.session, SessionParameters):
            raise ConfigurationError(
                f"session must be a SessionParameters, got {type(self.session).__name__}"
            )
        if self.attack_factory is not None and self.scenario is not None:
            raise ConfigurationError(
                "attack_factory and scenario are mutually exclusive; "
                "use the declarative scenario spelling"
            )
        if self.backend == "network":
            if self.topology is None:
                raise ConfigurationError(
                    "the network backend needs a topology; use "
                    "ServiceConfig.networked(topology) or with_network(topology=...)"
                )
            if self.attack_factory is not None:
                raise ConfigurationError(
                    "attack_factory applies to the local/batch backends; "
                    "compromise a topology node or set a scenario for "
                    "network attack studies"
                )
            defaults = ServiceConfig()
            for name in _PER_FRAGMENT_FIELDS:
                if getattr(self, name) != getattr(defaults, name):
                    raise ConfigurationError(
                        f"the network backend ignores {name}: its hops run on "
                        "the links' channels and the nodes' memories"
                    )
        # Delegate per-fragment parameter validation to ProtocolConfig using a
        # representative even-length fragment.
        self.protocol_config(message_length=2, seed=0).validate()
        return self

    def protocol_config(self, message_length: int, seed: int) -> ProtocolConfig:
        """The :class:`ProtocolConfig` for one fragment of *message_length* bits.

        Check bits follow :meth:`ProtocolConfig.default_check_bits`: an
        explicit count may run as ``num_check_bits + 1`` on odd lengths.
        """
        return self.session.protocol_config(
            message_length,
            seed=seed,
            scenario=self.scenario,
            **{name: getattr(self, name) for name in _PER_FRAGMENT_FIELDS},
        )

    def create_backend(self) -> Any:
        """Instantiate the configured :class:`~repro.api.backends.Backend`."""
        from repro.api.backends import BACKENDS

        return BACKENDS[self.backend]()

    def describe(self) -> dict[str, Any]:
        """Compact JSON-friendly echo of the settings a delivery runs with."""
        scenario_label = None
        if self.scenario is not None:
            from repro.attacks.scenarios import as_schedule

            scenario_label = as_schedule(self.scenario).label
        # Network hops run on their links' channels.
        return {
            "backend": self.backend,
            **({"scenario": scenario_label} if scenario_label else {}),
            "fragment_bits": self.fragment_bits,
            "framing": self.framing,
            "max_retries": self.max_retries,
            **({} if self.backend == "network" else {"channel": self.channel.name}),
            "identity_pairs": self.session.identity_pairs,
            "check_pairs_per_round": self.session.check_pairs_per_round,
            "executor": self.executor,
        }
