"""Multi-hop QSDC sessions: trusted-relay forwarding over a route.

A network session delivers one message from a source user to a target user
along a :class:`~repro.network.routing.Route`.  QSDC has no entanglement
swapping in this architecture — the paper's protocol is point to point — so
forwarding is *trusted relay*: every hop runs a complete UA-DI-QSDC session
(entanglement sharing, both DI checks, mutual authentication, decoding)
between its two endpoint nodes, and the relay re-encodes the bits it decoded
as the message of the next hop.  Consequences modelled here:

* a hop abort (CHSH failure, authentication failure, integrity failure)
  aborts the whole session at that hop;
* channel bit errors *accumulate* across hops (each relay forwards exactly
  the bits it decoded, errors included);
* a compromised relay attacks every hop it terminates — and is caught by
  that hop's DI check / authentication exactly like a man-in-the-middle,
  which is the relay-compromise scenario the network experiments study;
* the source's queueing delay (from the scheduler) becomes quantum-memory
  hold time on the first hop, applying storage decoherence if the source
  node's memory is non-ideal.

Everything is deterministic given the session seed: per-hop seeds, the
message bits and any attack randomness derive from it via
:mod:`repro.utils.rng`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.exceptions import NetworkError
from repro.network.routing import Route
from repro.network.topology import NetworkTopology
from repro.protocol.config import ProtocolConfig
from repro.protocol.runner import UADIQSDCProtocol
from repro.telemetry import runtime as telemetry
from repro.utils.bits import (
    Bits,
    bits_to_str,
    bitstring_to_bits,
    hamming_distance,
    random_bits,
)
from repro.utils.rng import as_rng, derive_rng

__all__ = [
    "STATUS_DELIVERED",
    "STATUS_DELIVERED_WITH_ERRORS",
    "STATUS_ABORTED",
    "STATUS_REJECTED",
    "SessionRequest",
    "SessionParameters",
    "HopReport",
    "SessionOutcome",
    "run_session",
]

#: Terminal session statuses.
STATUS_DELIVERED = "delivered"
STATUS_DELIVERED_WITH_ERRORS = "delivered_with_errors"
STATUS_ABORTED = "aborted"
STATUS_REJECTED = "rejected"


@dataclass(frozen=True)
class SessionRequest:
    """One user's request to send a message across the network.

    Attributes
    ----------
    session_id:
        Unique id assigned by the traffic generator (grid order = id order).
    source, target:
        Endpoint node names.
    message_length:
        Number of secret bits to deliver (the bits themselves are drawn
        deterministically from the session seed at execution time unless an
        explicit ``message`` is supplied).
    arrival_time:
        Simulation time at which the request enters the network.
    message:
        Optional explicit message bitstring to deliver.  ``None`` (the
        historical behaviour) draws random bits from the session seed; the
        messaging-service facade sets this to carry real payload fragments
        across the network.
    seed:
        Optional explicit per-session seed.  ``None`` (the historical
        behaviour) lets the scheduler derive one from its own seed; the
        facade sets it so retransmission seeds stay deterministic per
        fragment and attempt.
    scenario:
        Optional declarative adversary
        (:class:`~repro.attacks.scenarios.AttackScenario`,
        :class:`~repro.attacks.scenarios.ScenarioSchedule`, a serialised
        dict, or a registered preset name) attacking *this* session.  Each
        hop runs under the sub-schedule whose target layers select it
        (``source`` → first hop, ``channel``/``classical`` → every hop,
        ``relay`` → only hops of multi-hop routes); a compromised node's
        own ``attack_factory`` takes precedence on the hops it touches.
        ``None`` (default) leaves the session honest.
    priority:
        QoS class of the request (conventionally ``control`` /
        ``interactive`` / ``bulk``, but any non-empty label works).  The
        scheduler's weighted-fair admission uses it only when a
        :class:`~repro.network.scheduler.QoSPolicy` is configured; without
        one every class is served FIFO exactly as before.
    """

    session_id: int
    source: str
    target: str
    message_length: int
    arrival_time: float
    message: "str | None" = None
    seed: "int | None" = None
    scenario: Any = None
    priority: str = "bulk"

    def __post_init__(self):
        if self.source == self.target:
            raise NetworkError("session source and target must differ")
        if not self.priority:
            raise NetworkError("priority must be a non-empty class name")
        if self.message_length < 1:
            raise NetworkError("message_length must be positive")
        if self.arrival_time < 0:
            raise NetworkError("arrival_time must be non-negative")
        if self.message is not None:
            if not all(ch in "01" for ch in self.message):
                raise NetworkError("message must be a '0'/'1' bitstring")
            if len(self.message) != self.message_length:
                raise NetworkError(
                    f"message holds {len(self.message)} bits but message_length "
                    f"is {self.message_length}"
                )
        if self.scenario is not None:
            from repro.attacks.scenarios import as_schedule

            try:
                as_schedule(self.scenario)
            except Exception as error:
                raise NetworkError(f"invalid session scenario: {error}") from error


@dataclass(frozen=True)
class SessionParameters:
    """Protocol-level parameters shared by every hop of every session.

    The per-hop quantum channel always comes from the link; these are the
    remaining :class:`~repro.protocol.config.ProtocolConfig` tunables a
    network operator would fix fleet-wide.  ``simulator_backend`` selects
    every hop's pair-state engine (``"auto"`` fast paths by default — the
    dominant lever behind network-throughput performance; ``"dense"``
    reference; ``"stabilizer"`` statically verified Pauli physics per hop).
    """

    identity_pairs: int = 2
    check_pairs_per_round: int = 32
    num_check_bits: int | None = None
    authentication_tolerance: float = 0.25
    check_bit_tolerance: float = 0.15
    simulator_backend: str = "auto"

    def check_bits_for(self, message_length: int) -> int:
        """Check-bit count for a message (auto: the `ProtocolConfig.default` rule)."""
        return ProtocolConfig.default_check_bits(message_length, self.num_check_bits)

    def pairs_per_hop(self, message_length: int) -> int:
        """EPR pairs one hop consumes: ``N + 2l + 2d`` (qubits held per endpoint)."""
        message_pairs = (message_length + self.check_bits_for(message_length)) // 2
        return (
            message_pairs
            + 2 * self.identity_pairs
            + 2 * self.check_pairs_per_round
        )

    def hop_config(
        self,
        message_length: int,
        channel: Any,
        seed: int,
        memory_decoherence: Any = None,
        memory_hold_time: float = 0.0,
    ) -> ProtocolConfig:
        """Build the :class:`ProtocolConfig` for one hop."""
        return ProtocolConfig(
            message_length=message_length,
            num_check_bits=self.check_bits_for(message_length),
            identity_pairs=self.identity_pairs,
            check_pairs_per_round=self.check_pairs_per_round,
            authentication_tolerance=self.authentication_tolerance,
            check_bit_tolerance=self.check_bit_tolerance,
            channel=channel,
            memory_decoherence=memory_decoherence,
            memory_hold_time=memory_hold_time,
            seed=seed,
            simulator_backend=self.simulator_backend,
        )


@dataclass
class HopReport:
    """Compact, JSON-friendly record of one hop's protocol session."""

    sender: str
    receiver: str
    success: bool
    abort_reason: str
    chsh_round1: float | None = None
    chsh_round2: float | None = None
    check_bit_error_rate: float | None = None
    message_bit_error_rate: float | None = None
    attack: str | None = None

    def summary(self) -> dict[str, Any]:
        return {
            "sender": self.sender,
            "receiver": self.receiver,
            "success": self.success,
            "abort_reason": self.abort_reason,
            "chsh_round1": self.chsh_round1,
            "chsh_round2": self.chsh_round2,
            "check_bit_error_rate": self.check_bit_error_rate,
            "message_bit_error_rate": self.message_bit_error_rate,
            "attack": self.attack,
        }


@dataclass
class SessionOutcome:
    """The quantum-execution result of one admitted session.

    Attributes
    ----------
    session_id:
        The request's id.
    status:
        ``"delivered"`` (exact), ``"delivered_with_errors"`` (all hops
        succeeded but relayed bit errors corrupted the message), or
        ``"aborted"`` (a hop's security machinery fired).
    failed_hop:
        Index of the aborting hop (None unless aborted).
    abort_reason:
        The aborting hop's :class:`~repro.protocol.results.AbortReason` value.
    hop_reports:
        One :class:`HopReport` per executed hop, in route order.
    end_to_end_error_rate:
        Fraction of delivered bits differing from the sent message (None if
        aborted before delivery).
    sent_message, delivered_message:
        Bitstrings for auditing (delivered is None on abort).
    """

    session_id: int
    status: str
    failed_hop: int | None = None
    abort_reason: str | None = None
    hop_reports: list[HopReport] = field(default_factory=list)
    end_to_end_error_rate: float | None = None
    sent_message: str = ""
    delivered_message: str | None = None

    @property
    def delivered(self) -> bool:
        """True if the message reached the target (possibly with bit errors)."""
        return self.status in (STATUS_DELIVERED, STATUS_DELIVERED_WITH_ERRORS)

    def summary(self) -> dict[str, Any]:
        return {
            "session_id": self.session_id,
            "status": self.status,
            "failed_hop": self.failed_hop,
            "abort_reason": self.abort_reason,
            "hops": [report.summary() for report in self.hop_reports],
            "end_to_end_error_rate": self.end_to_end_error_rate,
            "sent_message": self.sent_message,
            "delivered_message": self.delivered_message,
        }


def run_session(
    topology: NetworkTopology,
    route: Route,
    request: SessionRequest,
    params: SessionParameters,
    seed: int,
    hold_time: float = 0.0,
    channel_overrides: "tuple[Any, ...] | None" = None,
) -> SessionOutcome:
    """Execute one session hop by hop along *route* (trusted-relay forwarding).

    Parameters
    ----------
    topology:
        The network (read-only during execution; safe to share across
        threads).
    route:
        The path selected by the scheduler.
    request:
        The traffic request being served.
    params:
        Fleet-wide protocol parameters.
    seed:
        Deterministic session seed (the scheduler derives it with
        :func:`repro.utils.rng.point_seed`); message bits, per-hop
        protocol randomness and attack randomness all flow from it.
    hold_time:
        Memory time units the source held its qubits while the session was
        queued; applied as storage hold on the first hop.
    channel_overrides:
        Optional per-hop quantum channels (route order), replacing each
        link's static channel.  The dynamics scheduler snapshots drifted
        channel conditions at admission time and passes them here, which
        keeps the topology itself immutable during (possibly threaded)
        execution.  ``None`` uses the links' own channels.
    """
    if route.source != request.source or route.target != request.target:
        raise NetworkError(
            f"route {route.nodes} does not serve request "
            f"{request.source!r} -> {request.target!r}"
        )
    if channel_overrides is not None and len(channel_overrides) != route.num_hops:
        raise NetworkError(
            f"channel_overrides holds {len(channel_overrides)} channels for a "
            f"{route.num_hops}-hop route"
        )
    with telemetry.span(
        "network.session",
        "network",
        {
            "session_id": request.session_id,
            "source": request.source,
            "target": request.target,
            "hops": len(route.nodes) - 1,
        },
    ) as span:
        outcome = _run_hops(
            topology, route, request, params, seed, hold_time, channel_overrides
        )
        span.attributes["status"] = outcome.status
    return outcome


def _run_hops(
    topology: NetworkTopology,
    route: Route,
    request: SessionRequest,
    params: SessionParameters,
    seed: int,
    hold_time: float,
    channel_overrides: "tuple[Any, ...] | None" = None,
) -> SessionOutcome:
    rng = as_rng(int(seed))
    if request.message is not None:
        message: Bits = bitstring_to_bits(request.message)
        # Keep the derivation sequence identical to the random-message path
        # so every downstream per-hop seed is unchanged by supplying a
        # message explicitly.
        derive_rng(rng, "message")
    else:
        message = random_bits(request.message_length, rng=derive_rng(rng, "message"))

    outcome = SessionOutcome(
        session_id=request.session_id,
        status=STATUS_DELIVERED,
        sent_message=bits_to_str(message),
    )
    schedule = None
    if request.scenario is not None:
        from repro.attacks.scenarios import as_schedule

        schedule = as_schedule(request.scenario)

    current = message
    hops = list(route.hops())
    for index, (sender, receiver) in enumerate(hops):
        link = topology.link(sender, receiver)
        hop_seed = int(derive_rng(rng, "hop", index).integers(0, 2**31 - 1))

        attack = None
        for endpoint in (sender, receiver):
            node = topology.node(endpoint)
            if node.compromised:
                attack = node.attack_factory(derive_rng(rng, "attack", index))
                break
        if attack is None and schedule is not None:
            # The request-level adversary attacks the hops its target layers
            # select.  The derivation tag differs from the compromised-node
            # path so the two adversary sources stay independent streams.
            hop_schedule = schedule.subschedule_for_hop(index, len(hops))
            if hop_schedule is not None:
                attack = hop_schedule.build(derive_rng(rng, "scenario", index))

        channel = (
            channel_overrides[index]
            if channel_overrides is not None
            else link.quantum_channel
        )
        config = params.hop_config(
            message_length=len(current),
            channel=channel,
            seed=hop_seed,
            memory_decoherence=topology.node(sender).memory_decoherence,
            memory_hold_time=hold_time if index == 0 else 0.0,
        )
        with telemetry.span(
            "network.hop",
            "network",
            {"hop": index, "sender": sender, "receiver": receiver},
        ) as hop_span:
            result = UADIQSDCProtocol(config, attack=attack).run(current)
            hop_span.attributes["success"] = result.success

        outcome.hop_reports.append(
            HopReport(
                sender=sender,
                receiver=receiver,
                success=result.success,
                abort_reason=result.abort_reason.value,
                chsh_round1=None if result.chsh_round1 is None else result.chsh_round1.value,
                chsh_round2=None if result.chsh_round2 is None else result.chsh_round2.value,
                check_bit_error_rate=result.check_bit_error_rate,
                message_bit_error_rate=result.message_bit_error_rate,
                attack=None if attack is None else getattr(attack, "name", "attack"),
            )
        )
        if not result.success:
            outcome.status = STATUS_ABORTED
            outcome.failed_hop = index
            outcome.abort_reason = result.abort_reason.value
            return outcome
        current = result.delivered_message

    errors = hamming_distance(current, message) / len(message)
    outcome.end_to_end_error_rate = errors
    outcome.delivered_message = bits_to_str(current)
    if errors > 0:
        outcome.status = STATUS_DELIVERED_WITH_ERRORS
    return outcome
