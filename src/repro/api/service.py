"""The :class:`MessagingService` facade — one entry point for every backend.

The service turns an application payload into protocol traffic::

    from repro import MessagingService, ServiceConfig

    service = MessagingService(ServiceConfig.ideal(seed=7))
    report = service.send("любой text 🙂")
    assert report.success and report.delivered_payload == "любой text 🙂"

Pipeline of one :meth:`MessagingService.send` call:

1. **Encode** — the payload (bytes / text / bits) becomes a bit sequence
   (:mod:`repro.api.codec`).
2. **Fragment** — the bits are split into protocol-sized fragments with
   framing headers and CRCs (:mod:`repro.api.fragmentation`); with
   ``framing=False`` the payload travels as one raw fragment instead.
3. **Deliver** — each attempt wave hands the outstanding fragments to the
   configured :class:`~repro.api.backends.Backend` with deterministic
   per-``(fragment, attempt)`` seeds.
4. **Verify** — delivered frames are parsed and checked (header fields +
   CRC); a fragment whose session aborted *or* whose frame failed
   verification is retransmitted with the next attempt seed, up to
   ``max_retries`` times.
5. **Reassemble** — verified fragment payloads are concatenated and decoded
   back into the payload type, and everything observed along the way is
   returned as one :class:`~repro.api.report.DeliveryReport`.

Determinism: given a fixed :class:`~repro.api.config.ServiceConfig` seed the
whole delivery — fragment seeds, retransmission schedule, delivered bits —
is reproducible, and the local and batch backends are bit-identical.
"""

from __future__ import annotations

from typing import Any

from repro.api.backends import FragmentJob
from repro.api.codec import decode_payload, encode_payload
from repro.api.config import ServiceConfig
from repro.api.fragmentation import (
    HEADER_BITS,
    FragmentFrame,
    ParsedFrame,
    fragment_payload,
    fragment_seed,
    reassemble,
)
from repro.api.report import DeliveryReport, FragmentRecord
from repro.telemetry import runtime as telemetry
from repro.utils.bits import Bits
from repro.utils.checks import check_seed
from repro.utils.logging import get_logger
from repro.utils.rng import as_rng

__all__ = ["MessagingService"]

_log = get_logger("api.service")


class MessagingService:
    """Service-level facade over the UA-DI-QSDC reproduction.

    Parameters
    ----------
    config:
        The service configuration (validated on construction); defaults to
        :meth:`ServiceConfig.paper_default`.

    Thread safety
    -------------
    One service instance may serve concurrent :meth:`send` calls — the
    contract the delivery runtime's worker pool
    (:class:`~repro.runtime.engine.DeliveryEngine`) builds on:

    * :meth:`send` itself keeps all per-send state (seeds, fragment records,
      RNG streams) in locals; ``self.config`` is a frozen dataclass and is
      never mutated after construction (``to=`` overrides produce a copy).
    * The local/batch/network backends construct their protocol sessions,
      schedulers and simulator backends per ``deliver()`` call from the
      job's own seed, so concurrent sends share no mutable protocol state.
      Shared :class:`~repro.quantum.batch.PropagatorCache` instances are
      internally locked.
    * An unseeded send (no per-send seed, no config seed) draws fresh
      entropy per call, which is thread-safe but irreproducible.
    * Telemetry counters/spans go through the module-level session, whose
      tracer and metrics registry carry their own locks.

    ``tests/api/test_service_threadsafety.py`` pins this: 16 threads
    hammering one service produce reports byte-identical to serial sends.
    """

    def __init__(self, config: "ServiceConfig | None" = None):
        self.config = (config or ServiceConfig.paper_default()).validate()
        self._backend = self.config.create_backend()

    # -- public API --------------------------------------------------------------
    def send(
        self,
        payload: Any,
        *,
        to: "str | None" = None,
        kind: str = "auto",
        seed: "int | None" = None,
    ) -> DeliveryReport:
        """Deliver *payload* and return the unified :class:`DeliveryReport`.

        Parameters
        ----------
        payload:
            ``bytes``, ``str`` (UTF-8 text), or a bit sequence; see
            :func:`repro.api.codec.encode_payload`.
        to:
            Target node name for the network backend (overrides
            ``config.target``); recorded as metadata for the others.
        kind:
            Payload kind override (``"auto"`` detects from the type; pass
            ``"bits"`` to send a ``'0'``/``'1'`` string as raw bits).
        seed:
            Per-send seed override, None or a non-negative integer (defaults
            to ``config.seed``; None there too draws fresh entropy, making
            the send irreproducible).
        """
        config = self.config
        backend = self._backend
        if to is not None and config.backend == "network":
            config = config.with_network(target=to)

        base_seed = check_seed(seed if seed is not None else config.seed)
        if base_seed is None:
            base_seed = int(as_rng(None).integers(0, 2**63 - 1))

        payload_bits, resolved_kind = encode_payload(payload, kind)
        if config.framing:
            frames = fragment_payload(payload_bits, config.fragment_bits)
        else:
            frames = [None]

        with telemetry.span(
            "service.send",
            "service",
            {
                "backend": backend.name,
                "fragments": len(frames),
                "payload_bits": len(payload_bits),
            },
        ) as send_span:
            report = self._deliver(
                config, backend, payload, payload_bits, resolved_kind, frames, base_seed, to
            )
            send_span.attributes["success"] = report.success
        return report

    def _deliver(
        self,
        config: ServiceConfig,
        backend: Any,
        payload: Any,
        payload_bits: Bits,
        resolved_kind: str,
        frames: list,
        base_seed: int,
        to: "str | None",
    ) -> DeliveryReport:
        """The attempt-wave loop of one send (split out to sit inside the span)."""
        records = {
            index: FragmentRecord(
                index=index,
                num_payload_bits=(
                    len(payload_bits) if frame is None else len(frame.payload)
                ),
            )
            for index, frame in enumerate(frames)
        }
        delivered_payloads: dict[int, Bits] = {}
        pending = set(records)

        for attempt in range(config.max_retries + 1):
            # In unframed mode the first attempt uses the service seed
            # directly, so a single-fragment facade send reproduces a direct
            # ``UADIQSDCProtocol(config).run(...)`` session bit for bit — the
            # guarantee the migrated ``e2e`` experiment and the
            # facade-overhead benchmark rely on.  Framed sends (and every
            # retransmission) derive well-separated per-(fragment, attempt)
            # seeds instead.
            jobs = [
                FragmentJob(
                    index=index,
                    bits=self._wire_bits(frames[index], payload_bits),
                    seed=(
                        base_seed
                        if not config.framing and attempt == 0
                        else fragment_seed(base_seed, index, attempt)
                    ),
                    attempt=attempt,
                )
                for index in sorted(pending)
            ]
            if attempt > 0:
                telemetry.counter_inc(
                    "service.retransmissions", len(jobs), backend=backend.name
                )
                _log.info(
                    "retransmitting %d fragment(s) %s attempt=%d (trace_id=%s)",
                    len(jobs),
                    sorted(pending),
                    attempt,
                    telemetry.current_trace_id(),
                )
            with telemetry.span(
                "service.attempt_wave",
                "service",
                {"attempt": attempt, "fragments": len(jobs)},
            ):
                deliveries = backend.deliver(jobs, config)
            for delivery in deliveries:
                index = delivery.job.index
                record = delivery.record
                payload_ok, fragment_bits_out = self._verify(
                    delivery.success,
                    delivery.delivered_bits,
                    frames[index],
                    len(frames),
                )
                record.frame_intact = payload_ok
                records[index].attempts.append(record)
                if delivery.success and not payload_ok:
                    # The session delivered bits but the frame failed
                    # verification (header mismatch or CRC) — the condition
                    # the crc_failures counter tracks.
                    telemetry.counter_inc(
                        "service.crc_failures", backend=backend.name
                    )
                    _log.debug(
                        "fragment %d attempt %d failed frame verification"
                        " (trace_id=%s)",
                        index,
                        attempt,
                        telemetry.current_trace_id(),
                    )
                if payload_ok and fragment_bits_out is not None:
                    delivered_payloads[index] = fragment_bits_out
                    records[index].delivered = True
                    records[index].payload = fragment_bits_out
                    pending.discard(index)
            if not pending:
                break

        success = not pending
        delivered_payload = None
        if success:
            assembled = reassemble(delivered_payloads, len(frames))
            delivered_payload = decode_payload(assembled, resolved_kind)

        return DeliveryReport(
            success=success,
            backend=backend.name,
            payload_kind=resolved_kind,
            sent_payload=payload,
            delivered_payload=delivered_payload,
            num_payload_bits=len(payload_bits),
            num_fragments=len(frames),
            fragments=[records[index] for index in sorted(records)],
            metadata={
                **config.describe(),
                "seed": base_seed,
                "to": to,
            },
        )

    # -- helpers -----------------------------------------------------------------
    @staticmethod
    def _wire_bits(frame: "FragmentFrame | None", payload_bits: Bits) -> Bits:
        """The bits one fragment puts on the wire (framed or raw)."""
        return payload_bits if frame is None else frame.to_bits()

    @staticmethod
    def _verify(
        success: bool,
        delivered: "Bits | None",
        frame: "FragmentFrame | None",
        total: int,
    ) -> "tuple[bool, Bits | None]":
        """Judge one delivered fragment; return (accepted, fragment payload).

        Framed mode parses the delivered bits and checks every header field
        against what the receiver expects plus the payload CRC; raw mode
        (framing disabled) accepts whatever the protocol session delivered,
        matching direct-``UADIQSDCProtocol`` semantics.
        """
        if not success or delivered is None:
            return False, None
        if frame is None:
            return True, delivered
        if len(delivered) != HEADER_BITS + len(frame.payload):
            return False, None
        parsed = ParsedFrame.parse(delivered)
        if not parsed.matches(frame.index, total):
            return False, None
        return True, parsed.payload
