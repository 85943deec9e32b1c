"""Pluggable execution backends for the messaging-service facade.

A backend turns a wave of :class:`FragmentJob` objects (one per fragment
awaiting delivery in the current attempt) into :class:`FragmentDelivery`
outcomes.  Three implementations cover the repository's execution modes:

* :class:`LocalBackend` — one sequential
  :class:`~repro.protocol.runner.UADIQSDCProtocol` session per fragment;
  the reference implementation the others must match bit for bit.
* :class:`BatchBackend` — the same sessions fanned out through
  :func:`repro.experiments.sweep.run_sweep` worker pools for throughput.
  Because every fragment's randomness derives only from its own job seed,
  Local and Batch deliveries are bit-identical under a fixed service seed
  (asserted by ``tests/api/test_service.py``).
* :class:`NetworkBackend` — multi-hop trusted-relay delivery through the
  :class:`~repro.network.scheduler.NetworkScheduler`: each fragment becomes
  one network session carrying the frame bits from ``config.source`` to
  ``config.target``.

Backends are stateless; everything they need arrives with the jobs and the
:class:`~repro.api.config.ServiceConfig`.  New execution modes plug in by
implementing the :class:`Backend` protocol and registering in
:data:`BACKENDS`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Protocol, Sequence, runtime_checkable

from repro.api.report import AttemptRecord
from repro.exceptions import ConfigurationError
from repro.protocol.runner import UADIQSDCProtocol
from repro.telemetry import runtime as telemetry
from repro.utils.bits import Bits, bits_to_str, bitstring_to_bits
from repro.utils.rng import as_rng, point_seed

__all__ = [
    "FragmentJob",
    "FragmentDelivery",
    "Backend",
    "LocalBackend",
    "BatchBackend",
    "NetworkBackend",
    "BACKENDS",
]


@dataclass(frozen=True)
class FragmentJob:
    """One fragment awaiting one delivery attempt.

    Attributes
    ----------
    index:
        Fragment position within the payload.
    bits:
        The wire bits to transport (framed or raw, the backend does not
        care).
    seed:
        Deterministic protocol seed for this attempt (see
        :func:`repro.api.fragmentation.fragment_seed`).
    attempt:
        0 for the first transmission, 1+ for retransmissions.
    """

    index: int
    bits: Bits
    seed: int
    attempt: int


@dataclass
class FragmentDelivery:
    """A backend's outcome for one job."""

    job: FragmentJob
    success: bool
    delivered_bits: "Bits | None"
    record: AttemptRecord


@runtime_checkable
class Backend(Protocol):
    """The pluggable execution contract of the messaging service."""

    name: str

    def deliver(
        self, jobs: Sequence[FragmentJob], config: Any
    ) -> list[FragmentDelivery]:
        """Execute one attempt wave and return one outcome per job, in order."""
        ...


def _execute_fragment(job: FragmentJob, config: Any) -> FragmentDelivery:
    """Run one fragment as a single protocol session (Local/Batch shared path).

    Keeping this as the one code path both single-link backends call is what
    makes Local-vs-Batch parity exact rather than statistical.
    """
    protocol_config = config.protocol_config(len(job.bits), seed=job.seed)
    attack = None
    if config.attack_factory is not None:
        attack_rng = as_rng(point_seed(job.seed, {"stream": "attack"}))
        attack = config.attack_factory(job.index, job.attempt, attack_rng)
    with telemetry.span(
        "service.fragment_attempt",
        "service",
        {"fragment": job.index, "attempt": job.attempt},
    ) as span:
        telemetry.counter_inc("service.fragment_attempts")
        result = UADIQSDCProtocol(protocol_config, attack=attack).run(job.bits)
        span.attributes["success"] = result.success
    return FragmentDelivery(
        job=job,
        success=result.success,
        delivered_bits=result.delivered_message,
        record=AttemptRecord.from_protocol_result(job.attempt, job.seed, result),
    )


class LocalBackend:
    """Sequential single-link sessions — the reference backend."""

    name = "local"

    def deliver(
        self, jobs: Sequence[FragmentJob], config: Any
    ) -> list[FragmentDelivery]:
        return [_execute_fragment(job, config) for job in jobs]


class BatchBackend:
    """Fragment fan-out through the parallel sweep substrate.

    Each job becomes one point of a :func:`repro.experiments.sweep.run_sweep`
    grid; the worker ignores the sweep-derived seed and uses the job's own,
    so results are bit-identical to :class:`LocalBackend` whatever executor
    or worker count runs the pool.
    """

    name = "batch"

    def deliver(
        self, jobs: Sequence[FragmentJob], config: Any
    ) -> list[FragmentDelivery]:
        # Looked up at call time, not imported at module level: perfbench's
        # tracer patches run_sweep on its module, and a name bound at import
        # time would bypass the patch.
        from repro.experiments.sweep import run_sweep

        if not jobs:
            return []
        by_key = {(job.index, job.attempt): job for job in jobs}

        def worker(params: dict[str, Any], _sweep_seed: int) -> FragmentDelivery:
            job = by_key[(params["fragment"], params["attempt"])]
            return _execute_fragment(job, config)

        grid = [{"fragment": job.index, "attempt": job.attempt} for job in jobs]
        sweep = run_sweep(
            worker,
            grid,
            base_seed=0,
            executor=config.executor,
            max_workers=config.max_workers,
        )
        return list(sweep.values)


class NetworkBackend:
    """Multi-hop trusted-relay delivery through the network scheduler.

    Every job becomes one :class:`~repro.network.sessions.SessionRequest`
    carrying the frame bits as its explicit message and the job seed as its
    explicit per-session seed; the scheduler then applies its usual
    admission control, routing and (optional) queueing-induced memory
    decoherence before the hop-by-hop protocol runs.
    """

    name = "network"

    def deliver(
        self, jobs: Sequence[FragmentJob], config: Any
    ) -> list[FragmentDelivery]:
        from repro.network.scheduler import NetworkScheduler
        from repro.network.sessions import SessionRequest

        if not jobs:
            return []
        source, target = self._endpoints(config)
        requests = [
            SessionRequest(
                session_id=position,
                source=source,
                target=target,
                message_length=len(job.bits),
                arrival_time=0.0,
                message=bits_to_str(job.bits),
                seed=job.seed,
                scenario=config.scenario,
            )
            for position, job in enumerate(jobs)
        ]
        scheduler = NetworkScheduler(
            config.topology,
            routing_policy=config.routing_policy,
            session_params=config.session,
            max_wait=config.max_wait,
            seed=point_seed(jobs[0].seed, {"stream": "network"}),
            executor=config.executor,
            max_workers=config.max_workers,
        )
        result = scheduler.run(_StaticTraffic(requests))
        by_id = {record.session_id: record for record in result.records}
        deliveries = []
        for position, job in enumerate(jobs):
            record = by_id[position]
            delivered = (
                None
                if record.delivered_message is None
                else bitstring_to_bits(record.delivered_message)
            )
            deliveries.append(
                FragmentDelivery(
                    job=job,
                    success=record.delivered and delivered is not None,
                    delivered_bits=delivered,
                    record=AttemptRecord.from_session_record(
                        job.attempt, job.seed, record
                    ),
                )
            )
        return deliveries

    @staticmethod
    def _endpoints(config: Any) -> tuple[str, str]:
        topology = config.topology
        names = topology.node_names
        source = config.source if config.source is not None else names[0]
        target = config.target if config.target is not None else names[-1]
        if source == target:
            raise ConfigurationError(
                f"network delivery needs distinct endpoints, got {source!r} twice"
            )
        return source, target


class _StaticTraffic:
    """A traffic generator that replays a fixed request list (ignores rng)."""

    def __init__(self, requests: Sequence[Any]):
        self.requests = list(requests)

    def generate(self, topology: Any, rng: Any = None) -> list[Any]:
        for request in self.requests:
            topology.node(request.source)
            topology.node(request.target)
        return list(self.requests)


#: Registry of backend constructors, keyed by ``ServiceConfig.backend`` name.
BACKENDS = {
    "local": LocalBackend,
    "batch": BatchBackend,
    "network": NetworkBackend,
}
