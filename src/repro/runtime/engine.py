"""The concurrent delivery engine: many clients, one ``send()`` contract.

:class:`DeliveryEngine` serves concurrent clients through the existing
:meth:`repro.api.service.MessagingService.send` contract.  Submissions pass
admission control (token-bucket rate limiting plus a bounded queue with a
backpressure policy — see :mod:`repro.runtime.admission`), fan out to a pool
of worker threads (the protocol sessions are numpy-heavy, which releases the
GIL for real parallelism), and resolve to the same
:class:`~repro.api.report.DeliveryReport` a direct facade call returns,
wrapped in a :class:`Delivery` that adds the runtime's own verdict and
timing.  :class:`AsyncDeliveryEngine` is the asyncio front: ``await
engine.send(...)`` from event-loop clients, with the same semantics.

Replay mode (determinism contract)
----------------------------------
Constructed with a ``seed``, the engine derives every request's protocol
seed deterministically from ``(seed, request_id)`` — and because a
facade send's randomness derives *only* from its own seed (the guarantee
``tests/api`` pins for the local/batch/network backends), the reports the
concurrent engine produces are **byte-identical** to the serial reference
oracle :func:`serial_reference`, for any worker count and any thread
interleaving.  This is the same serial-vs-parallel parity contract
:func:`repro.experiments.sweep.run_sweep` honours.  Admission drops are the
one thing that can break parity, so replay comparisons run with the
``block`` policy and no rate limit — the configuration :func:`replay_engine`
builds.

Graceful shutdown
-----------------
:meth:`DeliveryEngine.close` stops admission, then either drains in-flight
and queued work (``drain=True``, bounded by ``timeout``) or cancels the
queue outright.  The engine is a context manager; the ``with`` form drains
on exit.  A :func:`repro.runtime.interrupt.request_shutdown` flags the
worker loop too, so Ctrl-C on a live load run stops cleanly.
"""

from __future__ import annotations

import contextvars
import math
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.api.config import ServiceConfig
from repro.api.report import DeliveryReport
from repro.api.service import MessagingService
from repro.exceptions import ConfigurationError
from repro.runtime import interrupt
from repro.runtime.admission import AdmissionQueue, QueueEntry, TokenBucket
from repro.telemetry import runtime as telemetry
from repro.utils.logging import get_logger
from repro.utils.rng import point_seed

__all__ = [
    "AsyncDeliveryEngine",
    "Delivery",
    "DeliveryEngine",
    "SendRequest",
    "replay_engine",
    "request_seed",
    "serial_reference",
]

_log = get_logger("runtime.engine")

#: Terminal verdicts a :class:`Delivery` can carry.  ``delivered`` and
#: ``undelivered`` mean the protocol actually ran (the report tells the
#: story); the others are runtime decisions made before execution.
DELIVERY_STATUSES = (
    "delivered",
    "undelivered",
    "error",
    "rejected",
    "shed",
    "expired",
    "cancelled",
)


def request_seed(engine_seed: int, request_id: int) -> int:
    """Deterministic per-request protocol seed: the replay-mode derivation."""
    return point_seed(
        engine_seed, {"stream": "runtime.request", "request": int(request_id)}
    )


@dataclass(frozen=True)
class SendRequest:
    """One client submission, as the engine tracks it.

    Attributes
    ----------
    request_id:
        Engine-assigned admission ordinal (deterministic in replay mode:
        requests are numbered in submission order).
    payload, kind, to:
        Passed through to :meth:`MessagingService.send` unchanged.
    seed:
        The resolved per-request protocol seed (explicit caller seed, the
        replay derivation, or ``None`` for fresh entropy).
    """

    request_id: int
    payload: Any
    kind: str = "auto"
    to: "str | None" = None
    seed: "int | None" = None


@dataclass
class Delivery:
    """The runtime's outcome for one request: verdict, report, and timing."""

    request: SendRequest
    status: str
    report: "DeliveryReport | None" = None
    reason: "str | None" = None
    error: "BaseException | None" = None
    enqueued_at: float = 0.0
    started_at: "float | None" = None
    finished_at: "float | None" = None

    @property
    def ok(self) -> bool:
        """True when the payload was delivered end to end."""
        return self.status == "delivered"

    @property
    def dropped(self) -> bool:
        """True when admission control resolved the request without running it."""
        return self.status in ("rejected", "shed", "expired", "cancelled")

    @property
    def queue_wait(self) -> "float | None":
        if self.started_at is None:
            return None
        return self.started_at - self.enqueued_at

    @property
    def service_time(self) -> "float | None":
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    @property
    def latency(self) -> "float | None":
        """Sojourn time: admission to resolution (None for pre-run drops)."""
        if self.finished_at is None:
            return None
        return self.finished_at - self.enqueued_at

    def summary(self) -> dict[str, Any]:
        """JSON-friendly view; the report's summary carries the determinism."""
        return {
            "request_id": self.request.request_id,
            "status": self.status,
            "reason": self.reason,
            "seed": self.request.seed,
            "report": None if self.report is None else self.report.summary(),
        }


@dataclass
class _Tracked:
    """A request plus its future (the unit the queue and workers pass around).

    *context* is the submitter's :mod:`contextvars` context, copied at
    submission; the worker executes the request inside it, so its spans
    nest under the span open around :meth:`DeliveryEngine.submit`.
    """

    request: SendRequest
    future: "Future[Delivery]"
    context: contextvars.Context
    enqueued_at: float = 0.0


class DeliveryEngine:
    """Thread-pooled concurrent delivery behind the ``send()`` contract.

    Parameters
    ----------
    config:
        A :class:`~repro.api.config.ServiceConfig` (a service is built from
        it) or an existing :class:`MessagingService` to serve.
    max_workers:
        Worker threads executing sends concurrently.
    queue_capacity:
        Bound on the admission queue (``None`` = unbounded).
    policy:
        Backpressure policy when the queue is full: ``"block"``,
        ``"reject"`` or ``"shed_oldest"``
        (:data:`~repro.runtime.admission.BACKPRESSURE_POLICIES`).
    rate_limit, burst:
        Optional token-bucket admission rate (requests/second, bucket size).
        Under ``block`` a rate-limited submitter waits for a token; under
        the other policies it is rejected with reason ``rate_limited``.
    admission_timeout:
        Patience for queued requests: one queued longer is resolved
        ``expired`` instead of executed (``None`` = wait indefinitely).
    seed:
        Replay-mode master seed — every request without an explicit seed
        gets :func:`request_seed(seed, request_id) <request_seed>`.  ``None``
        leaves unseeded requests on fresh entropy (irreproducible).
    clock:
        Time source for admission bookkeeping (monotonic seconds by
        default; injectable for tests).
    """

    def __init__(
        self,
        config: "ServiceConfig | MessagingService",
        *,
        max_workers: int = 4,
        queue_capacity: "int | None" = None,
        policy: str = "block",
        rate_limit: "float | None" = None,
        burst: "float | None" = None,
        admission_timeout: "float | None" = None,
        seed: "int | None" = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if not 1 <= max_workers < math.inf:
            raise ConfigurationError("the engine needs at least one worker")
        self.service = (
            config
            if isinstance(config, MessagingService)
            else MessagingService(config)
        )
        self.max_workers = int(max_workers)
        self.seed = seed
        self.clock = clock
        self._queue = AdmissionQueue(
            capacity=queue_capacity, policy=policy, timeout=admission_timeout
        )
        self._bucket = None if rate_limit is None else TokenBucket(rate_limit, burst)
        self._cond = threading.Condition()
        self._accepting = True
        self._closing = False
        self._drain = True
        self._submitted = 0
        self._inflight = 0
        self.stats: dict[str, int] = {status: 0 for status in DELIVERY_STATUSES}
        self.stats["submitted"] = 0
        self.stats["max_queue_depth"] = 0
        self._workers = [
            threading.Thread(
                target=self._worker_loop,
                name=f"delivery-worker-{index}",
                daemon=True,
            )
            for index in range(self.max_workers)
        ]
        for worker in self._workers:
            worker.start()

    # -- context manager ---------------------------------------------------------
    def __enter__(self) -> "DeliveryEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close(drain=exc_info[0] is None)

    # -- submission --------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        with self._cond:
            return len(self._queue)

    def submit(
        self,
        payload: Any,
        *,
        to: "str | None" = None,
        kind: str = "auto",
        seed: "int | None" = None,
    ) -> "Future[Delivery]":
        """Admit one send; returns a future resolving to its :class:`Delivery`.

        The future is already resolved (``rejected``/``shed``) when admission
        control drops the request; it resolves from a worker thread
        otherwise.  Under the ``block`` policy this call waits for queue
        space (and rate-limit tokens) instead of dropping.
        """
        with self._cond:
            request = self._register(payload, to=to, kind=kind, seed=seed)
            tracked = _Tracked(request, Future(), contextvars.copy_context())
            telemetry.counter_inc("runtime.submitted")
            if not self._accepting:
                return self._resolve_drop(tracked, "rejected", "engine_closed")
            if self._bucket is not None and not self._acquire_token(tracked):
                return tracked.future
            return self._enqueue(tracked)

    def send(
        self,
        payload: Any,
        *,
        to: "str | None" = None,
        kind: str = "auto",
        seed: "int | None" = None,
    ) -> Delivery:
        """Blocking convenience: :meth:`submit` and wait for the outcome."""
        return self.submit(payload, to=to, kind=kind, seed=seed).result()

    def send_many(
        self, payloads: Sequence[Any], *, to: "str | None" = None, kind: str = "auto"
    ) -> list[Delivery]:
        """Submit every payload, then wait; outcomes in submission order."""
        futures = [self.submit(payload, to=to, kind=kind) for payload in payloads]
        return [future.result() for future in futures]

    # -- shutdown ----------------------------------------------------------------
    def close(self, drain: bool = True, timeout: "float | None" = None) -> dict[str, int]:
        """Stop admission and shut the workers down; returns the stats dict.

        ``drain=True`` lets queued and in-flight sends finish (bounded by
        *timeout* seconds when given — queued work that cannot start in time
        is cancelled); ``drain=False`` cancels everything still queued and
        only waits for the in-flight sends.  Idempotent.
        """
        with self._cond:
            self._accepting = False
            self._closing = True
            self._drain = drain
            cancelled = [] if drain else self._queue.drain()
            self._cond.notify_all()
        for entry in cancelled:
            self._finish_drop(entry.item, "cancelled", "engine_closed")
        deadline = None if timeout is None else self.clock() + timeout
        for worker in self._workers:
            remaining = None if deadline is None else max(0.0, deadline - self.clock())
            worker.join(remaining)
        if deadline is not None and any(w.is_alive() for w in self._workers):
            # Drain timed out: cancel whatever never started.  In-flight
            # sends cannot be aborted mid-protocol; the daemon workers
            # resolve them in the background.
            with self._cond:
                leftovers = self._queue.drain()
                self._cond.notify_all()
            for entry in leftovers:
                self._finish_drop(entry.item, "cancelled", "drain_timeout")
            _log.warning(
                "engine close timed out after %.3fs with %d workers busy",
                timeout,
                sum(w.is_alive() for w in self._workers),
            )
        return dict(self.stats)

    # -- internals ---------------------------------------------------------------
    def _register(
        self, payload: Any, *, to: "str | None", kind: str, seed: "int | None"
    ) -> SendRequest:
        request_id = self._submitted
        self._submitted += 1
        self.stats["submitted"] += 1
        if seed is None and self.seed is not None:
            seed = request_seed(self.seed, request_id)
        return SendRequest(
            request_id=request_id, payload=payload, kind=kind, to=to, seed=seed
        )

    def _acquire_token(self, tracked: _Tracked) -> bool:
        """Rate-limit gate; blocks (policy ``block``) or drops.  Lock held."""
        assert self._bucket is not None
        while not self._bucket.try_acquire(self.clock()):
            if self._queue.policy != "block":
                self._resolve_drop(tracked, "rejected", "rate_limited")
                return False
            wait = max(1e-4, self._bucket.next_token_time(self.clock()) - self.clock())
            self._cond.wait(wait)
            if not self._accepting:
                self._resolve_drop(tracked, "rejected", "engine_closed")
                return False
        return True

    def _enqueue(self, tracked: _Tracked) -> "Future[Delivery]":
        """Queue admission under the engine lock (blocks when policy says so)."""
        while True:
            now = self.clock()
            tracked.enqueued_at = now
            verdict, shed = self._queue.offer(tracked, now)
            depth = len(self._queue)
            self.stats["max_queue_depth"] = max(self.stats["max_queue_depth"], depth)
            telemetry.observe("runtime.queue_depth", depth)
            for entry in shed:
                self._resolve_drop(entry.item, "shed", "queue_full")
            if verdict == "queued":
                self._cond.notify_all()
                return tracked.future
            if verdict == "rejected":
                return self._resolve_drop(tracked, "rejected", "queue_full")
            # verdict == "full" under the block policy: wait for space.
            self._cond.wait()
            if not self._accepting:
                return self._resolve_drop(tracked, "rejected", "engine_closed")

    def _resolve_drop(
        self, tracked: _Tracked, status: str, reason: str
    ) -> "Future[Delivery]":
        """Resolve a request admission dropped (lock held; resolution is cheap)."""
        self._finish_drop(tracked, status, reason)
        return tracked.future

    def _finish_drop(self, tracked: _Tracked, status: str, reason: str) -> None:
        self.stats[status] += 1
        telemetry.counter_inc(f"runtime.{status}", reason=reason)
        _log.debug(
            "request %d %s (%s)", tracked.request.request_id, status, reason
        )
        if not tracked.future.done():
            tracked.future.set_result(
                Delivery(
                    request=tracked.request,
                    status=status,
                    reason=reason,
                    enqueued_at=tracked.enqueued_at,
                    finished_at=self.clock(),
                )
            )

    def _worker_loop(self) -> None:
        while True:
            expired: list[QueueEntry] = []
            with self._cond:
                tracked = None
                while tracked is None:
                    entry, newly_expired = self._queue.pop(self.clock())
                    expired.extend(newly_expired)
                    if entry is not None:
                        tracked = entry.item
                        break
                    if self._closing:
                        break
                    if expired:
                        break  # resolve expired promptly, then wait again
                    self._cond.wait()
                if tracked is not None:
                    self._inflight += 1
                self._cond.notify_all()
            for dropped in expired:
                self._finish_drop(dropped.item, "expired", "admission_timeout")
            if tracked is None:
                if self._closing:
                    return
                continue
            tracked.context.run(self._execute, tracked)
            with self._cond:
                self._inflight -= 1
                self._cond.notify_all()

    def _execute(self, tracked: _Tracked) -> None:
        request = tracked.request
        if not tracked.future.set_running_or_notify_cancel():
            with self._cond:
                self.stats["cancelled"] += 1
            return
        started = self.clock()
        delivery = Delivery(
            request=request,
            status="error",
            enqueued_at=tracked.enqueued_at,
            started_at=started,
        )
        with telemetry.span(
            "runtime.execute",
            "runtime",
            {"request": request.request_id, "worker": threading.current_thread().name},
        ) as span:
            try:
                report = self.service.send(
                    request.payload,
                    to=request.to,
                    kind=request.kind,
                    seed=request.seed,
                )
                delivery.report = report
                delivery.status = "delivered" if report.success else "undelivered"
            except Exception as error:  # resolve, never kill the worker
                delivery.error = error
                delivery.reason = type(error).__name__
                _log.warning(
                    "request %d raised %s: %s",
                    request.request_id,
                    type(error).__name__,
                    error,
                )
            span.attributes["status"] = delivery.status
        delivery.finished_at = self.clock()
        with self._cond:
            self.stats[delivery.status] += 1
        telemetry.counter_inc(f"runtime.{delivery.status}")
        telemetry.observe("runtime.queue_wait", delivery.queue_wait or 0.0)
        telemetry.observe("runtime.service_time", delivery.service_time or 0.0)
        tracked.future.set_result(delivery)

    def interrupted(self) -> bool:
        """Whether a process-wide graceful shutdown has been requested."""
        return interrupt.shutdown_requested()


def replay_engine(
    config: "ServiceConfig | MessagingService",
    *,
    seed: int,
    max_workers: int = 4,
) -> DeliveryEngine:
    """An engine configured for the replay-mode parity guarantee.

    ``block`` policy, unbounded queue, no rate limit, no expiry: nothing is
    dropped, so the deliveries correspond one-to-one with
    :func:`serial_reference` and their reports are byte-identical.
    """
    return DeliveryEngine(config, max_workers=max_workers, policy="block", seed=seed)


def serial_reference(
    config: "ServiceConfig | MessagingService",
    payloads: Sequence[Any],
    *,
    seed: int,
    to: "str | None" = None,
    kind: str = "auto",
) -> list[DeliveryReport]:
    """The serial oracle replay mode is compared against.

    Runs every payload through one :class:`MessagingService` sequentially
    with the same per-request seeds the engine derives; the concurrent
    engine's reports must match these byte for byte
    (``tests/runtime/test_replay.py``).
    """
    service = (
        config if isinstance(config, MessagingService) else MessagingService(config)
    )
    return [
        service.send(payload, to=to, kind=kind, seed=request_seed(seed, index))
        for index, payload in enumerate(payloads)
    ]


class AsyncDeliveryEngine:
    """asyncio front for :class:`DeliveryEngine`.

    Submission may block (backpressure), so it runs in the event loop's
    default executor; execution futures are bridged with
    :func:`asyncio.wrap_future`.  Usage::

        async with AsyncDeliveryEngine(config, max_workers=8, seed=7) as engine:
            deliveries = await asyncio.gather(
                *(engine.send(payload) for payload in payloads)
            )
    """

    def __init__(self, config: "ServiceConfig | MessagingService", **kwargs: Any):
        self._engine = DeliveryEngine(config, **kwargs)

    @property
    def engine(self) -> DeliveryEngine:
        return self._engine

    @property
    def stats(self) -> dict[str, int]:
        return self._engine.stats

    async def submit(
        self,
        payload: Any,
        *,
        to: "str | None" = None,
        kind: str = "auto",
        seed: "int | None" = None,
    ) -> "Future[Delivery]":
        """Admit one send without waiting for its outcome."""
        import asyncio
        import functools

        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None,
            functools.partial(
                self._engine.submit, payload, to=to, kind=kind, seed=seed
            ),
        )

    async def send(
        self,
        payload: Any,
        *,
        to: "str | None" = None,
        kind: str = "auto",
        seed: "int | None" = None,
    ) -> Delivery:
        """Admit one send and await its :class:`Delivery`."""
        import asyncio

        future = await self.submit(payload, to=to, kind=kind, seed=seed)
        return await asyncio.wrap_future(future)

    async def close(self, drain: bool = True, timeout: "float | None" = None) -> dict[str, int]:
        import asyncio
        import functools

        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            None, functools.partial(self._engine.close, drain=drain, timeout=timeout)
        )

    async def __aenter__(self) -> "AsyncDeliveryEngine":
        return self

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close(drain=exc_info[0] is None)
