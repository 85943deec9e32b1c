"""Sustained-load harness: arrival processes, service model, load simulation.

Driving 10⁴–10⁶ real protocol sends takes minutes of wall clock; what the
``fig_load`` experiment needs from that scale is the *queueing* behaviour —
throughput, latency percentiles, drop rates under each backpressure policy.
This module therefore splits the problem the same way the network scheduler
does (serial reservation pass vs. execution pass):

* :func:`run_live_calibration` pushes a small batch of **real** sends through
  the concurrent :class:`~repro.runtime.engine.DeliveryEngine` (replay mode,
  so the batch is deterministic) and measures the abort fraction plus the
  wall-clock service time;
* :func:`simulate_load` is a **deterministic discrete-event simulation** of
  the runtime on a virtual clock: the exact
  :class:`~repro.runtime.admission.AdmissionQueue` /
  :class:`~repro.runtime.admission.TokenBucket` classes the live engine uses,
  a worker pool of ``workers`` slots, and a physics-derived
  :class:`ServiceTimeModel` (the scheduler's per-hop duration formula:
  ``pairs × channel.duration() + hop_overhead``).  Every virtual-time metric
  it reports is a pure function of the seed — safe for the gated artifact
  pipeline — while wall-clock calibration numbers stay in the (volatile)
  info section.

Arrival processes
-----------------
``poisson``    Open loop, exponential inter-arrivals at ``arrival_rate``.
``uniform``    Open loop, constant spacing ``1/arrival_rate``.
``burst``      Open loop, bursts of ``burst_size`` simultaneous arrivals at
               the spacing that preserves the average ``arrival_rate``.
``closed``     Closed loop: ``clients`` clients, each submitting its next
               message ``think_time`` after the previous one resolves.

The simulation polls :func:`repro.runtime.interrupt.shutdown_requested`
between batches of events, so a Ctrl-C on a long run stops early with a
result marked ``interrupted`` (and the experiment still flushes artifacts).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.exceptions import ConfigurationError
from repro.runtime import interrupt
from repro.runtime.admission import AdmissionQueue, TokenBucket
from repro.utils.logging import get_logger

__all__ = [
    "ARRIVAL_PROCESSES",
    "LoadResult",
    "ServiceTimeModel",
    "percentile",
    "run_live_calibration",
    "simulate_load",
]

_log = get_logger("runtime.loadgen")

#: Arrival processes :func:`simulate_load` implements.
ARRIVAL_PROCESSES = ("poisson", "uniform", "burst", "closed")

# Event kinds, ordered so that at equal timestamps completions free their
# worker slot (and queue space) before new arrivals are considered — the
# same tie-break discipline as the network scheduler's reservation pass.
_COMPLETION = 0
_ARRIVAL = 1

#: Queue-depth time-series samples kept in a result (evenly thinned).
_DEPTH_SAMPLES = 64


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of unsorted *values*.

    Nearest-rank (not interpolated) so the statistic is an actual observed
    latency and stays bit-stable across numpy versions.  Empty input → 0.0
    (artifact-friendly: a run with no completions reports zero, not NaN).
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return float(ordered[rank])


@dataclass(frozen=True)
class ServiceTimeModel:
    """Deterministic service-time and outcome model for the load simulation.

    ``base_time`` is the service time of a one-hop message; each extra hop
    adds ``per_hop_time``.  ``jitter`` applies a multiplicative lognormal
    factor (``exp(jitter · N(0,1))``) so service times vary without ever
    going non-positive.  ``abort_probability`` is the chance a send runs to
    completion but aborts (eavesdropping check / decoherence), as calibrated
    from live sends.
    """

    base_time: float
    per_hop_time: float = 0.0
    jitter: float = 0.05
    abort_probability: float = 0.0

    def __post_init__(self) -> None:
        # Comparisons written so NaN fails them too.
        if not 0 < self.base_time < math.inf:
            raise ConfigurationError(
                f"service base_time must be positive and finite, got {self.base_time!r}"
            )
        if not (0 <= self.per_hop_time < math.inf and 0 <= self.jitter < math.inf):
            raise ConfigurationError(
                "per_hop_time and jitter must be finite and non-negative"
            )
        if not 0.0 <= self.abort_probability <= 1.0:
            raise ConfigurationError("abort_probability must be a probability")

    @classmethod
    def from_physics(
        cls,
        topology: Any,
        *,
        message_length: int,
        session_params: Any = None,
        hop_overhead: float = 1e-3,
        jitter: float = 0.05,
        abort_probability: float = 0.0,
    ) -> "ServiceTimeModel":
        """Derive per-hop time from the scheduler's duration formula.

        One hop lasts ``pairs_per_hop(message_length) × channel.duration()
        + hop_overhead`` — exactly what
        :class:`~repro.network.scheduler.NetworkScheduler` charges a session
        per hop — averaged over the topology's links.
        """
        from repro.protocol.config import SessionParameters

        params = session_params or SessionParameters()
        pairs = params.pairs_per_hop(message_length)
        durations = [link.quantum_channel.duration() for link in topology.links]
        mean_channel = sum(durations) / len(durations) if durations else 0.0
        hop_time = pairs * mean_channel + hop_overhead
        return cls(
            base_time=hop_time,
            per_hop_time=hop_time,
            jitter=jitter,
            abort_probability=abort_probability,
        )

    def sample(self, rng: np.random.Generator, hops: int = 1) -> float:
        """One service-time draw for a *hops*-hop message."""
        mean = self.base_time + self.per_hop_time * max(0, hops - 1)
        if self.jitter == 0.0:
            return mean
        return mean * math.exp(self.jitter * float(rng.standard_normal()))


@dataclass
class LoadResult:
    """Everything one :func:`simulate_load` run measured (virtual time)."""

    arrival: str
    policy: str
    workers: int
    offered: int
    delivered: int
    aborted: int
    rejected: int
    shed: int
    expired: int
    interrupted: bool
    duration: float
    busy_time: float
    max_queue_depth: int
    latencies: list[float] = field(default_factory=list, repr=False)
    queue_waits: list[float] = field(default_factory=list, repr=False)
    queue_depth_series: list[tuple[float, int]] = field(
        default_factory=list, repr=False
    )

    @property
    def completed(self) -> int:
        """Sends that actually ran (delivered or protocol-aborted)."""
        return self.delivered + self.aborted

    @property
    def dropped(self) -> int:
        """Sends admission control resolved without running."""
        return self.rejected + self.shed + self.expired

    @property
    def throughput(self) -> float:
        """Delivered messages per virtual second."""
        return self.delivered / self.duration if self.duration > 0 else 0.0

    @property
    def utilization(self) -> float:
        """Fraction of worker-seconds spent serving."""
        denom = self.workers * self.duration
        return self.busy_time / denom if denom > 0 else 0.0

    def latency_percentiles(self) -> dict[str, float]:
        """Sojourn-time percentiles (p50/p95/p99/p999), nearest-rank."""
        return {
            "p50": percentile(self.latencies, 0.50),
            "p95": percentile(self.latencies, 0.95),
            "p99": percentile(self.latencies, 0.99),
            "p999": percentile(self.latencies, 0.999),
        }

    def summary(self) -> dict[str, Any]:
        """Deterministic flat summary (the shape the artifact metrics use)."""
        stats = self.latency_percentiles()
        return {
            "arrival": self.arrival,
            "policy": self.policy,
            "workers": self.workers,
            "offered": self.offered,
            "delivered": self.delivered,
            "aborted": self.aborted,
            "rejected": self.rejected,
            "shed": self.shed,
            "expired": self.expired,
            "dropped": self.dropped,
            "interrupted": self.interrupted,
            "duration": self.duration,
            "throughput": self.throughput,
            "utilization": self.utilization,
            "max_queue_depth": self.max_queue_depth,
            "latency_p50": stats["p50"],
            "latency_p95": stats["p95"],
            "latency_p99": stats["p99"],
            "latency_p999": stats["p999"],
            "queue_wait_p50": percentile(self.queue_waits, 0.50),
            "queue_wait_p99": percentile(self.queue_waits, 0.99),
        }


@dataclass
class _Message:
    """One simulated send travelling through the virtual runtime."""

    mid: int
    client: int
    arrival_time: float
    hops: int


def _open_loop_arrivals(
    arrival: str,
    messages: int,
    arrival_rate: float,
    burst_size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Absolute arrival times for the open-loop processes."""
    if arrival == "poisson":
        gaps = rng.exponential(1.0 / arrival_rate, size=messages)
        return np.cumsum(gaps)
    if arrival == "uniform":
        return (np.arange(messages, dtype=float) + 1.0) / arrival_rate
    if arrival == "burst":
        spacing = burst_size / arrival_rate
        bursts = np.repeat(
            np.arange(math.ceil(messages / burst_size), dtype=float) * spacing,
            burst_size,
        )
        return bursts[:messages]
    raise ConfigurationError(f"unknown open-loop arrival process {arrival!r}")


def _route_hops(topology: Any, rng: np.random.Generator, messages: int) -> np.ndarray:
    """Per-message hop counts: random ordered node pairs, shortest-hop routes."""
    if topology is None:
        return np.ones(messages, dtype=np.int64)
    from repro.network.routing import RoutingTable

    names = list(topology.node_names)
    table = RoutingTable(topology)
    hop_counts = np.empty(messages, dtype=np.int64)
    pair_hops: dict[tuple[int, int], int] = {}
    sources = rng.integers(0, len(names), size=messages)
    offsets = rng.integers(1, len(names), size=messages)
    for index in range(messages):
        src = int(sources[index])
        dst = (src + int(offsets[index])) % len(names)
        key = (src, dst)
        if key not in pair_hops:
            route = table.route(names[src], names[dst])
            pair_hops[key] = max(1, len(route.nodes) - 1)
        hop_counts[index] = pair_hops[key]
    return hop_counts


def simulate_load(
    *,
    messages: int,
    service_model: ServiceTimeModel,
    seed: int,
    topology: Any = None,
    arrival: str = "poisson",
    arrival_rate: "float | None" = None,
    clients: int = 8,
    think_time: float = 0.0,
    burst_size: int = 32,
    workers: int = 4,
    queue_capacity: "int | None" = None,
    policy: str = "block",
    rate_limit: "float | None" = None,
    burst_tokens: "float | None" = None,
    admission_timeout: "float | None" = None,
    interrupt_poll: int = 4096,
) -> LoadResult:
    """Deterministic discrete-event simulation of the runtime under load.

    Drives *messages* sends through the admission queue and a pool of
    *workers* service slots on a virtual clock.  All randomness (arrivals,
    route choice, service jitter, abort draws) comes from ``seed``; rerunning
    with the same arguments reproduces every number bit for bit.

    Returns a :class:`LoadResult`; see the module docstring for the arrival
    processes and :mod:`repro.runtime.admission` for the backpressure
    policies.  ``interrupted`` is set (and the tallies cover only the work
    done so far) when a graceful shutdown was requested mid-run.
    """
    if not 1 <= messages < math.inf:
        raise ConfigurationError(f"messages must be positive, got {messages!r}")
    if arrival not in ARRIVAL_PROCESSES:
        raise ConfigurationError(
            f"unknown arrival process {arrival!r}; known: {ARRIVAL_PROCESSES}"
        )
    if arrival != "closed" and (
        arrival_rate is None or not 0 < arrival_rate < math.inf
    ):
        raise ConfigurationError(
            f"open-loop arrivals need a positive, finite arrival_rate, "
            f"got {arrival_rate!r}"
        )
    if arrival == "closed" and not 1 <= clients < math.inf:
        raise ConfigurationError("closed-loop arrivals need at least one client")
    if arrival == "burst" and not 1 <= burst_size < math.inf:
        raise ConfigurationError(
            f"burst arrivals need a burst_size of at least 1, got {burst_size!r}"
        )
    if not 0 <= think_time < math.inf:
        raise ConfigurationError(
            f"think_time must be finite and non-negative, got {think_time!r}"
        )
    if not 1 <= workers < math.inf:
        raise ConfigurationError("the simulation needs at least one worker slot")

    # Built first: their constructors validate the admission settings before
    # any simulated work starts.
    queue = AdmissionQueue(
        capacity=queue_capacity, policy=policy, timeout=admission_timeout
    )
    bucket = None if rate_limit is None else TokenBucket(rate_limit, burst_tokens)
    rng = np.random.default_rng(seed)
    hops = _route_hops(topology, rng, messages)

    events: list[tuple[float, int, int, Any]] = []
    sequence = 0

    def push(time: float, kind: int, payload: Any) -> None:
        nonlocal sequence
        heapq.heappush(events, (time, kind, sequence, payload))
        sequence += 1

    submitted = 0

    def next_message(client: int, time: float) -> None:
        """Closed loop: schedule the client's next submission, if any remain."""
        nonlocal submitted
        if submitted >= messages:
            return
        message = _Message(submitted, client, time, int(hops[submitted]))
        submitted += 1
        push(time, _ARRIVAL, message)

    if arrival == "closed":
        for client in range(min(clients, messages)):
            next_message(client, 0.0)
    else:
        times = _open_loop_arrivals(arrival, messages, float(arrival_rate), burst_size, rng)
        for mid in range(messages):
            push(float(times[mid]), _ARRIVAL, _Message(mid, mid, float(times[mid]), int(hops[mid])))
        submitted = messages

    free = workers
    busy_time = 0.0
    counts = {"delivered": 0, "aborted": 0, "rejected": 0, "shed": 0, "expired": 0}
    latencies: list[float] = []
    queue_waits: list[float] = []
    depth_series: list[tuple[float, int]] = []
    max_depth = 0
    blocked: list[_Message] = []  # block-policy arrivals waiting for queue space
    now = 0.0
    interrupted = False
    processed = 0

    def resolve_drop(message: _Message, status: str, time: float) -> None:
        counts[status] += 1
        if arrival == "closed":
            next_message(message.client, time + think_time)

    def dispatch(time: float) -> None:
        """Fill free worker slots from the queue (and the blocked backlog)."""
        nonlocal free, max_depth
        while True:
            # Queue space freed by pops lets blocked submitters in, in order.
            while blocked and not queue.full:
                verdict, _ = queue.offer(blocked.pop(0), time)
                assert verdict == "queued"
            if free == 0:
                break
            entry, expired = queue.pop(time)
            for dropped in expired:
                resolve_drop(dropped.item, "expired", time)
            if entry is None:
                break
            free -= 1
            message: _Message = entry.item
            service = service_model.sample(rng, message.hops)
            aborts = (
                service_model.abort_probability > 0.0
                and float(rng.random()) < service_model.abort_probability
            )
            queue_waits.append(time - entry.enqueued_at)
            push(time + service, _COMPLETION, (message, service, aborts))
        max_depth = max(max_depth, len(queue))

    while events:
        processed += 1
        if processed % interrupt_poll == 0 and interrupt.shutdown_requested():
            interrupted = True
            _log.info(
                "load simulation interrupted after %d events (t=%.3f)",
                processed,
                now,
            )
            break
        now, kind, _, payload = heapq.heappop(events)
        if kind == _ARRIVAL:
            message = payload
            if bucket is not None and not bucket.try_acquire(now):
                if policy == "block":
                    # The epsilon guard keeps virtual time strictly advancing
                    # even when float rounding puts the next-token estimate
                    # below the clock's resolution at large timestamps.
                    push(max(bucket.next_token_time(now), now * (1 + 1e-12) + 1e-9),
                         _ARRIVAL, message)
                else:
                    resolve_drop(message, "rejected", now)
                continue
            verdict, shed = queue.offer(message, now)
            for old in shed:
                resolve_drop(old.item, "shed", now)
            if verdict == "rejected":
                resolve_drop(message, "rejected", now)
            elif verdict == "full":
                blocked.append(message)
            if verdict == "queued":
                dispatch(now)
        else:  # _COMPLETION
            message, service, aborts = payload
            free += 1
            busy_time += service
            counts["aborted" if aborts else "delivered"] += 1
            latencies.append(now - message.arrival_time)
            if arrival == "closed":
                next_message(message.client, now + think_time)
            dispatch(now)
        depth_series.append((now, len(queue)))

    if len(depth_series) > _DEPTH_SAMPLES:
        stride = len(depth_series) / _DEPTH_SAMPLES
        depth_series = [
            depth_series[int(index * stride)] for index in range(_DEPTH_SAMPLES)
        ]

    return LoadResult(
        arrival=arrival,
        policy=policy,
        workers=workers,
        offered=messages,
        delivered=counts["delivered"],
        aborted=counts["aborted"],
        rejected=counts["rejected"],
        shed=counts["shed"],
        expired=counts["expired"],
        interrupted=interrupted,
        duration=now,
        busy_time=busy_time,
        max_queue_depth=max_depth,
        latencies=latencies,
        queue_waits=queue_waits,
        queue_depth_series=depth_series,
    )


def run_live_calibration(
    config: Any,
    *,
    sends: int = 16,
    seed: int = 0,
    max_workers: int = 4,
    payload: str = "load calibration probe",
) -> dict[str, Any]:
    """Push real sends through the concurrent engine; measure what the DES needs.

    Runs *sends* identical payloads through a replay-mode
    :class:`~repro.runtime.engine.DeliveryEngine` (so the protocol outcomes
    are deterministic for a given *seed*) and returns::

        {
          "sends": ...,
          "abort_probability": ...,   # deterministic — safe for gated metrics
          "delivered": ...,
          "wall_mean_service_time": ...,  # wall clock — volatile, info only
          "wall_total_time": ...,
        }

    The abort probability feeds :class:`ServiceTimeModel`; the wall-clock
    numbers belong in an artifact's info/timings section, never in gated
    metrics.
    """
    from repro.runtime.engine import replay_engine

    with replay_engine(config, seed=seed, max_workers=max_workers) as engine:
        start = engine.clock()
        deliveries = engine.send_many([payload] * sends)
        elapsed = engine.clock() - start
    completed = [d for d in deliveries if d.report is not None]
    delivered = sum(1 for d in completed if d.ok)
    service_times = [d.service_time for d in completed if d.service_time is not None]
    return {
        "sends": sends,
        "delivered": delivered,
        "abort_probability": (
            (len(completed) - delivered) / len(completed) if completed else 0.0
        ),
        "wall_mean_service_time": (
            sum(service_times) / len(service_times) if service_times else 0.0
        ),
        "wall_total_time": elapsed,
    }
