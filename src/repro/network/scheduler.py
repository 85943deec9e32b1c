"""Deterministic discrete-event scheduling of network traffic.

The simulator runs in **two phases**, which is what makes large simulations
both reproducible and parallel:

1. **Reservation pass (serial, discrete-event).**  Traffic requests arrive
   from a generator (Poisson or trace-driven), each is routed, and admission
   control reserves EPR-pair capacity on every route node in a
   :class:`~repro.runtime.admission.NodeCapacityLedger` (endpoints hold one
   qubit per pair, relays hold two — one per adjacent hop).  Sessions that
   cannot start wait in arrival order, per QoS class, and are retried
   whenever capacity or a failed element frees; a session still waiting
   ``max_wait`` after it started waiting is rejected.  Admitted sessions
   occupy their reservation for a duration derived from route length, pair
   budget and per-link channel delay.  The event queue is a heap ordered by
   ``(time, kind, sequence)``, so the pass is fully deterministic.

2. **Execution pass (parallel).**  Every admitted session becomes one point
   of a :func:`repro.experiments.sweep.run_sweep` grid with a
   :func:`~repro.utils.rng.point_seed`-derived seed, and the
   hop-by-hop protocol runs (:func:`repro.network.sessions.run_session`)
   fan out across the worker pool.  Because each session's randomness
   derives only from its own seed, serial and threaded execution produce
   identical :class:`~repro.network.metrics.NetworkResult` objects — the
   subsystem's headline guarantee.

The reservation pass deliberately books resources for the session's *full*
scheduled duration whether or not a hop later aborts (circuit-switched
reservation, as in trusted-relay QKD networks), which keeps scheduling
independent of quantum outcomes — the property that allows phase 2 to run in
parallel at all.  Queueing delay is fed back into the quantum layer as
memory hold time on the session's first hop, so congestion physically
degrades stored qubits when node memories are non-ideal.

**Time-varying conditions and QoS.**  The reservation pass is one loop for
every configuration.  It (a) evaluates channel conditions at each session's
*admission* time and snapshots the per-hop channels for the execution pass,
(b) re-routes sessions around elements whose failure windows intersect the
reservation interval (growing an exclusion set to a fixed point), and
(c) serves the waiting sessions by per-class virtual time under a
:class:`QoSPolicy` — without one they form a single class, served FIFO.
Conditions come from a
:class:`~repro.network.dynamics.NetworkDynamics` (drift curves, calibration
aging, failure/recovery windows); without one the environment is frozen
(:meth:`NetworkDynamics.static`): every snapshot is the link's own channel
and nothing is ever re-routed.
"""

from __future__ import annotations

import heapq
import math
import numbers
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.exceptions import NetworkError
from repro.network.dynamics import NetworkDynamics, RouteWindows, route_blocking
from repro.network.metrics import NetworkResult, SessionRecord
from repro.network.routing import ROUTING_POLICIES, Route, RoutingTable
from repro.network.sessions import (
    SessionOutcome,
    SessionRequest,
    run_session,
)
from repro.network.topology import NetworkTopology
from repro.protocol.config import SessionParameters, check_count
from repro.runtime.admission import NodeCapacityLedger, WeightedFairSelector
from repro.telemetry import runtime as telemetry
from repro.utils.logging import get_logger
from repro.utils.rng import as_rng, point_seed

_log = get_logger("network.scheduler")

__all__ = [
    "DEFAULT_QOS_WEIGHTS",
    "PoissonTraffic",
    "TraceTraffic",
    "QoSPolicy",
    "NetworkScheduler",
    "simulate_network",
]

#: Executors the scheduler accepts.  ``"process"`` is excluded: the session
#: worker closes over the live topology (channels, attack factories), which
#: is not generally picklable — and threads already parallelise the NumPy
#:-heavy protocol sessions well.
SCHEDULER_EXECUTORS = ("serial", "thread")

#: Default weighted-fair weights of the conventional priority classes.
DEFAULT_QOS_WEIGHTS = {"control": 4.0, "interactive": 2.0, "bulk": 1.0}


def _finite_real(value: Any) -> bool:
    """True if *value* is a finite real number (a string or None is not)."""
    return isinstance(value, numbers.Real) and math.isfinite(value)


# Event-kind priorities at equal timestamps: completions free capacity, then
# recoveries (an outage window ending) free elements, both before timeouts
# give up on queued sessions; new arrivals come last.
_COMPLETION, _RECOVERY, _TIMEOUT, _ARRIVAL = 0, 1, 2, 3


class PoissonTraffic:
    """Memoryless traffic: exponential inter-arrivals, uniform random pairs.

    Parameters
    ----------
    num_sessions:
        Total number of requests to generate.
    rate:
        Mean arrivals per unit time (λ of the Poisson process).
    message_length:
        Secret bits per session.
    priority_mix:
        Optional ``{class: weight}`` distribution of QoS classes over
        sessions (weights need not sum to 1).  ``None`` — the default, and
        the historical RNG stream — tags every request ``"bulk"`` without
        consuming generator state, so existing seeded traffic is unchanged.
    """

    def __init__(
        self,
        num_sessions: int,
        rate: float = 100.0,
        message_length: int = 8,
        priority_mix: Mapping[str, float] | None = None,
    ):
        check_count(num_sessions, "num_sessions", error=NetworkError)
        if not (math.isfinite(rate) and rate > 0):
            raise NetworkError("rate must be finite and positive")
        check_count(message_length, "message_length", error=NetworkError)
        if priority_mix is not None:
            if not priority_mix:
                raise NetworkError("priority_mix must name at least one class")
            if not all(
                math.isfinite(weight) and weight > 0 for weight in priority_mix.values()
            ):
                raise NetworkError("priority_mix weights must be finite and positive")
        self.num_sessions = num_sessions
        self.rate = rate
        self.message_length = message_length
        self.priority_mix = None if priority_mix is None else dict(priority_mix)

    def generate(self, topology: NetworkTopology, rng: Any = None) -> list[SessionRequest]:
        """Draw the request list (deterministic for a given generator state)."""
        generator = as_rng(rng)
        names = topology.node_names
        if len(names) < 2:
            raise NetworkError("traffic needs at least two nodes")
        classes: list[str] = []
        probabilities: list[float] = []
        if self.priority_mix is not None:
            classes = sorted(self.priority_mix)
            total = sum(self.priority_mix.values())
            probabilities = [self.priority_mix[name] / total for name in classes]
        requests = []
        clock = 0.0
        for session_id in range(self.num_sessions):
            clock += float(generator.exponential(1.0 / self.rate))
            source, target = (
                names[int(index)]
                for index in generator.choice(len(names), size=2, replace=False)
            )
            priority = "bulk"
            if classes:
                priority = classes[int(generator.choice(len(classes), p=probabilities))]
            requests.append(
                SessionRequest(
                    session_id=session_id,
                    source=source,
                    target=target,
                    message_length=self.message_length,
                    arrival_time=clock,
                    priority=priority,
                )
            )
        return requests


class TraceTraffic:
    """Trace-driven traffic: explicit ``(time, source, target, length)`` entries.

    Entries may carry a fifth element, the QoS class (default ``"bulk"``).
    Traces are normalised at construction: every entry becomes a canonical
    ``(time, source, target, length, priority)`` tuple and the list is
    sorted by the *full* tuple, not just the timestamp.  Sorting by time
    alone left session-id assignment (and therefore every derived session
    seed) sensitive to the input order of entries sharing a timestamp —
    two permutations of the same trace could simulate different networks.
    """

    def __init__(self, entries: Sequence[Sequence[Any]]):
        if not entries:
            raise NetworkError("a trace needs at least one entry")
        normalized: list[tuple[float, str, str, int, str]] = []
        for entry in entries:
            entry = tuple(entry)
            if len(entry) == 4:
                time, source, target, length = entry
                priority = "bulk"
            elif len(entry) == 5:
                time, source, target, length, priority = entry
            else:
                raise NetworkError(
                    "trace entries are (time, source, target, length[, priority]) "
                    f"tuples, got {entry!r}"
                )
            time = float(time)
            if not math.isfinite(time):
                raise NetworkError(f"trace entry time must be finite, got {entry!r}")
            length = check_count(length, "trace entry length", error=NetworkError)
            normalized.append((time, str(source), str(target), length, str(priority)))
        self.entries = sorted(normalized)

    def generate(self, topology: NetworkTopology, rng: Any = None) -> list[SessionRequest]:
        """Materialise the trace (validates node names; ignores *rng*)."""
        requests = []
        for session_id, (time, source, target, message_length, priority) in enumerate(
            self.entries
        ):
            topology.node(source)
            topology.node(target)
            requests.append(
                SessionRequest(
                    session_id=session_id,
                    source=source,
                    target=target,
                    message_length=message_length,
                    arrival_time=time,
                    priority=priority,
                )
            )
        return requests


@dataclass(frozen=True)
class QoSPolicy:
    """Weighted-fair service of priority classes in the reservation pass.

    ``weights`` maps class names to positive service weights; classes absent
    from the map get weight 1.0.  The scheduler serves the waiting queue by
    per-class *virtual time* (work served divided by weight, implemented by
    :class:`~repro.runtime.admission.WeightedFairSelector`), so under
    saturation each backlogged class receives capacity proportional to its
    weight — and uniformly scaling every weight leaves the admission order
    unchanged (the metamorphic tests pin this).
    """

    weights: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_QOS_WEIGHTS)
    )

    def __post_init__(self):
        weights = dict(self.weights)
        if not weights:
            raise NetworkError("a QoS policy needs at least one class weight")
        for name, weight in weights.items():
            if not name:
                raise NetworkError("QoS class names must be non-empty")
            if not 0 < weight < math.inf:
                raise NetworkError(
                    f"QoS weight for {name!r} must be positive and finite"
                )
        object.__setattr__(self, "weights", weights)

    def selector(self) -> WeightedFairSelector:
        """A fresh virtual-time selector for one reservation pass."""
        return WeightedFairSelector(self.weights)


@dataclass(eq=False)
class _Pending:
    """Scheduling state of one request during the reservation pass.

    The pass settles the route's footprint — capacity needs and reservation
    duration from its per-pass memo, and whether those needs could ever fit
    (``viable``) — on arrival and again when a reroute adopts another
    route.  It also tracks the admission-time channel snapshots (``channels`` — the per-hop
    channels the execution pass runs over) and whether the latest failed
    admission attempt was blocked by an outage rather than capacity
    (``outage_blocked`` — which turns a patience expiry into an
    ``outage_timeout`` rejection, and is the negation of the last outage
    check's answer).  That answer holds while ``now < answer_until`` and
    ``now + duration < start`` for every ``(duration, start)`` in
    ``answer_clear`` (see :func:`~repro.network.dynamics.route_blocking`);
    ``outage_counted`` marks a session already counted as outage-blocked.
    Admission and rerouting are read off the record.
    """

    request: SessionRequest
    record: SessionRecord
    route: Route | None
    qubits_needed: dict[str, int] = field(default_factory=dict)
    duration: float = 0.0
    viable: bool = True
    resolved: bool = False
    channels: tuple[Any, ...] | None = None
    outage_blocked: bool = False
    answer_until: float = -math.inf
    answer_clear: tuple[tuple[float, float], ...] = ()
    outage_counted: bool = False


class NetworkScheduler:
    """Admission control + discrete-event timing + parallel session execution.

    Parameters
    ----------
    topology:
        The network to simulate (treated as read-only during execution).
    routing_policy:
        ``"hops"`` or ``"loss"`` (see :mod:`repro.network.routing`).
    session_params:
        Fleet-wide session tunables (defaults:
        :class:`~repro.protocol.config.SessionParameters`).
    hop_overhead:
        Classical coordination time added per hop (seconds); dominates hop
        duration since per-pair channel delays are microseconds.
    hold_time_unit:
        Seconds of queueing delay per quantum-memory time unit — the
        conversion between scheduler waiting time and storage-decoherence
        applications on the first hop.
    max_wait:
        Patience window: a session still queued this long after arrival is
        rejected (``None`` = wait indefinitely).
    seed:
        Master seed, a non-negative integer; traffic and every per-session
        seed derive from it.
    executor:
        ``"serial"`` or ``"thread"`` — both produce identical results.
    max_workers:
        Worker-pool size for the ``"thread"`` executor: None (one per core,
        up to the session count) or a positive integer.
    dynamics:
        Optional :class:`~repro.network.dynamics.NetworkDynamics` — drift,
        aging and outage conditions evaluated at each session's admission
        time.  ``None`` (default) keeps the environment frozen
        (:meth:`NetworkDynamics.static`).
    qos:
        Optional :class:`QoSPolicy` — weighted-fair service of priority
        classes among waiting sessions.  ``None`` (default) keeps a single
        class, served FIFO.
    """

    def __init__(
        self,
        topology: NetworkTopology,
        *,
        routing_policy: str = "hops",
        session_params: SessionParameters | None = None,
        hop_overhead: float = 1e-3,
        hold_time_unit: float = 1e-3,
        max_wait: float | None = None,
        seed: int = 0,
        executor: str = "serial",
        max_workers: int | None = None,
        dynamics: NetworkDynamics | None = None,
        qos: QoSPolicy | None = None,
    ):
        if routing_policy not in ROUTING_POLICIES:
            raise NetworkError(
                f"unknown routing policy {routing_policy!r}; known: {ROUTING_POLICIES}"
            )
        if executor not in SCHEDULER_EXECUTORS:
            raise NetworkError(
                f"unknown executor {executor!r}; the scheduler supports "
                f"{SCHEDULER_EXECUTORS} (session workers close over the live "
                "topology and cannot be pickled for process pools)"
            )
        if not _finite_real(hop_overhead) or hop_overhead < 0:
            raise NetworkError("hop_overhead must be finite and non-negative")
        if not _finite_real(hold_time_unit) or hold_time_unit <= 0:
            raise NetworkError("hold_time_unit must be finite and positive")
        if max_wait is not None and (not _finite_real(max_wait) or max_wait < 0):
            raise NetworkError("max_wait must be finite and non-negative, or None")
        if dynamics is not None and not isinstance(dynamics, NetworkDynamics):
            raise NetworkError(
                f"dynamics must be a NetworkDynamics, got {type(dynamics).__name__}"
            )
        if qos is not None and not isinstance(qos, QoSPolicy):
            raise NetworkError(f"qos must be a QoSPolicy, got {type(qos).__name__}")
        if session_params is not None and not isinstance(session_params, SessionParameters):
            raise NetworkError(
                "session_params must be a SessionParameters, got "
                f"{type(session_params).__name__}"
            )
        if max_workers is not None:
            check_count(max_workers, "max_workers", error=NetworkError)
        self.topology = topology
        self.routing = RoutingTable(topology, policy=routing_policy)
        self.session_params = session_params or SessionParameters()
        self.hop_overhead = hop_overhead
        self.hold_time_unit = hold_time_unit
        self.max_wait = max_wait
        self.seed = check_count(seed, "seed", minimum=0, error=NetworkError)
        self.executor = executor
        self.max_workers = max_workers
        self.dynamics = dynamics
        self.qos = qos

    # -- public API --------------------------------------------------------------------
    def run(self, traffic: Any) -> NetworkResult:
        """Simulate the given traffic and return the aggregated result."""
        traffic_rng = as_rng(point_seed(self.seed, {"stream": "traffic"}))
        # A fresh table per run: no memoised route or failure outlives it.
        self.routing = RoutingTable(self.topology, policy=self.routing.policy)
        with telemetry.span(
            "network.simulate",
            "network",
            {"topology": self.topology.name, "executor": self.executor},
        ):
            requests = traffic.generate(self.topology, traffic_rng)
            requests = sorted(requests, key=lambda r: (r.arrival_time, r.session_id))
            pendings = [self._prepare(request) for request in requests]
            with telemetry.span("network.reservation", "network"):
                sim_time = self._reservation_pass(pendings)
            with telemetry.span(
                "network.execution",
                "network",
                {"admitted": sum(1 for p in pendings if p.record.admitted)},
            ):
                self._execution_pass(pendings)
        return NetworkResult(
            topology_name=self.topology.name,
            num_nodes=self.topology.num_nodes,
            num_links=self.topology.num_links,
            routing_policy=self.routing.policy,
            sim_time=sim_time,
            records=[pending.record for pending in pendings],
        )

    # -- phase 1: reservation ------------------------------------------------------------
    def _prepare(self, request: SessionRequest) -> _Pending:
        """Route one request; the reservation pass sets its footprint."""
        record = SessionRecord(
            session_id=request.session_id,
            source=request.source,
            target=request.target,
            message_length=request.message_length,
            arrival_time=request.arrival_time,
            priority=request.priority,
        )
        try:
            route = self.routing.route(request.source, request.target)
        except NetworkError:
            record.abort_reason = "no_route"
            telemetry.counter_inc("scheduler.rejections", reason="no_route")
            _log.debug(
                "session %d rejected: no route %s -> %s",
                request.session_id,
                request.source,
                request.target,
            )
            return _Pending(request, record, None)
        record.route_nodes = route.nodes
        return _Pending(request, record, route)

    def _reservation_pass(self, pendings: list[_Pending]) -> float:
        """Discrete-event admission/timing; fills scheduling fields of records.

        Events are ``(time, kind, sequence)`` heap entries; capacity
        accounting lives in
        :class:`~repro.runtime.admission.NodeCapacityLedger`.  Arrivals and
        waiting sessions go through one readiness check at the current time
        ``now`` — outage check and re-route, viability, then
        ``ledger.fits`` — so the pass stays a pure serial function of the
        seed:

        * **re-routing**: a session whose route has a failure window
          intersecting ``[now, now + duration]`` is re-routed around the
          blocked elements, growing an exclusion set to a fixed point
          (exclusions only grow, so the loop terminates); if no feasible
          route remains the session waits for a recovery event.  The
          answer is kept on the pending and reused while no window it read
          can have changed (a window it intersects ending, or a later one
          coming within reach), so a waiting session is re-checked only
          when an outage window it depends on moves;
        * **viability per footprint**: a route's capacity needs and
          duration are computed once per (route, message length) in the
          pass; they and their viability are set on the pending once per
          route it takes (on arrival and when a re-route adopts another),
          and a session whose footprint could never fit is rejected
          (``insufficient_capacity``);
        * **channel snapshots**: the drifted per-hop channels at ``now``
          are captured on the pending (``NetworkDynamics.channel_at``
          returns the link's own object when every factor is 1.0, keeping
          trivial dynamics bit-identical) and handed to the execution pass;
        * **weighted-fair service**: a session that cannot start waits in
          its class's list, in arrival order — one class per priority under
          a :class:`QoSPolicy`, a single class without one — and its
          patience timer starts then.  When capacity or an element frees,
          each class's list is scanned to its first session that can start,
          the selector picks among these class heads by per-class virtual
          time, the pick is admitted (charging its footprint to its class)
          and its class's scan resumes after it.  ``now`` is fixed and
          admissions only take capacity, so a session passed over cannot
          start for the rest of that service; with a single class this is
          FIFO.

        Invariant (pinned by the scheduler test battery): no admitted
        session's route crosses a link or node inside a failure window at
        any point of its reservation interval.
        """
        dynamics = self.dynamics if self.dynamics is not None else NetworkDynamics.static()
        outages = dynamics.outages
        selector = None if self.qos is None else self.qos.selector()
        ledger = NodeCapacityLedger(self.topology)
        events: list[tuple[float, int, int, _Pending | None]] = []
        sequence = 0
        # Looked up once per pass and dropped with it: each route's outage
        # windows, and its footprint per message length.
        windows_of: dict[tuple[str, ...], RouteWindows] = {}
        footprints: dict[tuple[tuple[str, ...], int], tuple[dict[str, int], float]] = {}
        # Waiting sessions per class, in arrival order.
        waiting: dict[str | None, list[_Pending]] = {}

        def class_of(pending: _Pending) -> str | None:
            return None if selector is None else pending.request.priority

        def push(time: float, kind: int, pending: "_Pending | None") -> None:
            nonlocal sequence
            heapq.heappush(events, (time, kind, sequence, pending))
            sequence += 1

        def footprint(route: Route, message_length: int) -> tuple[dict[str, int], float]:
            """Capacity needs and reservation duration of one route."""
            key = (route.nodes, message_length)
            found = footprints.get(key)
            if found is None:
                pairs = self.session_params.pairs_per_hop(message_length)
                qubits_needed: dict[str, int] = {}
                for sender, receiver in route.hops():
                    qubits_needed[sender] = qubits_needed.get(sender, 0) + pairs
                    qubits_needed[receiver] = qubits_needed.get(receiver, 0) + pairs
                duration = sum(
                    pairs * self.topology.link(sender, receiver).quantum_channel.duration()
                    + self.hop_overhead
                    for sender, receiver in route.hops()
                )
                found = footprints[key] = (qubits_needed, duration)
            return found

        def settle(pending: _Pending, route: Route) -> None:
            """Put *pending* on *route*: its footprint, and whether it could ever fit."""
            pending.route = route
            pending.qubits_needed, pending.duration = footprint(
                route, pending.request.message_length
            )
            pending.viable = ledger.viable(pending.qubits_needed)

        for pending in pendings:
            if pending.route is None:
                pending.resolved = True  # rejected outright: no route
                continue
            settle(pending, pending.route)
            push(pending.request.arrival_time, _ARRIVAL, pending)
        for recovery_time in dynamics.recovery_times():
            push(recovery_time, _RECOVERY, None)

        sim_time = max((p.request.arrival_time for p in pendings), default=0.0)
        outage_free = not outages

        def reroute(pending: _Pending, now: float) -> bool:
            """Settle a feasible route for *pending* at *now* (False = outage-blocked)."""
            if outage_free:
                return True  # no failure window can block any route
            if now < pending.answer_until and all(
                now + duration < start for duration, start in pending.answer_clear
            ):
                return not pending.outage_blocked  # no window it read has moved
            request = pending.request
            endpoints = (request.source, request.target)
            route, duration = pending.route, pending.duration
            exclude_nodes: set[str] = set()
            exclude_links: set[tuple[str, str]] = set()
            until = math.inf
            clear: list[tuple[float, float]] = []
            feasible = True
            while True:
                windows = windows_of.get(route.nodes)
                if windows is None:
                    windows = windows_of[route.nodes] = outages.route_windows(route.nodes)
                blocked, ends, starts = route_blocking(windows, now, now + duration)
                until = min(until, ends)
                if starts < math.inf:
                    clear.append((duration, starts))
                if not blocked:
                    break
                # A window over an endpoint (down now or within the
                # reservation) leaves no route to take.
                if any(element == "node" and key in endpoints for element, key in blocked):
                    feasible = False
                    break
                for element, key in blocked:
                    if element == "node":
                        exclude_nodes.add(key)
                    else:
                        # link keys are already sorted "a|b" strings — the
                        # tuple form find_route excludes on.
                        exclude_links.add(tuple(key.split("|")))
                try:
                    route = self.routing.route(
                        request.source,
                        request.target,
                        exclude_nodes=frozenset(exclude_nodes),
                        exclude_links=frozenset(exclude_links),
                    )
                except NetworkError:
                    feasible = False
                    break
                _, duration = footprint(route, request.message_length)
            if feasible and route is not pending.route:
                settle(pending, route)
                pending.record.route_nodes = route.nodes
                pending.record.rerouted = True
                # The next check starts from the new route, which is clear:
                # only its own windows bound the answer.
                until = math.inf
                clear = clear[-1:] if starts < math.inf else []
            pending.outage_blocked = not feasible
            pending.answer_until = until
            pending.answer_clear = tuple(clear)
            if not feasible and not pending.outage_counted:
                pending.outage_counted = True
                telemetry.counter_inc("scheduler.outage_blocked", priority=request.priority)
            return feasible

        def reject(pending: _Pending, reason: str) -> None:
            pending.resolved = True
            pending.record.abort_reason = reason
            telemetry.counter_inc("scheduler.rejections", reason=reason)
            _log.debug(
                "session %d rejected: %s", pending.request.session_id, reason
            )

        def ready(pending: _Pending, now: float) -> bool:
            """Whether *pending* can start at *now*; rejects it if it never can."""
            if not reroute(pending, now):
                return False
            if not pending.viable:
                reject(pending, "insufficient_capacity")
                return False
            return ledger.fits(pending.qubits_needed)

        def admit(pending: _Pending, now: float) -> None:
            record = pending.record
            request = pending.request
            session_id = request.session_id
            telemetry.counter_inc("scheduler.admitted")
            telemetry.counter_inc("scheduler.admitted_by_class", priority=request.priority)
            telemetry.counter_inc(
                "scheduler.qubits_reserved", sum(pending.qubits_needed.values())
            )
            telemetry.observe(
                "scheduler.queue_wait", now - request.arrival_time, priority=request.priority
            )
            if record.rerouted:
                telemetry.counter_inc("scheduler.reroutes")
            _log.debug(
                "session %d (%s) admitted at t=%g (queued %g, %d qubits)",
                session_id,
                request.priority,
                now,
                now - request.arrival_time,
                sum(pending.qubits_needed.values()),
            )
            ledger.reserve(session_id, pending.qubits_needed)
            record.start_time = now
            record.finish_time = now + pending.duration
            record.hold_time = (now - request.arrival_time) / self.hold_time_unit
            pending.resolved = True
            pending.channels = tuple(
                dynamics.channel_at(self.topology.link(sender, receiver), now)
                for sender, receiver in pending.route.hops()
            )
            if selector is not None:
                selector.charge(
                    request.priority, cost=float(sum(pending.qubits_needed.values()))
                )
            push(record.finish_time, _COMPLETION, pending)

        def serve(now: float) -> None:
            """Admit every waiting session that can start at *now*, picking among class heads."""
            scan = dict.fromkeys(waiting, 0)
            while True:
                heads: dict[str | None, _Pending] = {}
                for key, sessions in waiting.items():
                    index = scan[key]
                    while index < len(sessions) and not ready(sessions[index], now):
                        index += 1
                    scan[key] = index
                    if index < len(sessions):
                        heads[key] = sessions[index]
                if not heads:
                    break
                key = next(iter(heads)) if len(heads) == 1 else selector.pick(heads)
                admit(heads[key], now)
                scan[key] += 1
            for key, sessions in waiting.items():
                waiting[key] = [w for w in sessions if not w.resolved]

        while events:
            now, kind, _, pending = heapq.heappop(events)
            if kind == _RECOVERY:
                # An outage window ended: retry the waiting sessions.
                # Advances sim_time only when there is work to retry, so
                # recovery events on an idle network don't pad the horizon.
                if any(waiting.values()):
                    sim_time = max(sim_time, now)
                    serve(now)
                continue
            assert pending is not None
            if kind == _TIMEOUT and pending.resolved:
                # Stale timeout of a session admitted while it waited: must
                # not advance sim_time, or every run with max_wait set would
                # have its horizon padded to last_arrival + max_wait and all
                # throughput figures silently deflated.
                continue
            sim_time = max(sim_time, now)
            if kind == _ARRIVAL:
                if ready(pending, now):
                    admit(pending, now)
                elif not pending.resolved:
                    waiting.setdefault(class_of(pending), []).append(pending)
                    telemetry.observe(
                        "scheduler.queue_depth", sum(map(len, waiting.values()))
                    )
                    # The patience timer starts with the wait, so at
                    # max_wait=0 it fires after this arrival, not before.
                    if self.max_wait is not None:
                        push(now + self.max_wait, _TIMEOUT, pending)
            elif kind == _COMPLETION:
                ledger.release(pending.request.session_id, pending.qubits_needed)
                serve(now)
            elif kind == _TIMEOUT:
                reject(
                    pending,
                    "outage_timeout" if pending.outage_blocked else "capacity_timeout",
                )
                waiting[class_of(pending)].remove(pending)

        # With max_wait=None a waiting session is eventually admitted once
        # reservations drain and outages recover, so this is a defensive
        # sweep, not an expected path; outage-blocked stragglers are labelled
        # as such so the SLA decomposition attributes them.
        for sessions in waiting.values():
            for pending in sessions:
                pending.resolved = True
                pending.record.abort_reason = (
                    "outage_timeout" if pending.outage_blocked else "capacity_timeout"
                )
        return sim_time

    # -- phase 2: execution ----------------------------------------------------------------
    def _execution_pass(self, pendings: list[_Pending]) -> None:
        """Run every admitted session through the sweep worker pool."""
        # Looked up at call time, not imported at module level: perfbench's
        # tracer patches run_sweep on its module, and a name bound at import
        # time would bypass the patch.
        from repro.experiments.sweep import run_sweep

        admitted = [pending for pending in pendings if pending.record.admitted]
        if not admitted:
            return
        by_id = {pending.request.session_id: pending for pending in admitted}

        def worker(params: dict[str, Any], seed: int) -> SessionOutcome:
            pending = by_id[params["session"]]
            # A request may pin its own seed (the messaging facade does, so
            # fragment retransmissions stay deterministic); otherwise the
            # sweep-derived per-session seed applies.
            if pending.request.seed is not None:
                seed = int(pending.request.seed)
            return run_session(
                self.topology,
                pending.route,
                pending.request,
                self.session_params,
                seed=seed,
                hold_time=pending.record.hold_time,
                # Admission-time condition snapshots (the links' own channel
                # objects while conditions are trivial).
                channel_overrides=pending.channels,
            )

        grid = [{"session": pending.request.session_id} for pending in admitted]
        sweep = run_sweep(
            worker,
            grid,
            base_seed=self.seed,
            executor=self.executor,
            max_workers=self.max_workers,
        )
        for pending, outcome in zip(admitted, sweep.values):
            record = pending.record
            record.status = outcome.status
            record.failed_hop = outcome.failed_hop
            record.abort_reason = outcome.abort_reason
            record.end_to_end_error_rate = outcome.end_to_end_error_rate
            record.hop_reports = outcome.hop_reports
            record.sent_message = outcome.sent_message
            record.delivered_message = outcome.delivered_message


def simulate_network(
    topology: NetworkTopology,
    traffic: Any,
    *,
    routing_policy: str = "hops",
    session_params: SessionParameters | None = None,
    hop_overhead: float = 1e-3,
    hold_time_unit: float = 1e-3,
    max_wait: float | None = None,
    seed: int = 0,
    executor: str = "serial",
    max_workers: int | None = None,
    dynamics: NetworkDynamics | None = None,
    qos: QoSPolicy | None = None,
) -> NetworkResult:
    """One-call wrapper around :class:`NetworkScheduler` (see its docs)."""
    scheduler = NetworkScheduler(
        topology,
        routing_policy=routing_policy,
        session_params=session_params,
        hop_overhead=hop_overhead,
        hold_time_unit=hold_time_unit,
        max_wait=max_wait,
        seed=seed,
        executor=executor,
        max_workers=max_workers,
        dynamics=dynamics,
        qos=qos,
    )
    return scheduler.run(traffic)
