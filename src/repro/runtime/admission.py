"""Admission-control building blocks for the concurrent delivery runtime.

Four composable pieces, each clock-agnostic (every method takes ``now`` so
the same classes drive both the wall-clock engine and the virtual-clock load
simulation):

* :class:`TokenBucket` — classic rate limiting: a bucket of ``burst`` tokens
  refilled at ``rate`` per second; a request that finds no token is rate
  limited.
* :class:`AdmissionQueue` — a bounded FIFO with a configurable backpressure
  policy (see the matrix below) and timeout-based expiry: an entry still
  queued past its deadline is dropped the moment it would be dispatched.
* :class:`NodeCapacityLedger` — per-node EPR-pair occupancy counts: the
  capacity model of the network scheduler's reservation pass (the delivery
  engine and the load simulator do not use it).
* :class:`WeightedFairSelector` — deterministic virtual-time weighted-fair
  queuing across priority classes (``control``/``interactive``/``bulk`` by
  convention); the network scheduler's QoS admission builds on it.

Backpressure policy matrix
--------------------------
==============  =============================================================
``block``       The submitter waits for a queue slot (closed-loop clients;
                the queue is effectively bounded by the caller population).
                Nothing is dropped; latency absorbs the backpressure.
``reject``      A request arriving at a full queue is refused immediately
                (load shedding at the edge; the client sees a fast failure).
``shed_oldest`` The new request is admitted and the *oldest* queued request
                is dropped (freshness-first: bounded staleness under
                overload, as in mailbox-style actor runtimes).
==============  =============================================================

Expiry is orthogonal to the policy: with an admission timeout every queued
entry carries a deadline, and entries that exceeded it are resolved as
``expired`` rather than executed.

Deadline boundary (all three policies): an entry is expired strictly
*after* its deadline — at ``now == deadline`` it is still admissible and
:meth:`AdmissionQueue.pop` dispatches it.  The closed interval matches the
deadline's construction (``enqueued_at + timeout`` means "may wait *up to*
``timeout``", so ``timeout=0`` still permits same-tick dispatch) and is
enforced only at dispatch time: :meth:`AdmissionQueue.offer` never expires
entries, so under ``block`` a full queue whose head is past its deadline
still reports ``"full"`` (the head expires on the next ``pop``), and under
``shed_oldest`` a shed that races an expiry at the same tick resolves the
head as *shed*, not expired — the entry leaves through exactly one
accounting channel.  Exact-boundary behaviour for every policy is pinned by
``tests/runtime/test_admission.py``.
"""

from __future__ import annotations

import math
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.exceptions import ChannelError, ConfigurationError

__all__ = [
    "BACKPRESSURE_POLICIES",
    "PRIORITY_CLASSES",
    "AdmissionQueue",
    "NodeCapacityLedger",
    "QueueEntry",
    "TokenBucket",
    "WeightedFairSelector",
]

#: Backpressure policies accepted by :class:`AdmissionQueue` (and everything
#: built on it: the delivery engine and the load harness).
BACKPRESSURE_POLICIES = ("block", "reject", "shed_oldest")

#: Conventional priority-class names, highest urgency first.  Weighted-fair
#: consumers (:class:`WeightedFairSelector`, the network scheduler's QoS
#: policy) accept arbitrary class names; these are the documented defaults.
PRIORITY_CLASSES = ("control", "interactive", "bulk")


class TokenBucket:
    """Token-bucket rate limiter (``rate`` tokens/second, ``burst`` capacity).

    The bucket starts full.  :meth:`try_acquire` consumes one token if
    available; :meth:`next_token_time` tells a blocking caller when to retry.
    Time flows through the ``now`` arguments, so the bucket works unchanged
    on a virtual clock.
    """

    def __init__(self, rate: float, burst: "float | None" = None):
        # Comparisons written so NaN fails them too.
        if not 0 < rate < math.inf:
            raise ConfigurationError(
                f"token-bucket rate must be positive and finite, got {rate!r}"
            )
        burst = rate if burst is None else burst
        if not 1 <= burst < math.inf:
            raise ConfigurationError(
                f"token-bucket burst must be a finite count of at least 1 token, "
                f"got {burst!r}"
            )
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = self.burst
        self._updated: "float | None" = None

    def _refill(self, now: float) -> None:
        if self._updated is None:
            self._updated = now
            return
        elapsed = max(0.0, now - self._updated)
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._updated = now

    def try_acquire(self, now: float) -> bool:
        """Consume one token if the bucket holds one; False when rate limited."""
        self._refill(now)
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    def next_token_time(self, now: float) -> float:
        """The earliest time a token will be available (>= *now*)."""
        self._refill(now)
        if self._tokens >= 1.0:
            return now
        return now + (1.0 - self._tokens) / self.rate


@dataclass
class QueueEntry:
    """One queued item: opaque payload plus its admission bookkeeping."""

    item: Any
    enqueued_at: float
    deadline: "float | None" = None

    def expired(self, now: float) -> bool:
        """True strictly after the deadline; ``now == deadline`` is admissible.

        The inclusive boundary makes ``deadline = enqueued_at + timeout``
        mean "may wait up to *timeout*" (so ``timeout=0`` still allows
        same-tick dispatch); pinned by ``tests/runtime/test_admission.py``.
        """
        return self.deadline is not None and now > self.deadline


class AdmissionQueue:
    """A bounded FIFO with backpressure policies and timeout-based expiry.

    Parameters
    ----------
    capacity:
        Maximum queued entries (``None`` = unbounded; the ``block`` policy
        is typically paired with a bound enforced by the submitting side).
    policy:
        One of :data:`BACKPRESSURE_POLICIES`.  The queue itself implements
        ``reject`` and ``shed_oldest``; ``block`` is reported to the caller
        (:meth:`offer` returns ``"full"``) because *waiting* is the caller's
        concern — the threaded engine parks the submitter on a condition
        variable, the discrete-event simulator reschedules the arrival.
    timeout:
        Admission patience: entries queued longer than this are expired at
        dispatch time (``None`` = wait indefinitely).
    """

    def __init__(
        self,
        capacity: "int | None" = None,
        policy: str = "block",
        timeout: "float | None" = None,
    ):
        if policy not in BACKPRESSURE_POLICIES:
            raise ConfigurationError(
                f"unknown backpressure policy {policy!r}; known: "
                f"{BACKPRESSURE_POLICIES}"
            )
        if capacity is not None and not 1 <= capacity < math.inf:
            raise ConfigurationError("queue capacity must be positive or None")
        if timeout is not None and not 0 <= timeout < math.inf:
            raise ConfigurationError(
                f"admission timeout must be finite and non-negative or None, "
                f"got {timeout!r}"
            )
        self.capacity = capacity
        self.policy = policy
        self.timeout = timeout
        self._entries: "deque[QueueEntry]" = deque()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return self.capacity is not None and len(self._entries) >= self.capacity

    def offer(self, item: Any, now: float) -> "tuple[str, list[QueueEntry]]":
        """Try to enqueue *item*; returns ``(verdict, shed_entries)``.

        Verdicts: ``"queued"`` (admitted to the queue — possibly after
        shedding the entries returned alongside), ``"rejected"`` (policy
        ``reject`` and the queue is full) or ``"full"`` (policy ``block``
        and the queue is full — the caller must wait and re-offer).
        """
        shed: list[QueueEntry] = []
        if self.full:
            if self.policy == "reject":
                return "rejected", shed
            if self.policy == "block":
                return "full", shed
            while self.full and self._entries:
                shed.append(self._entries.popleft())
        deadline = None if self.timeout is None else now + self.timeout
        self._entries.append(QueueEntry(item, enqueued_at=now, deadline=deadline))
        return "queued", shed

    def pop(self, now: float) -> "tuple[QueueEntry | None, list[QueueEntry]]":
        """Dequeue the next live entry, dropping expired ones along the way.

        Returns ``(entry, expired_entries)``; ``entry`` is ``None`` when the
        queue held only expired entries (or nothing).  An entry whose
        ``deadline == now`` is *not* expired — it dispatches on this call
        (see :meth:`QueueEntry.expired` for the boundary rationale).
        """
        expired: list[QueueEntry] = []
        while self._entries:
            entry = self._entries.popleft()
            if entry.expired(now):
                expired.append(entry)
                continue
            return entry, expired
        return None, expired

    def drain(self) -> "list[QueueEntry]":
        """Remove and return every queued entry (shutdown support)."""
        entries = list(self._entries)
        self._entries.clear()
        return entries

    def remove_expired(self, now: float) -> "list[QueueEntry]":
        """Drop and return every entry whose deadline has passed."""
        live: "deque[QueueEntry]" = deque()
        expired: list[QueueEntry] = []
        for entry in self._entries:
            (expired if entry.expired(now) else live).append(entry)
        self._entries = live
        return expired

    def iter_entries(self) -> "Iterable[QueueEntry]":
        """Read-only iteration in FIFO order (scheduler-style queue scans)."""
        return iter(tuple(self._entries))

    def remove(self, entry: QueueEntry) -> bool:
        """Remove a specific entry (identity comparison); True if present."""
        try:
            self._entries.remove(entry)
        except ValueError:
            return False
        return True


class WeightedFairSelector:
    """Deterministic weighted-fair queuing across priority classes.

    Classic virtual-time WFQ reduced to the admission problem: every class
    carries a *virtual time* — normalised work served so far,
    ``work / weight`` — and :meth:`pick` selects, among the classes that
    currently have eligible work, the one with the smallest virtual time
    (ties broken lexicographically by class name, so selection is a pure
    function of the charge history).  :meth:`charge` advances the winner's
    virtual time by ``cost / weight``; over a saturated period each class
    therefore receives service proportional to its weight — the fairness
    property the scheduler's invariant battery asserts within tolerance.

    Classes never seen before default to weight 1.0 (documented leniency:
    operators can introduce a new traffic class without re-deploying the
    selector).  Scaling every weight by one positive constant leaves the
    selection order unchanged (pinned by the metamorphic tests).
    """

    def __init__(self, weights: "Mapping[str, float] | None" = None):
        self.weights: dict[str, float] = {}
        for name, weight in (weights or {}).items():
            if not 0 < weight < math.inf:
                raise ConfigurationError(
                    f"priority weight for {name!r} must be positive and finite, "
                    f"got {weight}"
                )
            self.weights[str(name)] = float(weight)
        self._virtual: dict[str, float] = {}

    def weight(self, priority: str) -> float:
        """The class's weight (1.0 for classes never configured)."""
        return self.weights.get(priority, 1.0)

    def virtual_time(self, priority: str) -> float:
        """Normalised work served to the class so far (``work / weight``)."""
        return self._virtual.get(priority, 0.0)

    def pick(self, eligible: Iterable[str]) -> "str | None":
        """The eligible class to serve next (None when *eligible* is empty).

        Deterministic: smallest ``(virtual_time, class_name)`` wins.
        """
        best: "str | None" = None
        for priority in eligible:
            if best is None or (
                (self.virtual_time(priority), priority)
                < (self.virtual_time(best), best)
            ):
                best = priority
        return best

    def charge(self, priority: str, cost: float = 1.0) -> None:
        """Record *cost* units of service delivered to the class."""
        if not 0 <= cost < math.inf:
            raise ConfigurationError(
                f"service cost must be finite and non-negative, got {cost!r}"
            )
        self._virtual[priority] = self.virtual_time(priority) + cost / self.weight(priority)


class NodeCapacityLedger:
    """Per-node EPR-pair occupancy: the network scheduler's capacity model.

    :meth:`~repro.network.scheduler.NetworkScheduler._reservation_pass`
    books every admitted session here.  A reservation adds the qubits the
    session pins on each node of its route to that node's occupancy and
    release subtracts them again; ``fits``/``viable`` are the scheduler's
    admission predicates.  Keys are unique while live: reserving a live key
    again, or releasing a key that is not live, raises
    :class:`~repro.exceptions.ChannelError` before anything changes.

    The *topology* object only needs ``node_names`` and ``node(name)``
    returning objects with ``qubit_capacity`` — the
    :class:`~repro.network.topology.NetworkTopology` contract.
    """

    def __init__(self, topology: Any):
        self.topology = topology
        self._in_use = {name: 0 for name in topology.node_names}
        self._live: set[Any] = set()

    def qubits_in_use(self, name: str) -> int:
        """Qubits currently reserved on one node."""
        return self._in_use[name]

    def fits(self, needs: Mapping[str, int]) -> bool:
        """Whether every needed node can hold its share *right now*."""
        return all(
            self._in_use[name] + needed <= capacity
            for name, needed in needs.items()
            if (capacity := self.topology.node(name).qubit_capacity) is not None
        )

    def viable(self, needs: Mapping[str, int]) -> bool:
        """Whether the request could ever fit, even on an idle network."""
        return all(
            self.topology.node(name).qubit_capacity is None
            or needed <= self.topology.node(name).qubit_capacity
            for name, needed in needs.items()
        )

    def reserve(self, key: Any, needs: Mapping[str, int]) -> None:
        """Pin *needs* qubits per node under *key*."""
        if key in self._live:
            raise ChannelError(f"reservation {key!r} is already held")
        self._live.add(key)
        for name, needed in needs.items():
            self._in_use[name] += needed

    def release(self, key: Any, needs: Mapping[str, int]) -> None:
        """Release the reservation *key* made with the same *needs*."""
        if key not in self._live:
            raise ChannelError(f"no reservation {key!r} is held")
        self._live.remove(key)
        for name, needed in needs.items():
            self._in_use[name] -= needed

    def occupancy(self) -> "OrderedDict[str, int]":
        """Per-node qubits in use, in topology node order (telemetry/debug)."""
        return OrderedDict(
            (name, self._in_use[name]) for name in self.topology.node_names
        )
