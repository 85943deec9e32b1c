"""Unit tests for the admission-control building blocks."""

import math

import pytest

from repro.exceptions import ChannelError, ConfigurationError
from repro.runtime.admission import (
    BACKPRESSURE_POLICIES,
    AdmissionQueue,
    NodeCapacityLedger,
    TokenBucket,
    WeightedFairSelector,
)


class TestTokenBucket:
    def test_starts_full_and_drains(self):
        bucket = TokenBucket(rate=10.0, burst=3)
        assert [bucket.try_acquire(0.0) for _ in range(4)] == [True, True, True, False]

    def test_refills_at_rate(self):
        bucket = TokenBucket(rate=10.0, burst=1)
        assert bucket.try_acquire(0.0)
        assert not bucket.try_acquire(0.05)
        assert bucket.try_acquire(0.16)

    def test_next_token_time(self):
        bucket = TokenBucket(rate=4.0, burst=1)
        assert bucket.next_token_time(0.0) == 0.0
        bucket.try_acquire(0.0)
        eta = bucket.next_token_time(0.0)
        assert eta == pytest.approx(0.25)
        assert not bucket.try_acquire(eta - 0.01)
        assert bucket.try_acquire(eta + 0.001)

    def test_burst_caps_accumulation(self):
        bucket = TokenBucket(rate=100.0, burst=2)
        # A long idle period must not bank more than `burst` tokens.
        grants = [bucket.try_acquire(100.0) for _ in range(3)]
        assert grants == [True, True, False]

    def test_time_never_runs_backwards(self):
        bucket = TokenBucket(rate=10.0, burst=1)
        bucket.try_acquire(5.0)
        # An out-of-order now must not produce negative refill.
        assert not bucket.try_acquire(4.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TokenBucket(rate=0.0)
        with pytest.raises(ConfigurationError):
            TokenBucket(rate=5.0, burst=0.5)


class TestAdmissionQueue:
    def test_policy_matrix_is_complete(self):
        assert BACKPRESSURE_POLICIES == ("block", "reject", "shed_oldest")
        for policy in BACKPRESSURE_POLICIES:
            AdmissionQueue(capacity=2, policy=policy)
        with pytest.raises(ConfigurationError):
            AdmissionQueue(policy="drop_newest")

    def test_fifo_order(self):
        queue = AdmissionQueue()
        for item in "abc":
            verdict, shed = queue.offer(item, 0.0)
            assert verdict == "queued" and not shed
        popped = [queue.pop(1.0)[0].item for _ in range(3)]
        assert popped == ["a", "b", "c"]
        entry, expired = queue.pop(1.0)
        assert entry is None and not expired

    def test_reject_policy_refuses_when_full(self):
        queue = AdmissionQueue(capacity=2, policy="reject")
        assert queue.offer("a", 0.0)[0] == "queued"
        assert queue.offer("b", 0.0)[0] == "queued"
        assert queue.offer("c", 0.0)[0] == "rejected"
        assert len(queue) == 2

    def test_block_policy_reports_full(self):
        queue = AdmissionQueue(capacity=1, policy="block")
        assert queue.offer("a", 0.0)[0] == "queued"
        verdict, shed = queue.offer("b", 0.0)
        assert verdict == "full" and not shed
        assert len(queue) == 1  # the caller waits; nothing was enqueued

    def test_shed_oldest_evicts_head(self):
        queue = AdmissionQueue(capacity=2, policy="shed_oldest")
        queue.offer("a", 0.0)
        queue.offer("b", 0.0)
        verdict, shed = queue.offer("c", 0.0)
        assert verdict == "queued"
        assert [entry.item for entry in shed] == ["a"]
        assert [entry.item for entry in queue.iter_entries()] == ["b", "c"]

    def test_timeout_expires_stale_entries_at_pop(self):
        queue = AdmissionQueue(timeout=1.0)
        queue.offer("old", 0.0)
        queue.offer("fresh", 0.8)
        entry, expired = queue.pop(1.5)
        assert entry.item == "fresh"
        assert [e.item for e in expired] == ["old"]

    def test_remove_expired_without_pop(self):
        queue = AdmissionQueue(timeout=0.5)
        queue.offer("a", 0.0)
        queue.offer("b", 0.4)
        expired = queue.remove_expired(0.7)
        assert [e.item for e in expired] == ["a"]
        assert len(queue) == 1

    def test_drain_empties_queue(self):
        queue = AdmissionQueue()
        for item in "xyz":
            queue.offer(item, 0.0)
        drained = queue.drain()
        assert [entry.item for entry in drained] == ["x", "y", "z"]
        assert len(queue) == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AdmissionQueue(capacity=0)
        with pytest.raises(ConfigurationError):
            AdmissionQueue(timeout=-1.0)


class TestDeadlineBoundary:
    """Exact-boundary pins for timeout expiry across all three policies.

    The contract (documented in ``repro/runtime/admission.py``): an entry is
    expired strictly *after* its deadline, so ``now == deadline`` still
    dispatches; expiry is enforced only at ``pop``; and a ``shed_oldest``
    eviction racing an expiry at the same tick resolves the head as shed.
    """

    def test_pop_at_exact_deadline_dispatches(self):
        queue = AdmissionQueue(timeout=1.0)
        queue.offer("edge", 0.0)
        entry, expired = queue.pop(1.0)  # now == deadline
        assert entry is not None and entry.item == "edge"
        assert not expired

    def test_pop_just_after_deadline_expires(self):
        queue = AdmissionQueue(timeout=1.0)
        queue.offer("late", 0.0)
        entry, expired = queue.pop(1.0 + 1e-9)
        assert entry is None
        assert [e.item for e in expired] == ["late"]

    def test_zero_timeout_still_allows_same_tick_dispatch(self):
        # deadline = enqueued_at + 0: "may wait up to 0" admits the entry
        # when offer and pop land on the same tick.
        queue = AdmissionQueue(timeout=0.0)
        queue.offer("now", 5.0)
        entry, expired = queue.pop(5.0)
        assert entry is not None and entry.item == "now"
        assert not expired

    def test_expired_entry_is_admissible_at_its_own_deadline_via_remove_expired(self):
        queue = AdmissionQueue(timeout=2.0)
        queue.offer("a", 0.0)
        assert queue.remove_expired(2.0) == []  # boundary: still live
        assert [e.item for e in queue.remove_expired(2.0 + 1e-9)] == ["a"]

    def test_block_policy_reports_full_even_with_expirable_head(self):
        # offer() never expires entries: the head past its deadline still
        # occupies its slot until the next pop observes it.
        queue = AdmissionQueue(capacity=1, policy="block", timeout=1.0)
        queue.offer("stale", 0.0)
        verdict, shed = queue.offer("fresh", 10.0)
        assert verdict == "full" and not shed
        entry, expired = queue.pop(10.0)
        assert entry is None
        assert [e.item for e in expired] == ["stale"]

    def test_reject_policy_refuses_even_with_expirable_head(self):
        queue = AdmissionQueue(capacity=1, policy="reject", timeout=1.0)
        queue.offer("stale", 0.0)
        assert queue.offer("fresh", 10.0)[0] == "rejected"

    def test_shed_racing_expiry_at_same_tick_resolves_as_shed(self):
        # The head is both past its deadline and the shed victim; it must
        # leave through exactly one accounting channel — the shed list.
        queue = AdmissionQueue(capacity=1, policy="shed_oldest", timeout=1.0)
        queue.offer("victim", 0.0)
        verdict, shed = queue.offer("fresh", 10.0)  # head expired long ago
        assert verdict == "queued"
        assert [e.item for e in shed] == ["victim"]
        entry, expired = queue.pop(10.0)
        assert entry.item == "fresh"
        assert not expired  # the victim was shed, never double-counted


class TestNodeCapacityLedger:
    @pytest.fixture
    def topology(self):
        from repro.network.topology import build_topology

        return build_topology("line", num_nodes=3, qubit_capacity=10)

    def test_matches_scheduler_semantics(self, topology):
        ledger = NodeCapacityLedger(topology)
        names = topology.node_names
        needs = {names[0]: 6, names[1]: 6}
        assert ledger.viable(needs)
        assert ledger.fits(needs)
        ledger.reserve("s1", needs)
        assert ledger.qubits_in_use(names[0]) == 6
        # A second identical reservation exceeds capacity but stays viable.
        assert not ledger.fits(needs)
        assert ledger.viable(needs)
        ledger.release("s1", needs)
        assert ledger.fits(needs)
        assert ledger.qubits_in_use(names[0]) == 0

    def test_unviable_requests_never_fit(self, topology):
        ledger = NodeCapacityLedger(topology)
        names = topology.node_names
        assert not ledger.viable({names[0]: 11})
        assert not ledger.fits({names[0]: 11})

    def test_occupancy_in_node_order(self, topology):
        ledger = NodeCapacityLedger(topology)
        names = topology.node_names
        ledger.reserve("s", {names[1]: 4})
        assert list(ledger.occupancy().items()) == [
            (names[0], 0),
            (names[1], 4),
            (names[2], 0),
        ]

    def test_duplicate_reserve_raises_and_changes_nothing(self, topology):
        ledger = NodeCapacityLedger(topology)
        names = topology.node_names
        ledger.reserve("s1", {names[0]: 3})
        with pytest.raises(ChannelError):
            ledger.reserve("s1", {names[0]: 2, names[1]: 2})
        assert list(ledger.occupancy().values()) == [3, 0, 0]

    def test_release_of_unknown_key_raises(self, topology):
        ledger = NodeCapacityLedger(topology)
        names = topology.node_names
        with pytest.raises(ChannelError):
            ledger.release("never", {names[0]: 1})
        ledger.reserve("s1", {names[0]: 3})
        ledger.release("s1", {names[0]: 3})
        with pytest.raises(ChannelError):
            ledger.release("s1", {names[0]: 3})  # already released
        assert list(ledger.occupancy().values()) == [0, 0, 0]

    def test_scheduler_uses_the_ledger(self):
        """The network scheduler's reservation pass runs on this ledger."""
        import inspect

        from repro.network.scheduler import NetworkScheduler

        source = inspect.getsource(NetworkScheduler._reservation_pass)
        assert "NodeCapacityLedger" in source


class TestNonFiniteSettings:
    """NaN passes every ``<``/``<=`` bound check, so each bound must be NaN-safe.

    A NaN rate or burst left a token bucket that never refills (runs that
    wait for a token hung); a NaN timeout never expired; NaN weights made
    weighted-fair picks depend on argument order.
    """

    @pytest.mark.parametrize(
        "rate, burst",
        [(math.nan, None), (math.inf, None), (5.0, math.nan), (5.0, math.inf)],
    )
    def test_token_bucket(self, rate, burst):
        with pytest.raises(ConfigurationError):
            TokenBucket(rate, burst)

    @pytest.mark.parametrize("timeout", [math.nan, math.inf])
    def test_admission_queue_timeout(self, timeout):
        with pytest.raises(ConfigurationError):
            AdmissionQueue(timeout=timeout)

    @pytest.mark.parametrize("capacity", [math.nan, math.inf])
    def test_admission_queue_capacity(self, capacity):
        with pytest.raises(ConfigurationError):
            AdmissionQueue(capacity=capacity)

    @pytest.mark.parametrize("weight", [math.nan, math.inf])
    def test_weighted_fair_weight(self, weight):
        with pytest.raises(ConfigurationError):
            WeightedFairSelector({"a": weight, "b": 1.0})

    @pytest.mark.parametrize("cost", [math.nan, math.inf])
    def test_weighted_fair_charge(self, cost):
        selector = WeightedFairSelector({"a": 1.0})
        with pytest.raises(ConfigurationError):
            selector.charge("a", cost)
        assert selector.virtual_time("a") == 0.0
