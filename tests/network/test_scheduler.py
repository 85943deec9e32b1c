"""Scheduler tests: determinism, capacity/abort accounting, traffic models."""

from __future__ import annotations

import pytest

from repro.channel.quantum_channel import NoiselessChannel
from repro.exceptions import NetworkError
from repro.network.metrics import NetworkResult
from repro.network.scheduler import (
    NetworkScheduler,
    PoissonTraffic,
    TraceTraffic,
    simulate_network,
)
from repro.network.sessions import (
    STATUS_ABORTED,
    STATUS_DELIVERED,
    STATUS_DELIVERED_WITH_ERRORS,
    STATUS_REJECTED,
    SessionParameters,
)
from repro.network.topology import grid_topology, line_topology

QUICK = SessionParameters(identity_pairs=2, check_pairs_per_round=16)


def _noiseless_grid(rows=2, cols=2, **node_kwargs):
    return grid_topology(
        rows, cols, channel_factory=lambda length: NoiselessChannel(), **node_kwargs
    )


class TestTrafficModels:
    def test_poisson_deterministic_under_seed(self):
        topology = _noiseless_grid()
        traffic = PoissonTraffic(num_sessions=10, rate=50.0, message_length=8)
        from repro.utils.rng import as_rng

        first = traffic.generate(topology, as_rng(4))
        second = traffic.generate(topology, as_rng(4))
        assert [
            (r.arrival_time, r.source, r.target) for r in first
        ] == [(r.arrival_time, r.source, r.target) for r in second]
        assert all(r.source != r.target for r in first)
        arrivals = [r.arrival_time for r in first]
        assert arrivals == sorted(arrivals)

    def test_poisson_validation(self):
        with pytest.raises(NetworkError):
            PoissonTraffic(num_sessions=0)
        with pytest.raises(NetworkError):
            PoissonTraffic(num_sessions=1, rate=0.0)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: PoissonTraffic(num_sessions=1, rate=float("nan")),
            lambda: PoissonTraffic(num_sessions=1, rate=float("inf")),
            lambda: PoissonTraffic(num_sessions=1, priority_mix={"bulk": float("nan")}),
            lambda: TraceTraffic([(float("nan"), "n0", "n1", 8)]),
            lambda: NetworkScheduler(line_topology(2), max_wait=float("nan")),
            lambda: NetworkScheduler(line_topology(2), hop_overhead=float("nan")),
            lambda: NetworkScheduler(line_topology(2), hold_time_unit=float("nan")),
            lambda: NetworkScheduler(line_topology(2), hold_time_unit=float("inf")),
        ],
        ids=[
            "rate-nan",
            "rate-inf",
            "priority-weight-nan",
            "trace-time-nan",
            "max-wait-nan",
            "hop-overhead-nan",
            "hold-time-unit-nan",
            "hold-time-unit-inf",
        ],
    )
    def test_non_finite_parameters_rejected(self, build):
        # NaN fails every ``x < 0`` comparison, so sign checks alone let it
        # through to the event heap, where tuple ordering is undefined.
        with pytest.raises(NetworkError):
            build()

    def test_trace_traffic_sorted_and_validated(self):
        topology = line_topology(3)
        traffic = TraceTraffic([(0.2, "n2", "n0", 8), (0.1, "n0", "n2", 8)])
        requests = traffic.generate(topology)
        assert [r.arrival_time for r in requests] == [0.1, 0.2]
        assert requests[0].session_id == 0
        with pytest.raises(NetworkError):
            TraceTraffic([(0.0, "n0", "ghost", 8)]).generate(topology)
        with pytest.raises(NetworkError):
            TraceTraffic([])


class TestDeterminism:
    def test_identical_results_across_repeats_and_executors(self):
        """The acceptance-criteria property, at unit-test scale."""
        topology = _noiseless_grid(2, 3, qubit_capacity=128)
        traffic = PoissonTraffic(num_sessions=12, rate=300.0, message_length=8)
        baseline = simulate_network(
            topology, traffic, session_params=QUICK, seed=42, executor="serial"
        )
        repeat = simulate_network(
            topology, traffic, session_params=QUICK, seed=42, executor="serial"
        )
        threaded = simulate_network(
            topology, traffic, session_params=QUICK, seed=42, executor="thread",
            max_workers=4,
        )
        assert baseline.summary() == repeat.summary()
        assert baseline.summary() == threaded.summary()

    def test_different_seed_changes_traffic(self):
        topology = _noiseless_grid(2, 2)
        traffic = PoissonTraffic(num_sessions=6, rate=100.0)
        first = simulate_network(topology, traffic, session_params=QUICK, seed=1)
        second = simulate_network(topology, traffic, session_params=QUICK, seed=2)
        assert first.summary() != second.summary()

    def test_process_executor_rejected(self):
        with pytest.raises(NetworkError):
            NetworkScheduler(_noiseless_grid(), executor="process")


class TestCapacityAccounting:
    def test_all_sessions_accounted(self):
        topology = _noiseless_grid(2, 2, qubit_capacity=100)
        traffic = PoissonTraffic(num_sessions=15, rate=1000.0, message_length=8)
        result = simulate_network(
            topology, traffic, session_params=QUICK, seed=5, max_wait=0.01
        )
        statuses = (
            STATUS_DELIVERED,
            STATUS_DELIVERED_WITH_ERRORS,
            STATUS_ABORTED,
            STATUS_REJECTED,
        )
        assert sum(result.count(status) for status in statuses) == 15
        assert result.num_sessions == 15

    def test_unviable_sessions_rejected_immediately(self):
        # capacity below one session's per-hop pair budget: nothing can run
        needed = QUICK.pairs_per_hop(8)
        topology = _noiseless_grid(2, 2, qubit_capacity=needed - 1)
        traffic = PoissonTraffic(num_sessions=4, rate=100.0, message_length=8)
        result = simulate_network(topology, traffic, session_params=QUICK, seed=3)
        assert result.rejected_count == 4
        assert all(
            record.abort_reason == "insufficient_capacity"
            for record in result.records
        )
        assert result.delivery_rate == 0.0

    def test_contention_queues_then_serves(self):
        # One shared relay with room for exactly one relayed session at a
        # time: simultaneous arrivals must be serialised, so later sessions
        # see positive wait (and positive memory hold time).
        relay_capacity = 2 * QUICK.pairs_per_hop(8)
        topology = line_topology(
            3, channel_factory=lambda length: NoiselessChannel()
        )
        topology.node("n1").qubit_capacity = relay_capacity
        traffic = TraceTraffic([(0.0, "n0", "n2", 8), (0.0, "n0", "n2", 8)])
        result = simulate_network(
            topology, traffic, session_params=QUICK, seed=9, hop_overhead=1e-3
        )
        waits = sorted(record.wait_time for record in result.records)
        assert waits[0] == 0.0
        assert waits[1] > 0.0
        holds = sorted(record.hold_time for record in result.records)
        assert holds[1] > 0.0
        assert result.rejected_count == 0

    def test_impatient_sessions_time_out(self):
        relay_capacity = 2 * QUICK.pairs_per_hop(8)
        topology = line_topology(
            3, channel_factory=lambda length: NoiselessChannel()
        )
        topology.node("n1").qubit_capacity = relay_capacity
        # Second session times out before the first one's reservation clears.
        traffic = TraceTraffic([(0.0, "n0", "n2", 8), (0.0, "n0", "n2", 8)])
        result = simulate_network(
            topology,
            traffic,
            session_params=QUICK,
            seed=9,
            hop_overhead=1.0,
            max_wait=0.5,
        )
        assert result.rejected_count == 1
        rejected = [r for r in result.records if r.status == STATUS_REJECTED]
        assert rejected[0].abort_reason == "capacity_timeout"

    def test_static_schedule_pinned(self):
        """The frozen configuration's exact schedule (no dynamics, no QoS).

        One trace covers FIFO queueing, a patience expiry, an unviable
        request and an unroutable one; the rows are literals so the
        reservation loop is held to fixed output, not to another copy of
        itself.
        """
        topology = line_topology(3, channel_factory=lambda length: NoiselessChannel())
        topology.node("n1").qubit_capacity = 2 * QUICK.pairs_per_hop(8)
        topology.add_node("x")
        traffic = TraceTraffic(
            [
                (0.0, "n0", "n2", 8),
                (0.0, "n0", "n2", 8),
                (0.0005, "n2", "n0", 8),
                (0.001, "n0", "n2", 64),
                (0.002, "n0", "x", 8),
                (0.0025, "n1", "n2", 8),
                (0.003, "n0", "n1", 8),
            ]
        )
        result = simulate_network(
            topology, traffic, session_params=QUICK, seed=3, hop_overhead=1e-3,
            max_wait=0.003,
        )
        rows = [
            (r.session_id, r.admitted, r.start_time, r.finish_time, r.hold_time, r.abort_reason)
            for r in result.records
        ]
        assert rows == [
            (0, True, 0.0, 0.002, 0.0, None),
            (1, True, 0.002, 0.004, 2.0, "round2_chsh_failed"),
            (2, False, None, None, 0.0, "capacity_timeout"),
            (3, False, None, None, 0.0, "insufficient_capacity"),
            (4, False, None, None, 0.0, "no_route"),
            (5, True, 0.004, 0.005, 1.5, None),
            (6, True, 0.004, 0.005, 1.0, None),
        ]
        assert result.sim_time == 0.005

    def test_no_route_is_rejected(self):
        from repro.network.topology import NetworkTopology

        topology = NetworkTopology()
        for name in ("a", "b", "c"):
            topology.add_node(name)
        topology.add_link("a", "b", NoiselessChannel())
        traffic = TraceTraffic([(0.0, "a", "c", 8)])
        result = simulate_network(topology, traffic, session_params=QUICK, seed=1)
        assert result.rejected_count == 1
        assert result.records[0].abort_reason == "no_route"


class TestMetrics:
    def _run(self) -> NetworkResult:
        topology = _noiseless_grid(2, 2, qubit_capacity=256)
        traffic = PoissonTraffic(num_sessions=10, rate=200.0, message_length=8)
        return simulate_network(topology, traffic, session_params=QUICK, seed=11)

    def test_rates_are_consistent(self):
        result = self._run()
        assert 0.0 <= result.abort_rate <= 1.0
        assert 0.0 <= result.delivery_rate <= 1.0
        assert result.delivered_count + result.aborted_count + result.rejected_count == 10
        assert result.throughput_sessions >= 0.0
        if result.delivered_count:
            assert result.mean_latency > 0.0
            assert result.throughput_bits == pytest.approx(
                8 * result.throughput_sessions
            )

    def test_link_utilisation_counts_hops(self):
        result = self._run()
        total_hops = sum(len(record.hop_reports) for record in result.records)
        assert sum(result.link_utilisation().values()) == total_hops

    def test_route_stats_partition_sessions(self):
        result = self._run()
        stats = result.route_stats()
        assert sum(entry["sessions"] for entry in stats.values()) == 10

    def test_summary_is_json_serialisable(self):
        import json

        text = json.dumps(self._run().summary())
        assert "throughput_sessions" in text

    def test_classical_channels_log_reservations(self):
        topology = _noiseless_grid(2, 2, qubit_capacity=256)
        traffic = PoissonTraffic(num_sessions=5, rate=200.0, message_length=8)
        result = simulate_network(topology, traffic, session_params=QUICK, seed=11)
        logged = sum(len(link.classical_channel.log) for link in topology.links)
        admitted_hops = sum(
            len(record.route_nodes) - 1
            for record in result.records
            if record.admitted
        )
        # one reserve + one release broadcast per admitted hop
        assert logged == 2 * admitted_hops


class TestRequestOverrides:
    """Requests may pin their own message and seed (the messaging facade does)."""

    class _FixedTraffic:
        def __init__(self, requests):
            self.requests = requests

        def generate(self, topology, rng=None):
            return list(self.requests)

    def _requests(self):
        from repro.network.sessions import SessionRequest

        return [
            SessionRequest(0, "n0", "n2", 8, 0.0, message="10110010", seed=107),
            SessionRequest(1, "n0", "n2", 8, 0.0, message="01010101", seed=202),
        ]

    def test_pinned_messages_are_delivered(self):
        topology = line_topology(3, channel_factory=lambda length: NoiselessChannel())
        result = simulate_network(
            topology, self._FixedTraffic(self._requests()), session_params=QUICK, seed=0
        )
        delivered = {r.session_id: r.delivered_message for r in result.records}
        assert delivered == {0: "10110010", 1: "01010101"}
        assert result.records[0].sent_message == "10110010"

    def test_pinned_seeds_make_outcomes_scheduler_seed_independent(self):
        """With per-request seeds, the scheduler seed must not affect quantum outcomes."""

        def run(scheduler_seed):
            topology = line_topology(
                3, channel_factory=lambda length: NoiselessChannel()
            )
            return simulate_network(
                topology,
                self._FixedTraffic(self._requests()),
                session_params=QUICK,
                seed=scheduler_seed,
            )

        first, second = run(1), run(2)
        assert [r.summary() for r in first.records] == [
            r.summary() for r in second.records
        ]
