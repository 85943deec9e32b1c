"""Scheduler tests: determinism, capacity/abort accounting, traffic models."""

from __future__ import annotations

import hashlib
import math

import pytest

from repro.channel.quantum_channel import NoiselessChannel
from repro.exceptions import NetworkError
from repro.network.metrics import NetworkResult
from repro.network.scheduler import (
    NetworkScheduler,
    PoissonTraffic,
    QoSPolicy,
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


class TestQoSPolicy:
    @pytest.mark.parametrize("weight", [math.nan, math.inf, 0.0, -1.0])
    def test_weights_must_be_positive_and_finite(self, weight):
        with pytest.raises(NetworkError):
            QoSPolicy(weights={"bulk": 1.0, "control": weight})


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
            lambda: PoissonTraffic(num_sessions=float("nan")),
            lambda: PoissonTraffic(num_sessions=2.5),
            lambda: PoissonTraffic(num_sessions=1, message_length=2.5),
            lambda: TraceTraffic([(0.0, "n0", "n1", float("nan"))]),
            lambda: TraceTraffic([(0.0, "n0", "n1", 2.5)]),
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
            "num-sessions-nan",
            "num-sessions-fractional",
            "message-length-fractional",
            "trace-length-nan",
            "trace-length-fractional",
            "max-wait-nan",
            "hop-overhead-nan",
            "hold-time-unit-nan",
            "hold-time-unit-inf",
        ],
    )
    def test_non_finite_parameters_rejected(self, build):
        # NaN fails every ``x < 0`` comparison, so sign checks alone let it
        # through to the event heap, where tuple ordering is undefined; a
        # fractional count used to fail later with a bare TypeError, or be
        # truncated.
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


def _pinned_dynamic_run() -> NetworkResult:
    """Hand-placed outage windows under QoS (see ``test_dynamic_schedule_pinned``)."""
    from repro.network.dynamics import NetworkDynamics, OutageSchedule, OutageWindow
    from repro.network.topology import NetworkTopology

    topology = NetworkTopology("pin")
    for name in ("a", "b", "c", "d", "e", "f", "p", "q", "r"):
        topology.add_node(name)
    topology.node("b").qubit_capacity = 2 * QUICK.pairs_per_hop(8)
    for node_a, node_b in (
        ("a", "b"), ("b", "c"), ("a", "d"), ("d", "c"), ("c", "e"),
        ("a", "f"), ("p", "b"), ("b", "q"), ("q", "r"),
    ):
        topology.add_link(node_a, node_b, NoiselessChannel())
    dynamics = NetworkDynamics(
        outages=OutageSchedule(
            [
                OutageWindow("link", "b|c", 2.875, 20.0),
                OutageWindow("node", "e", 0.5, 3.5),
                OutageWindow("node", "f", 1.0, 10.0),
            ]
        )
    )
    traffic = TraceTraffic(
        [
            (0.0, "p", "r", 8, "bulk"),
            (0.25, "a", "b", 8, "bulk"),
            (0.75, "a", "c", 8, "interactive"),
            (1.0, "c", "e", 8, "control"),
            (1.5, "a", "f", 8, "bulk"),
            (5.0, "b", "c", 8, "control"),
        ]
    )
    return simulate_network(
        topology, traffic, session_params=QUICK, seed=3, hop_overhead=1.0,
        max_wait=2.5, dynamics=dynamics, qos=QoSPolicy(),
    )


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

    @staticmethod
    def _zero_patience_run(dynamics=None):
        """Two simultaneous ``n0→n2`` requests, relay room for one, ``max_wait=0``."""
        from repro import telemetry

        topology = line_topology(3, channel_factory=lambda length: NoiselessChannel())
        topology.node("n1").qubit_capacity = 2 * QUICK.pairs_per_hop(8)
        scheduler = NetworkScheduler(
            topology, session_params=QUICK, max_wait=0.0, dynamics=dynamics
        )
        requests = TraceTraffic([(0.0, "n0", "n2", 8), (0.0, "n0", "n2", 8)]).generate(
            topology
        )
        pendings = [scheduler._prepare(request) for request in requests]
        with telemetry.capture(clock="ticks") as session:
            scheduler._reservation_pass(pendings)
        rows = [
            (p.record.session_id, p.record.admitted, p.record.start_time, p.record.abort_reason)
            for p in pendings
        ]
        counters = session.document.metrics["counters"]
        return rows, counters.get("scheduler.rejections"), counters.get("scheduler.admitted")

    def test_zero_patience_resolves_each_session_once(self):
        """``max_wait=0``: a session that cannot start at once is rejected, once.

        Each patience timer starts when its session starts waiting; a timer
        at the arrival instant used to fire before the arrival itself, so
        every request was rejected and then ran anyway.
        """
        rows, rejections, admitted = self._zero_patience_run()
        assert rows == [(0, True, 0.0, None), (1, False, None, "capacity_timeout")]
        assert rejections == {"reason=capacity_timeout": 1.0}
        assert admitted == {"": 1.0}

    def test_zero_patience_outage_blocked_session_is_an_outage_timeout(self):
        from repro.network.dynamics import NetworkDynamics, OutageSchedule, OutageWindow

        dynamics = NetworkDynamics(
            outages=OutageSchedule([OutageWindow("node", "n2", 0.0, 1.0)])
        )
        rows, rejections, admitted = self._zero_patience_run(dynamics)
        assert rows == [
            (0, False, None, "outage_timeout"),
            (1, False, None, "outage_timeout"),
        ]
        assert rejections == {"reason=outage_timeout": 2.0}
        assert admitted is None

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

    def test_dynamic_schedule_pinned(self):
        """The exact schedule under hand-placed outage windows and QoS.

        Session 2 queues for the relay ``b`` while its route ``a-b-c`` is
        clear; the ``b|c`` window *starts* while it waits (no recovery event
        marks that), so when ``b`` frees at t=3 it is re-routed over ``d``.
        Session 3 waits out an endpoint outage to the recovery at t=3.5 (the
        same instant as its patience expiry: recoveries come first), session
        4's endpoint stays down past its patience (``outage_timeout``),
        session 1 never gets room on ``b`` (``capacity_timeout``), and
        session 5 is re-routed on arrival around the window in force.
        """
        result = _pinned_dynamic_run()
        rows = [
            (
                r.session_id, r.admitted, r.start_time, r.finish_time, r.hold_time,
                r.abort_reason, r.route_nodes, r.rerouted,
            )
            for r in result.records
        ]
        assert rows == [
            (0, True, 0.0, 3.0, 0.0, None, ("p", "b", "q", "r"), False),
            (1, False, None, None, 0.0, "capacity_timeout", ("a", "b"), False),
            (2, True, 3.0, 5.0, 2250.0, None, ("a", "d", "c"), True),
            (3, True, 3.5, 4.5, 2500.0, None, ("c", "e"), False),
            (4, False, None, None, 0.0, "outage_timeout", ("a", "f"), False),
            (5, True, 5.0, 8.0, 0.0, None, ("b", "a", "d", "c"), True),
        ]
        assert result.sim_time == 8.0

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


class TestReservationPassPinned:
    """The reservation pass's scheduling fields over seeded 4×4-grid cells.

    Sixteen cells — FIFO and weighted-fair QoS, the ``outage`` and
    ``drift_outage`` profiles, a light and an overloaded arrival rate, two
    seeds — drive ``_prepare`` and ``_reservation_pass`` only (no quantum
    sessions run), and one SHA-256 digest of every record's scheduling
    fields holds the loop to its exact output.
    """

    SESSIONS = 80
    MEAN_SESSION_S = 0.00279
    PARAMS = SessionParameters(identity_pairs=2, check_pairs_per_round=32)

    def _cell(self, seed, profile, rate, qos, max_wait=8 * MEAN_SESSION_S):
        from repro.network.dynamics import condition_profile
        from repro.network.topology import grid_topology
        from repro.utils.rng import as_rng, point_seed

        topology = grid_topology(4, 4, qubit_capacity=256)
        horizon = 1.5 * self.SESSIONS / rate + 4 * self.MEAN_SESSION_S
        scheduler = NetworkScheduler(
            topology,
            session_params=self.PARAMS,
            max_wait=max_wait,
            seed=seed,
            dynamics=None if profile is None else condition_profile(
                profile, topology, seed=seed, horizon=horizon
            ),
            qos=qos,
        )
        traffic = PoissonTraffic(
            num_sessions=self.SESSIONS,
            rate=rate,
            message_length=16,
            priority_mix={"control": 1.0, "interactive": 1.0, "bulk": 2.0},
        )
        requests = traffic.generate(topology, as_rng(point_seed(seed, {"stream": "traffic"})))
        requests.sort(key=lambda r: (r.arrival_time, r.session_id))
        pendings = [scheduler._prepare(request) for request in requests]
        sim_time = scheduler._reservation_pass(pendings)
        return [pending.record for pending in pendings], sim_time

    def test_grid_cells_digest_pinned(self):
        digest = hashlib.sha256()
        reasons: dict[str, int] = {}
        reroutes = 0
        for seed in (1, 2):
            for profile in ("outage", "drift_outage"):
                for rate in (2100.0, 10600.0):
                    for qos in (None, QoSPolicy()):
                        records, sim_time = self._cell(seed, profile, rate, qos)
                        rows = [
                            (
                                r.session_id, r.admitted, r.start_time, r.finish_time,
                                r.hold_time, r.abort_reason, r.route_nodes, r.rerouted,
                            )
                            for r in records
                        ]
                        digest.update(repr((rows, sim_time)).encode())
                        reroutes += sum(r.admitted and r.rerouted for r in records)
                        for r in records:
                            reasons[r.abort_reason] = reasons.get(r.abort_reason, 0) + 1
        assert reroutes > 0
        assert reasons.get("outage_timeout", 0) > 0
        assert reasons.get("capacity_timeout", 0) > 0
        assert digest.hexdigest() == (
            "4aabeb5f41490bc8a5472fd7d550316a1edae9215c10456258436d32446e075c"
        )

    def test_fifo_static_cells_digest_pinned(self):
        """The path ``relay_static`` runs: no dynamics, no QoS, FIFO service.

        Eight cells — two rates, two seeds, a patience of eight mean
        sessions and none — hashed over the same row fields as above.
        """
        digest = hashlib.sha256()
        queued = timed_out = 0
        for seed in (1, 2):
            for rate in (2100.0, 10600.0):
                for max_wait in (8 * self.MEAN_SESSION_S, None):
                    records, sim_time = self._cell(seed, None, rate, None, max_wait)
                    rows = [
                        (
                            r.session_id, r.admitted, r.start_time, r.finish_time,
                            r.hold_time, r.abort_reason, r.route_nodes, r.rerouted,
                        )
                        for r in records
                    ]
                    digest.update(repr((rows, sim_time)).encode())
                    queued += sum(
                        r.admitted and r.start_time > r.arrival_time for r in records
                    )
                    timed_out += sum(r.abort_reason == "capacity_timeout" for r in records)
        assert queued > 0
        assert timed_out > 0
        assert digest.hexdigest() == (
            "9ef9309ec5c5426936e61c397782a1eaf4d2bea576c76ec6761bf4cbef7ea690"
        )


class TestSchedulerTelemetry:
    """``scheduler.queue_wait`` and ``scheduler.outage_blocked`` against the records."""

    @staticmethod
    def _run() -> NetworkResult:
        from repro.network.dynamics import condition_profile

        topology = _noiseless_grid(3, 3, qubit_capacity=96)
        traffic = PoissonTraffic(
            num_sessions=40,
            rate=1500.0,
            message_length=8,
            priority_mix={"control": 1.0, "interactive": 1.0, "bulk": 2.0},
        )
        return simulate_network(
            topology,
            traffic,
            session_params=QUICK,
            max_wait=0.01,
            seed=5,
            dynamics=condition_profile("drift_outage", topology, seed=5, horizon=0.05),
            qos=QoSPolicy(),
        )

    def test_queue_wait_matches_records_and_tracing_changes_nothing(self):
        from repro import telemetry

        plain = self._run()
        with telemetry.capture(clock="ticks") as session:
            traced = self._run()
        assert [r.summary() for r in traced.records] == [r.summary() for r in plain.records]
        metrics = session.document.metrics
        admitted = metrics["counters"]["scheduler.admitted_by_class"]
        waits = metrics["histograms"]["scheduler.queue_wait"]
        assert set(waits) == set(admitted)
        for label, histogram in waits.items():
            priority = label.split("=", 1)[1]
            records = [r for r in traced.records if r.admitted and r.priority == priority]
            assert histogram["count"] == admitted[label] == len(records)
            assert histogram["sum"] == pytest.approx(
                sum(r.start_time - r.arrival_time for r in records), rel=1e-12, abs=1e-15
            )
        assert any(histogram["sum"] > 0 for histogram in waits.values())
        blocked = metrics["counters"]["scheduler.outage_blocked"]
        for label, count in blocked.items():
            priority = label.split("=", 1)[1]
            sessions = [r for r in traced.records if r.priority == priority]
            timed_out = sum(r.abort_reason == "outage_timeout" for r in sessions)
            assert timed_out <= count <= len(sessions)
        assert sum(blocked.values()) > 0

    def test_outage_blocked_counts_each_session_once(self):
        from repro import telemetry

        with telemetry.capture(clock="ticks") as session:
            _pinned_dynamic_run()
        counters = session.document.metrics["counters"]
        # Session 3 (control) waits out its endpoint's outage and session 4
        # (bulk) times out behind one; both are re-checked several times.
        assert counters["scheduler.outage_blocked"] == {
            "priority=bulk": 1.0,
            "priority=control": 1.0,
        }
        assert counters["scheduler.reroutes"][""] == 2.0


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

    def test_runs_leave_the_topology_unchanged(self):
        # Reservations live in each run's own ledger: two runs on one
        # topology agree, and every link and node keeps its field objects
        # and their state (nothing accumulates in the shared topology).
        topology = _noiseless_grid(2, 2, qubit_capacity=256)
        traffic = PoissonTraffic(num_sessions=5, rate=200.0, message_length=8)
        elements = [*topology.links, *map(topology.node, topology.node_names)]
        fields = [dict(vars(element)) for element in elements]
        shown = [repr(element) for element in elements]
        first = simulate_network(topology, traffic, session_params=QUICK, seed=11)
        second = simulate_network(topology, traffic, session_params=QUICK, seed=11)
        assert first.admitted_count and first.summary() == second.summary()
        for element, before, text in zip(elements, fields, shown):
            assert vars(element).keys() == before.keys()
            for name, value in before.items():
                assert getattr(element, name) is value, (element, name)
            assert repr(element) == text


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
