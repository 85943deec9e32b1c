"""Tests for the sustained-load harness (virtual-clock DES + calibration)."""

import json
import math

import pytest

from repro.exceptions import ConfigurationError
from repro.runtime import interrupt, loadgen
from repro.runtime.loadgen import (
    ARRIVAL_PROCESSES,
    LoadResult,
    ServiceTimeModel,
    percentile,
    run_live_calibration,
    simulate_load,
)

MODEL = ServiceTimeModel(base_time=0.01, per_hop_time=0.01, jitter=0.05,
                         abort_probability=0.1)


def run(**overrides) -> LoadResult:
    kwargs = dict(
        messages=2000,
        service_model=MODEL,
        seed=7,
        arrival="poisson",
        arrival_rate=200.0,
        workers=4,
    )
    kwargs.update(overrides)
    return simulate_load(**kwargs)


class TestPercentile:
    def test_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        assert percentile(values, 0.50) == 50.0
        assert percentile(values, 0.95) == 95.0
        assert percentile(values, 0.99) == 99.0
        assert percentile(values, 0.999) == 100.0

    def test_empty_is_zero(self):
        assert percentile([], 0.5) == 0.0


class TestServiceTimeModel:
    def test_hops_scale_the_mean(self, rng):
        flat = ServiceTimeModel(base_time=0.01, per_hop_time=0.005, jitter=0.0)
        assert flat.sample(rng, hops=1) == pytest.approx(0.01)
        assert flat.sample(rng, hops=3) == pytest.approx(0.02)

    def test_jitter_keeps_times_positive(self, rng):
        noisy = ServiceTimeModel(base_time=1e-4, jitter=0.5)
        assert all(noisy.sample(rng) > 0 for _ in range(200))

    def test_from_physics_matches_scheduler_formula(self):
        from repro.experiments.network_scale import build_network
        from repro.network.sessions import SessionParameters

        topology = build_network(topology="grid", rows=2, cols=2, qubit_capacity=None)
        params = SessionParameters()
        model = ServiceTimeModel.from_physics(
            topology, message_length=16, session_params=params, hop_overhead=1e-3
        )
        pairs = params.pairs_per_hop(16)
        durations = [link.quantum_channel.duration() for link in topology.links]
        expected = pairs * sum(durations) / len(durations) + 1e-3
        assert model.base_time == pytest.approx(expected)
        assert model.per_hop_time == pytest.approx(expected)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ServiceTimeModel(base_time=0.0)
        with pytest.raises(ConfigurationError):
            ServiceTimeModel(base_time=1.0, abort_probability=1.5)


class TestNonFiniteSettings:
    """Non-finite settings are refused before any simulated work starts.

    NaN passes ``x <= 0``-style checks: a NaN arrival rate, think time or
    service time gave NaN durations and latencies, a NaN worker count an
    unbounded pool, and a NaN rate limit or burst never yielded a token, so
    the run never ended.
    """

    @pytest.fixture(autouse=True)
    def no_run(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("simulate_load started a run")

        monkeypatch.setattr(loadgen, "_route_hops", refuse)

    @pytest.mark.parametrize("field", ["base_time", "per_hop_time", "jitter"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_service_time_model(self, field, value):
        kwargs = {"base_time": 0.01, field: value}
        with pytest.raises(ConfigurationError):
            ServiceTimeModel(**kwargs)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(arrival_rate=math.nan),
            dict(arrival_rate=math.inf),
            dict(arrival="closed", think_time=math.nan),
            dict(arrival="closed", think_time=math.inf),
            dict(rate_limit=math.nan),
            dict(rate_limit=5.0, burst_tokens=math.nan),
            dict(admission_timeout=math.nan),
            dict(messages=math.nan),
            dict(workers=math.nan),
            dict(arrival="closed", clients=math.nan),
            dict(arrival="burst", burst_size=math.nan),
            dict(arrival="burst", burst_size=0),
        ],
        ids=lambda overrides: ",".join(f"{k}={v}" for k, v in overrides.items()),
    )
    def test_simulate_load(self, overrides):
        with pytest.raises(ConfigurationError):
            run(**overrides)


class TestSimulateLoad:
    def test_reruns_are_byte_identical(self):
        first = run().summary()
        second = run().summary()
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_different_seeds_differ(self):
        assert run(seed=1).summary() != run(seed=2).summary()

    def test_block_policy_conserves_messages(self):
        result = run(policy="block")
        assert result.offered == 2000
        assert result.dropped == 0
        assert result.delivered + result.aborted == 2000
        assert result.aborted > 0  # abort_probability=0.1 must materialise

    def test_reject_policy_drops_under_overload(self):
        result = run(arrival="uniform", arrival_rate=2000.0, workers=1,
                     queue_capacity=8, policy="reject")
        assert result.rejected > 0
        assert result.offered == result.completed + result.dropped

    def test_shed_policy_sheds_under_overload(self):
        result = run(arrival="burst", arrival_rate=2000.0, burst_size=64,
                     workers=1, queue_capacity=8, policy="shed_oldest")
        assert result.shed > 0
        assert result.offered == result.completed + result.dropped

    def test_admission_timeout_expires(self):
        result = run(arrival_rate=2000.0, workers=1, admission_timeout=0.05)
        assert result.expired > 0

    def test_rate_limit_rejects_under_non_block_policy(self):
        result = run(policy="reject", rate_limit=50.0, burst_tokens=10)
        assert result.rejected > 0

    def test_rate_limit_delays_under_block_policy(self):
        limited = run(messages=500, policy="block", rate_limit=50.0)
        free = run(messages=500, policy="block")
        assert limited.dropped == 0
        assert limited.duration > free.duration  # throttled, not dropped

    def test_closed_loop_conserves_messages(self):
        result = run(arrival="closed", arrival_rate=None, clients=16,
                     think_time=0.005)
        assert result.offered == 2000
        assert result.dropped == 0
        assert result.completed == 2000

    def test_latency_percentiles_are_monotone(self):
        stats = run().latency_percentiles()
        assert 0 < stats["p50"] <= stats["p95"] <= stats["p99"] <= stats["p999"]

    def test_queue_depth_series_is_thinned(self):
        result = run()
        assert 0 < len(result.queue_depth_series) <= 64
        times = [t for t, _ in result.queue_depth_series]
        assert times == sorted(times)

    def test_topology_routes_lengthen_service(self):
        from repro.experiments.network_scale import build_network

        topology = build_network(topology="grid", rows=3, cols=3, qubit_capacity=None)
        routed = run(topology=topology, arrival_rate=50.0, messages=500)
        point = run(arrival_rate=50.0, messages=500)
        # Multi-hop routes mean strictly more service work than 1-hop.
        assert routed.busy_time > point.busy_time

    def test_interrupt_stops_early_and_marks_result(self):
        interrupt.request_shutdown()
        try:
            result = run(messages=20_000, interrupt_poll=64)
        finally:
            interrupt.reset_shutdown()
        assert result.interrupted
        assert result.completed + result.dropped < 20_000

    def test_utilization_bounded(self):
        result = run()
        assert 0.0 < result.utilization <= 1.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            run(messages=0)
        with pytest.raises(ConfigurationError):
            run(arrival="bursty")
        with pytest.raises(ConfigurationError):
            run(arrival_rate=None)
        with pytest.raises(ConfigurationError):
            run(workers=0)
        assert "closed" in ARRIVAL_PROCESSES


class TestLiveCalibration:
    def test_deterministic_across_worker_counts(self):
        from repro.api.config import ServiceConfig

        config = ServiceConfig.ideal()
        wide = run_live_calibration(config, sends=6, seed=11, max_workers=4)
        narrow = run_live_calibration(config, sends=6, seed=11, max_workers=1)
        assert wide["abort_probability"] == narrow["abort_probability"]
        assert wide["delivered"] == narrow["delivered"]
        assert wide["sends"] == 6
        assert wide["wall_total_time"] > 0
