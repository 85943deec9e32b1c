"""Behavioural tests for the concurrent delivery engine."""

import asyncio
import math
import threading
import time

import pytest

from repro.api.config import ServiceConfig
from repro.api.service import MessagingService
from repro.exceptions import ConfigurationError
from repro.runtime.engine import AsyncDeliveryEngine, Delivery, DeliveryEngine


@pytest.fixture(scope="module")
def config():
    return ServiceConfig.ideal()


class TestBasicDelivery:
    def test_send_resolves_to_service_report(self, config):
        with DeliveryEngine(config, max_workers=2, seed=3) as engine:
            delivery = engine.send("hello runtime")
        assert delivery.ok and delivery.status == "delivered"
        assert delivery.report.delivered_payload == "hello runtime"
        assert delivery.queue_wait >= 0.0
        assert delivery.service_time > 0.0
        assert delivery.latency >= delivery.service_time

    def test_accepts_existing_service_instance(self, config):
        service = MessagingService(config)
        with DeliveryEngine(service, max_workers=1, seed=3) as engine:
            assert engine.service is service
            assert engine.send("shared").ok

    def test_send_many_preserves_submission_order(self, config):
        payloads = [f"msg {index}" for index in range(8)]
        with DeliveryEngine(config, max_workers=4, seed=9) as engine:
            deliveries = engine.send_many(payloads)
        assert [d.request.request_id for d in deliveries] == list(range(8))
        assert [d.report.delivered_payload for d in deliveries] == payloads

    def test_exceptions_resolve_as_error_not_worker_death(self, config):
        with DeliveryEngine(config, max_workers=1, seed=1) as engine:
            bad = engine.send(object())  # unencodable payload type
            good = engine.send("still alive")
        assert bad.status == "error" and bad.error is not None
        assert good.ok

    def test_summary_is_json_friendly(self, config):
        import json

        with DeliveryEngine(config, max_workers=1, seed=2) as engine:
            delivery = engine.send("summary")
        encoded = json.dumps(delivery.summary())
        assert "delivered" in encoded

    def test_validation(self, config):
        with pytest.raises(ConfigurationError):
            DeliveryEngine(config, max_workers=0)

    @pytest.mark.parametrize(
        "setting",
        [
            dict(rate_limit=math.nan),
            dict(rate_limit=5.0, burst=math.nan),
            dict(admission_timeout=math.nan),
            dict(max_workers=math.nan),
        ],
        ids=["rate_limit", "burst", "admission_timeout", "max_workers"],
    )
    def test_non_finite_admission_settings_rejected(self, config, setting):
        # A NaN rate limit used to build a bucket that never yields a
        # token, so the first submit() never returned.
        with pytest.raises(ConfigurationError):
            DeliveryEngine(config, **{"max_workers": 1, **setting})


class TestBackpressurePolicies:
    def test_reject_policy_fails_fast_when_full(self, config):
        engine = DeliveryEngine(
            config, max_workers=1, queue_capacity=1, policy="reject", seed=4
        )
        try:
            futures = [engine.submit("x") for _ in range(10)]
            deliveries = [future.result() for future in futures]
        finally:
            engine.close()
        statuses = {d.status for d in deliveries}
        rejected = [d for d in deliveries if d.status == "rejected"]
        assert rejected and all(d.reason == "queue_full" for d in rejected)
        assert statuses <= {"delivered", "rejected"}
        assert engine.stats["rejected"] == len(rejected)

    def test_shed_oldest_drops_stalest_requests(self, config):
        engine = DeliveryEngine(
            config, max_workers=1, queue_capacity=2, policy="shed_oldest", seed=4
        )
        try:
            futures = [engine.submit("x") for _ in range(10)]
            deliveries = [future.result() for future in futures]
        finally:
            engine.close()
        shed = [d for d in deliveries if d.status == "shed"]
        assert shed and all(d.reason == "queue_full" for d in shed)
        executed = [d for d in deliveries if d.report is not None]
        # shed_oldest keeps the freshest work: the last submission survives.
        assert deliveries[-1].status not in ("shed", "rejected")
        assert len(executed) + len(shed) == 10

    def test_block_policy_drops_nothing(self, config):
        with DeliveryEngine(
            config, max_workers=2, queue_capacity=2, policy="block", seed=4
        ) as engine:
            deliveries = engine.send_many(["p"] * 8)
        assert all(d.report is not None for d in deliveries)
        assert engine.stats["rejected"] == engine.stats["shed"] == 0

    def test_rate_limit_rejects_past_burst(self, config):
        engine = DeliveryEngine(
            config,
            max_workers=2,
            policy="reject",
            rate_limit=0.001,  # one token per ~17 minutes
            burst=2,
            seed=4,
        )
        try:
            deliveries = [engine.submit("x").result() for _ in range(4)]
        finally:
            engine.close()
        rate_limited = [d for d in deliveries if d.reason == "rate_limited"]
        assert len(rate_limited) == 2
        assert all(d.status == "rejected" for d in rate_limited)

    def test_admission_timeout_expires_stale_requests(self, config):
        engine = DeliveryEngine(
            config, max_workers=1, admission_timeout=0.0, seed=4
        )
        try:
            # With zero patience, anything that has to wait behind the
            # in-flight send expires instead of executing.
            futures = [engine.submit("x") for _ in range(6)]
            time.sleep(0.05)
            deliveries = [future.result() for future in futures]
        finally:
            engine.close()
        expired = [d for d in deliveries if d.status == "expired"]
        assert expired and all(d.reason == "admission_timeout" for d in expired)


class TestGracefulShutdown:
    def test_close_drains_queued_work(self, config):
        engine = DeliveryEngine(config, max_workers=2, seed=5)
        futures = [engine.submit("x") for _ in range(6)]
        stats = engine.close(drain=True)
        assert all(future.result().report is not None for future in futures)
        assert stats["delivered"] + stats["undelivered"] + stats["error"] == 6

    def test_close_without_drain_cancels_queue(self, config):
        engine = DeliveryEngine(config, max_workers=1, seed=5)
        futures = [engine.submit("x") for _ in range(8)]
        engine.close(drain=False)
        deliveries = [future.result() for future in futures]
        cancelled = [d for d in deliveries if d.status == "cancelled"]
        assert cancelled and all(d.reason == "engine_closed" for d in cancelled)
        # In-flight work still completed; nothing hangs.
        assert all(d.finished_at is not None for d in deliveries)

    def test_submissions_after_close_are_rejected(self, config):
        engine = DeliveryEngine(config, max_workers=1, seed=5)
        engine.close()
        delivery = engine.submit("late").result()
        assert delivery.status == "rejected" and delivery.reason == "engine_closed"

    def test_close_is_idempotent(self, config):
        engine = DeliveryEngine(config, max_workers=1, seed=5)
        engine.send("x")
        first = engine.close()
        second = engine.close()
        assert first == second

    def test_drain_timeout_cancels_unstarted_work(self, config):
        # The one worker blocks inside its first send until close returns,
        # so unstarted work remains when the drain timeout fires however
        # fast a send is.
        started, release = threading.Event(), threading.Event()

        def gate(index, attempt, rng):
            started.set()
            release.wait(timeout=30)
            return None

        engine = DeliveryEngine(config.with_attack_factory(gate), max_workers=1, seed=5)
        futures = [engine.submit("x") for _ in range(20)]
        assert started.wait(timeout=30)
        engine.close(drain=True, timeout=0.05)
        release.set()
        deliveries = [future.result(timeout=30) for future in futures]
        assert any(d.status == "cancelled" and d.reason == "drain_timeout"
                   for d in deliveries)
        gated = [d for d in deliveries if d.status != "cancelled"]
        assert len(gated) == 1 and gated[0].ok

    def test_context_manager_drains_on_clean_exit(self, config):
        with DeliveryEngine(config, max_workers=2, seed=5) as engine:
            futures = [engine.submit("x") for _ in range(4)]
        assert all(future.done() for future in futures)
        assert all(future.result().report is not None for future in futures)


class TestConcurrency:
    def test_parallel_submitters_all_resolve(self, config):
        results: list[Delivery] = []
        lock = threading.Lock()
        with DeliveryEngine(config, max_workers=4, seed=6) as engine:

            def client(count: int) -> None:
                deliveries = [engine.send(f"c{count}-{i}") for i in range(3)]
                with lock:
                    results.extend(deliveries)

            threads = [threading.Thread(target=client, args=(t,)) for t in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert len(results) == 24
        assert all(d.ok for d in results)
        assert engine.stats["delivered"] == 24


class TestAsyncFacade:
    def test_async_gather(self, config):
        async def main():
            async with AsyncDeliveryEngine(config, max_workers=4, seed=7) as engine:
                return await asyncio.gather(
                    *(engine.send(f"async {i}") for i in range(6))
                )

        deliveries = asyncio.run(main())
        assert len(deliveries) == 6
        assert all(d.ok for d in deliveries)

    def test_async_submit_returns_bridgeable_future(self, config):
        async def main():
            engine = AsyncDeliveryEngine(config, max_workers=1, seed=7)
            try:
                future = await engine.submit("bridge")
                return await asyncio.wrap_future(future)
            finally:
                await engine.close()

        assert asyncio.run(main()).ok
