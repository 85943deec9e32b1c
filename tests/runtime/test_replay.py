"""Replay-mode determinism: concurrent engine ≡ serial oracle, byte for byte.

The contract under test (see :mod:`repro.runtime.engine`): an engine built
with ``seed=S`` and a no-drop configuration produces, for every request, a
:class:`~repro.api.report.DeliveryReport` byte-identical to the serial
reference oracle's — for any worker count and thread interleaving, because
each request's randomness derives only from its own ``(S, request_id)``
seed.
"""

import json

import pytest

from repro.api.config import ServiceConfig
from repro.runtime.engine import replay_engine, request_seed, serial_reference

SEEDS = [3, 17, 2024]
WORKER_COUNTS = [2, 5]
PAYLOADS = ["alpha", "βeta", "0101", "payload four", "five", "final message"]


def _canonical(report) -> str:
    return json.dumps(report.summary(), sort_keys=True, ensure_ascii=False)


class TestReplayParity:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_concurrent_reports_match_serial_oracle(self, seed, workers):
        config = ServiceConfig.ideal()
        reference = serial_reference(config, PAYLOADS, seed=seed)
        with replay_engine(config, seed=seed, max_workers=workers) as engine:
            deliveries = engine.send_many(PAYLOADS)
        assert [d.status for d in deliveries] == ["delivered"] * len(PAYLOADS)
        for delivery, oracle in zip(deliveries, reference):
            assert _canonical(delivery.report) == _canonical(oracle)

    def test_reports_differ_across_seeds(self):
        config = ServiceConfig.ideal()
        first = serial_reference(config, PAYLOADS[:2], seed=SEEDS[0])
        second = serial_reference(config, PAYLOADS[:2], seed=SEEDS[1])
        # Same payloads, different engine seeds → different protocol seeds.
        assert [r.metadata["seed"] for r in first] != [
            r.metadata["seed"] for r in second
        ]

    def test_request_seeds_are_distinct_and_stable(self):
        seeds = [request_seed(7, index) for index in range(100)]
        assert len(set(seeds)) == 100
        assert seeds == [request_seed(7, index) for index in range(100)]

    def test_request_seed_pinned(self):
        """Replay-mode seeds of recorded runs may never move."""
        assert request_seed(7, 5) == 1104830041243273672

    def test_explicit_per_request_seed_overrides_replay_derivation(self):
        config = ServiceConfig.ideal()
        with replay_engine(config, seed=1, max_workers=2) as engine:
            pinned = engine.send("pinned", seed=12345)
        assert pinned.request.seed == 12345
        assert pinned.report.metadata["seed"] == 12345

    def test_networked_backend_also_replays(self):
        """The parity holds across the network backend's scheduler too."""
        from repro.experiments.network_scale import build_network

        topology = build_network(topology="grid", rows=2, cols=2, qubit_capacity=None)
        config = ServiceConfig.networked(topology)
        payloads = ["net a", "net b", "net c"]
        reference = serial_reference(config, payloads, seed=5)
        with replay_engine(config, seed=5, max_workers=3) as engine:
            deliveries = engine.send_many(payloads)
        for delivery, oracle in zip(deliveries, reference):
            assert _canonical(delivery.report) == _canonical(oracle)
