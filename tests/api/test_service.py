"""MessagingService tests: delivery, retransmission, backend parity, network.

The protocol parameters are deliberately small (2 identity pairs, 64 check
pairs, 16-bit fragments) so each facade send costs a handful of fast
sessions; the properties under test — bit-identical delivery, deterministic
retransmission, Local/Batch parity — are parameter-independent.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import MessagingService, ServiceConfig
from repro.api.backends import FragmentJob, LocalBackend, NetworkBackend
from repro.attacks import InterceptResendAttack
from repro.channel.quantum_channel import NoiselessChannel
from repro.network import SessionParameters, line_topology
from repro.protocol.runner import UADIQSDCProtocol
from repro.utils.bits import bits_to_str


def fast_config(seed: int = 7) -> ServiceConfig:
    return (
        ServiceConfig.ideal(seed=seed)
        .with_identity_pairs(2)
        .with_check_pairs(64)
        .with_fragment_bits(16)
    )


def strip_backend_metadata(summary: dict) -> dict:
    """Remove the fields that legitimately differ between backends."""
    summary = dict(summary)
    summary.pop("backend")
    metadata = dict(summary["metadata"])
    metadata.pop("backend")
    metadata.pop("executor")
    summary["metadata"] = metadata
    return summary


class TestLocalDelivery:
    def test_utf8_payload_round_trip(self):
        report = MessagingService(fast_config()).send("héllo ✓")
        assert report.success
        assert report.delivered_payload == "héllo ✓"
        assert report.payload_matches
        assert report.backend == "local"
        assert report.payload_kind == "text"
        assert report.num_fragments == (report.num_payload_bits + 15) // 16
        assert report.metadata["seed"] == 7

    def test_bytes_and_bits_payloads(self):
        service = MessagingService(fast_config())
        data = bytes(range(0, 40, 3))
        assert service.send(data).delivered_payload == data
        assert service.send("10110", kind="bits").delivered_payload == (1, 0, 1, 1, 0)
        assert service.send((0, 1, 1)).delivered_payload == (0, 1, 1)

    def test_single_fragment_when_payload_fits(self):
        report = MessagingService(fast_config().with_fragment_bits(64)).send(b"ok")
        assert report.num_fragments == 1 and report.success

    def test_deterministic_under_fixed_seed(self):
        service = MessagingService(fast_config())
        first, second = service.send("repeat"), service.send("repeat")
        assert first.summary() == second.summary()

    def test_send_seed_override(self):
        service = MessagingService(fast_config(seed=1))
        report = service.send(b"x", seed=99)
        assert report.metadata["seed"] == 99
        assert report.summary() == service.send(b"x", seed=99).summary()

    def test_report_aggregates(self):
        report = MessagingService(fast_config()).send("aggregate me")
        assert report.total_attempts >= report.num_fragments
        assert report.mean_chsh_round1 is not None
        assert report.undelivered_fragments == []
        for fragment in report.fragments:
            assert fragment.delivered
            assert fragment.attempts[-1].source == "protocol"
            assert fragment.attempts[-1].frame_intact


class TestUnframedMode:
    def test_matches_direct_protocol_run_bit_for_bit(self):
        message = "1011001110001111"
        config = fast_config(seed=31).with_framing(False).with_retries(0)
        report = MessagingService(config).send(message, kind="bits")

        direct = UADIQSDCProtocol(
            config.protocol_config(len(message), seed=31)
        ).run(message)
        assert report.fragments[0].attempts[0].raw.summary() == direct.summary()
        assert direct.delivered_message is not None
        assert bits_to_str(report.delivered_payload) == direct.delivered_message_string


class TestRetransmission:
    @staticmethod
    def first_attempt_attack(index, attempt, rng):
        """Intercept-resend every fragment's first transmission only."""
        return InterceptResendAttack(rng=rng) if attempt == 0 else None

    def test_forced_abort_then_retransmission_completes_delivery(self):
        config = fast_config(seed=13).with_attack_factory(self.first_attempt_attack)
        report = MessagingService(config).send("retry ✓")
        assert report.success
        assert report.delivered_payload == "retry ✓"
        # Every fragment must have aborted once and recovered on retry.
        assert report.retransmissions >= report.num_fragments
        for fragment in report.fragments:
            first = fragment.attempts[0]
            assert first.attempt == 0 and not first.success
            assert first.abort_reason != "none"
            assert fragment.attempts[-1].success

    def test_retransmission_is_deterministic(self):
        config = fast_config(seed=13).with_attack_factory(self.first_attempt_attack)
        service = MessagingService(config)
        first, second = service.send("retry ✓"), service.send("retry ✓")
        assert first.summary() == second.summary()
        assert first.delivered_payload == second.delivered_payload
        # Seeds are pinned per (fragment, attempt), not per call order.
        assert [
            [attempt.seed for attempt in fragment.attempts]
            for fragment in first.fragments
        ] == [
            [attempt.seed for attempt in fragment.attempts]
            for fragment in second.fragments
        ]

    def test_retry_budget_exhaustion_reports_failure(self):
        config = (
            fast_config(seed=5)
            .with_retries(1)
            .with_fragment_bits(64)
            .with_attack_factory(lambda index, attempt, rng: InterceptResendAttack(rng=rng))
        )
        report = MessagingService(config).send(b"doomed")
        assert not report.success
        assert report.delivered_payload is None
        assert report.undelivered_fragments == [f.index for f in report.fragments]
        assert report.total_attempts == 2 * report.num_fragments
        assert sum(report.abort_reasons().values()) == report.total_attempts


class TestBackendParity:
    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_local_and_batch_deliver_identically(self, executor):
        payload = "parity ✓ payload"
        local = MessagingService(fast_config()).send(payload)
        batch = MessagingService(
            fast_config().with_backend("batch").with_executor(executor)
        ).send(payload)
        assert batch.backend == "batch"
        assert batch.delivered_payload == local.delivered_payload == payload
        assert strip_backend_metadata(batch.summary()) == strip_backend_metadata(
            local.summary()
        )

    def test_parity_holds_under_attack_retransmission(self):
        def attack(index, attempt, rng):
            return InterceptResendAttack(rng=rng) if attempt == 0 else None

        config = fast_config(seed=21).with_attack_factory(attack)
        local = MessagingService(config).send(b"abc")
        batch = MessagingService(config.with_backend("batch")).send(b"abc")
        assert strip_backend_metadata(batch.summary()) == strip_backend_metadata(
            local.summary()
        )


def noiseless_line(num_nodes: int = 3):
    return line_topology(num_nodes, channel_factory=lambda length: NoiselessChannel())


def network_config(seed: int = 5) -> ServiceConfig:
    return (
        ServiceConfig.networked(noiseless_line(), source="n0", target="n2", seed=seed)
        .with_fragment_bits(16)
        .with_network(
            session_params=SessionParameters(identity_pairs=2, check_pairs_per_round=64)
        )
    )


class TestNetworkBackend:
    def test_multi_hop_delivery_bit_identical(self):
        report = MessagingService(network_config()).send("över nätet")
        assert report.success
        assert report.delivered_payload == "över nätet"
        assert report.backend == "network"
        attempt = report.fragments[0].attempts[0]
        assert attempt.source == "network"
        assert attempt.details["route"] == ["n0", "n1", "n2"]

    def test_send_to_overrides_target(self):
        config = ServiceConfig.networked(
            noiseless_line(), source="n0", target="n1", seed=5
        ).with_network(
            session_params=SessionParameters(identity_pairs=2, check_pairs_per_round=64)
        )
        report = MessagingService(config).send(b"x", to="n2")
        assert report.success
        assert report.fragments[0].attempts[0].details["route"] == ["n0", "n1", "n2"]

    def test_deterministic(self):
        service = MessagingService(network_config())
        assert service.send(b"net").summary() == service.send(b"net").summary()

    def test_compromised_relay_blocks_delivery(self):
        topology = noiseless_line()
        topology.compromise("n1", lambda rng: InterceptResendAttack(rng=rng))
        config = (
            ServiceConfig.networked(topology, source="n0", target="n2", seed=5)
            .with_fragment_bits(32)
            .with_retries(1)
            .with_network(
                session_params=SessionParameters(
                    identity_pairs=2, check_pairs_per_round=64
                )
            )
        )
        report = MessagingService(config).send(b"secret")
        assert not report.success
        assert report.delivered_payload is None
        # The per-hop security machinery (not capacity) stopped every attempt.
        for reason in report.abort_reasons():
            assert reason in {
                "round1_chsh_failed",
                "round2_chsh_failed",
                "bob_authentication_failed",
                "alice_authentication_failed",
                "message_integrity_failed",
            }


class TestStreamSeedPins:
    """The backends' derived stream seeds may never move: recorded runs replay them."""

    JOB = FragmentJob(index=0, bits=(1, 0, 1, 1), seed=7, attempt=0)

    def test_attack_stream_seed_pinned(self):
        states = []

        def recording_factory(index, attempt, rng):
            states.append(rng.bit_generator.state)
            return None

        LocalBackend().deliver([self.JOB], fast_config().with_attack_factory(recording_factory))
        assert states == [np.random.default_rng(5690286135174873592).bit_generator.state]

    def test_network_stream_seed_pinned(self, monkeypatch):
        import repro.network.scheduler as scheduler_module

        seeds = []

        class RecordingScheduler(scheduler_module.NetworkScheduler):
            def __init__(self, *args, seed=0, **kwargs):
                seeds.append(seed)
                super().__init__(*args, seed=seed, **kwargs)

        monkeypatch.setattr(scheduler_module, "NetworkScheduler", RecordingScheduler)
        NetworkBackend().deliver([self.JOB], network_config())
        assert seeds == [3631921844853186589]
