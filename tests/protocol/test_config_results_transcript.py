"""Unit tests for ProtocolConfig, ProtocolResult and ProtocolTranscript."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.channel.quantum_channel import IdentityChainChannel, NoiselessChannel
from repro.exceptions import ConfigurationError
from repro.protocol.chsh import CHSHEstimate
from repro.protocol.config import ProtocolConfig
from repro.protocol.identity import Identity
from repro.protocol.results import AbortReason, ProtocolResult
from repro.protocol.transcript import ProtocolTranscript


class TestProtocolConfig:
    def test_default_builder(self):
        config = ProtocolConfig.default(message_length=16, seed=1)
        config.validate()
        assert config.message_length == 16
        assert (config.message_length + config.num_check_bits) % 2 == 0
        assert isinstance(config.channel, IdentityChainChannel)
        assert config.channel.eta == 10

    def test_default_builder_odd_message(self):
        config = ProtocolConfig.default(message_length=7)
        assert (config.message_length + config.num_check_bits) % 2 == 0

    def test_default_rejects_empty_message(self):
        with pytest.raises(ConfigurationError):
            ProtocolConfig.default(message_length=0)

    def test_pair_counts(self):
        config = ProtocolConfig.default(message_length=16, identity_pairs=4,
                                        check_pairs_per_round=32)
        assert config.num_message_pairs == (16 + config.num_check_bits) // 2
        assert config.total_pairs == config.num_message_pairs + 2 * 4 + 2 * 32

    def test_qubits_per_message_bit_close_to_paper_value(self):
        # Table I counts 1 qubit per message bit; the check-bit overhead makes
        # the effective value slightly larger than 1.
        config = ProtocolConfig.default(message_length=64)
        assert 1.0 <= config.qubits_per_message_bit <= 1.5

    def test_validate_rejects_odd_total(self):
        config = ProtocolConfig(message_length=3, num_check_bits=2)
        with pytest.raises(ConfigurationError):
            config.validate()

    @pytest.mark.parametrize("field", ["identity_pairs", "check_pairs_per_round"])
    @pytest.mark.parametrize("count", [math.nan, math.inf, 2.5, 0, -1])
    def test_validate_rejects_non_positive_integer_pair_counts(self, field, count):
        with pytest.raises(ConfigurationError):
            replace(ProtocolConfig.default(8), **{field: count}).validate()

    def test_validate_accepts_numpy_integer_pair_counts(self):
        replace(ProtocolConfig.default(8), check_pairs_per_round=np.int64(16)).validate()

    @pytest.mark.parametrize(
        "message_length, num_check_bits",
        [
            (2.5, 1.5),
            (math.nan, 2),
            (2, math.nan),
            (math.inf, 2),
            (2, math.inf),
            (-math.inf, 2),
            (2, -math.inf),
        ],
    )
    def test_validate_rejects_non_integer_bit_counts(self, message_length, num_check_bits):
        config = ProtocolConfig(
            message_length=message_length, num_check_bits=num_check_bits, seed=1
        )
        with pytest.raises(ConfigurationError):
            config.validate()

    def test_fractional_bit_counts_fail_before_the_session(self):
        # 2.5 + 1.5 is even, so only the integer check stands between this
        # configuration and a TypeError deep inside the session.
        from repro.protocol.runner import UADIQSDCProtocol

        config = ProtocolConfig(message_length=2.5, num_check_bits=1.5, seed=1)
        with pytest.raises(ConfigurationError, match="message_length"):
            UADIQSDCProtocol(config).run("10")

    @pytest.mark.parametrize("message_length", [2.5, math.nan, math.inf, -math.inf])
    def test_default_rejects_non_integer_message_length(self, message_length):
        with pytest.raises(ConfigurationError):
            ProtocolConfig.default(message_length=message_length)

    def test_validate_accepts_numpy_integer_bit_counts(self):
        ProtocolConfig(message_length=np.int64(2), num_check_bits=np.int64(0)).validate()

    def test_validate_rejects_bad_tolerances(self):
        config = ProtocolConfig(message_length=2, num_check_bits=2,
                                authentication_tolerance=1.5)
        with pytest.raises(ConfigurationError):
            config.validate()

    def test_validate_rejects_mismatched_identity(self):
        config = ProtocolConfig(
            message_length=2,
            num_check_bits=2,
            identity_pairs=4,
            alice_identity=Identity.random(2, rng=0),
        )
        with pytest.raises(ConfigurationError):
            config.validate()

    def test_materialise_identities_uses_supplied_values(self):
        alice_id = Identity.random(8, owner="alice", rng=1)
        config = ProtocolConfig(message_length=2, num_check_bits=2, alice_identity=alice_id)
        materialised_alice, materialised_bob = config.materialise_identities(rng=2)
        assert materialised_alice.matches(alice_id)
        assert materialised_bob.num_pairs == config.identity_pairs

    def test_materialise_identities_is_seed_deterministic(self):
        config = ProtocolConfig(message_length=2, num_check_bits=2)
        a1, b1 = config.materialise_identities(rng=3)
        a2, b2 = config.materialise_identities(rng=3)
        assert a1.matches(a2)
        assert b1.matches(b2)

    def test_with_channel_and_with_seed_return_copies(self):
        config = ProtocolConfig.default(message_length=4, seed=1)
        new = config.with_channel(NoiselessChannel()).with_seed(99)
        assert isinstance(new.channel, NoiselessChannel)
        assert new.seed == 99
        assert isinstance(config.channel, IdentityChainChannel)
        assert config.seed == 1


class TestProtocolResult:
    def _result(self, **overrides):
        base = dict(
            success=True,
            abort_reason=AbortReason.NONE,
            sent_message=(1, 0, 1, 1),
            delivered_message=(1, 0, 1, 1),
        )
        base.update(overrides)
        return ProtocolResult(**base)

    def test_string_views(self):
        result = self._result()
        assert result.sent_message_string == "1011"
        assert result.delivered_message_string == "1011"
        assert result.message_delivered_correctly()

    def test_aborted_result(self):
        result = self._result(
            success=False,
            abort_reason=AbortReason.ROUND1_CHSH_FAILED,
            delivered_message=None,
        )
        assert result.aborted
        assert result.eavesdropper_detected
        assert result.delivered_message_string is None
        assert not result.message_delivered_correctly()

    def test_summary_is_json_friendly(self):
        estimate = CHSHEstimate(value=2.7, correlations={}, counts={}, num_pairs=10)
        result = self._result(chsh_round1=estimate)
        summary = result.summary()
        assert summary["chsh_round1"] == pytest.approx(2.7)
        assert summary["abort_reason"] == "none"

    def test_phase_lookup(self):
        result = self._result()
        with pytest.raises(KeyError):
            result.phase("missing")


class TestProtocolTranscript:
    def test_record_phase(self):
        transcript = ProtocolTranscript()
        report = transcript.record_phase("round1_security_check", True, chsh_value=2.8)
        assert transcript.phases == [report]
        assert report.passed
        assert report.details["chsh_value"] == pytest.approx(2.8)

    def test_announce_reaches_taps(self):
        transcript = ProtocolTranscript()
        seen = []
        transcript.classical_channel.add_tap(seen.append)
        transcript.announce("alice", "positions", [1, 2, 3])
        assert [(a.sender, a.receiver, a.topic, a.payload) for a in seen] == [
            ("alice", "broadcast", "positions", [1, 2, 3])
        ]
