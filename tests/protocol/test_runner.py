"""Integration tests for the end-to-end UA-DI-QSDC protocol runner."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.channel.quantum_channel import IdentityChainChannel, NoiselessChannel
from repro.attacks.impersonation import ImpersonationAttack
from repro.exceptions import AuthenticationFailure, ProtocolAbort, SecurityCheckFailure
from repro.protocol.config import ProtocolConfig
from repro.protocol.identity import Identity
from repro.protocol.results import AbortReason
from repro.protocol.runner import _ABORT_ERRORS, UADIQSDCProtocol
from repro.protocol.source import EntanglementSource
from repro.quantum.channels import depolarizing_channel
from repro.quantum.density import DensityMatrix
from repro.quantum.states import Statevector


def small_config(**overrides) -> ProtocolConfig:
    """A fast configuration used throughout the integration tests."""
    defaults = dict(
        message_length=8,
        num_check_bits=4,
        identity_pairs=4,
        check_pairs_per_round=48,
        channel=NoiselessChannel(),
        seed=11,
    )
    defaults.update(overrides)
    return ProtocolConfig(**defaults)


class TestHonestExecution:
    def test_ideal_channel_delivers_message_exactly(self):
        result = UADIQSDCProtocol(small_config()).run("10110010")
        assert result.success
        assert result.delivered_message_string == "10110010"
        assert result.abort_reason is AbortReason.NONE
        assert result.message_bit_error_rate == pytest.approx(0.0)
        assert result.bob_authentication_error == pytest.approx(0.0)
        assert result.alice_authentication_error == pytest.approx(0.0)

    def test_chsh_values_violate_classical_bound(self):
        result = UADIQSDCProtocol(small_config(check_pairs_per_round=200)).run("10110010")
        assert result.chsh_round1.value > 2.0
        assert result.chsh_round2.value > 2.0

    def test_noisy_channel_at_eta_10_still_succeeds(self):
        config = small_config(channel=IdentityChainChannel(eta=10), seed=3)
        result = UADIQSDCProtocol(config).run("10110010")
        assert result.success
        assert result.delivered_message_string == "10110010"

    def test_message_as_bit_tuple(self):
        result = UADIQSDCProtocol(small_config()).run((1, 0, 1, 1, 0, 0, 1, 0))
        assert result.success
        assert result.delivered_message == (1, 0, 1, 1, 0, 0, 1, 0)

    def test_reproducible_with_seed(self):
        first = UADIQSDCProtocol(small_config(seed=21)).run("10110010")
        second = UADIQSDCProtocol(small_config(seed=21)).run("10110010")
        assert first.summary() == second.summary()

    def test_pair_summary_matches_configuration(self):
        config = small_config()
        result = UADIQSDCProtocol(config).run("10110010")
        assert result.pair_summary["message"] == config.num_message_pairs
        assert result.pair_summary["alice_identity"] == config.identity_pairs
        assert result.pair_summary["bob_identity"] == config.identity_pairs
        assert result.pair_summary["round1_check"] == config.check_pairs_per_round
        assert result.pair_summary["round2_check"] == config.check_pairs_per_round
        assert result.pair_summary["unassigned"] == 0

    def test_phases_recorded_in_order(self):
        result = UADIQSDCProtocol(small_config()).run("10110010")
        names = [phase.name for phase in result.phases]
        assert names == [
            "entanglement_sharing",
            "round1_security_check",
            "encoding",
            "transmission",
            "bob_authentication",
            "alice_authentication",
            "round2_security_check",
            "message_decoding",
        ]

    def test_supplied_identities_are_used(self):
        alice_id = Identity.from_string("11011011", owner="alice")
        bob_id = Identity.from_string("00100100", owner="bob")
        config = small_config(alice_identity=alice_id, bob_identity=bob_id)
        result = UADIQSDCProtocol(config).run("10110010")
        assert result.success

    def test_rejects_invalid_message_characters(self):
        with pytest.raises(Exception):
            UADIQSDCProtocol(small_config()).run("10a1")

    def test_message_length_mismatch_detected(self):
        # Config expects 8 message bits; a 6-bit message leaves the pair budget
        # inconsistent and must raise.
        with pytest.raises(Exception):
            UADIQSDCProtocol(small_config()).run("101100")


class TestMaliciousSources:
    def test_separable_source_fails_round1_chsh(self):
        separable = DensityMatrix(Statevector.from_label("00"))
        config = small_config(
            source=EntanglementSource(override=lambda index: separable),
            check_pairs_per_round=96,
        )
        result = UADIQSDCProtocol(config).run("10110010")
        assert not result.success
        assert result.abort_reason is AbortReason.ROUND1_CHSH_FAILED
        assert result.delivered_message is None

    def test_raise_on_abort(self):
        separable = DensityMatrix(Statevector.from_label("00"))
        config = small_config(
            source=EntanglementSource(override=lambda index: separable),
            check_pairs_per_round=96,
            raise_on_abort=True,
        )
        with pytest.raises(SecurityCheckFailure):
            UADIQSDCProtocol(config).run("10110010")

    @pytest.mark.parametrize(
        "impersonates, reason",
        [
            ("bob", AbortReason.BOB_AUTHENTICATION_FAILED),
            ("alice", AbortReason.ALICE_AUTHENTICATION_FAILED),
        ],
    )
    def test_raise_on_abort_raises_the_reason_it_would_return(self, impersonates, reason):
        config = small_config(seed=2)
        returned = UADIQSDCProtocol(
            config, attack=ImpersonationAttack(impersonates, rng=5)
        ).run("10110010")
        assert returned.abort_reason is reason
        config.raise_on_abort = True
        with pytest.raises(AuthenticationFailure) as raised:
            UADIQSDCProtocol(config, attack=ImpersonationAttack(impersonates, rng=5)).run(
                "10110010"
            )
        assert raised.value.reason == reason.value

    def test_every_abort_reason_has_an_exception(self):
        assert set(_ABORT_ERRORS) == set(AbortReason) - {AbortReason.NONE}
        assert all(issubclass(error, ProtocolAbort) for error in _ABORT_ERRORS.values())

    def test_weakly_entangled_source_still_works_if_above_threshold(self):
        noisy_source = EntanglementSource(preparation_noise=depolarizing_channel(0.05))
        config = small_config(source=noisy_source, check_pairs_per_round=128, seed=5)
        result = UADIQSDCProtocol(config).run("10110010")
        # 5% depolarizing keeps CHSH ≈ 0.95^2 * 2.83 ≈ 2.55 > 2, so the run passes.
        assert result.success

    def test_heavily_depolarized_source_aborts(self):
        noisy_source = EntanglementSource(
            preparation_noise=depolarizing_channel(0.5, num_qubits=2)
        )
        config = small_config(source=noisy_source, check_pairs_per_round=128, seed=6)
        result = UADIQSDCProtocol(config).run("10110010")
        assert not result.success
        assert result.abort_reason in (
            AbortReason.ROUND1_CHSH_FAILED,
            AbortReason.ROUND2_CHSH_FAILED,
        )


class TestNoisyChannels:
    def test_very_long_channel_corrupts_or_aborts(self):
        config = small_config(
            channel=IdentityChainChannel(eta=3000), seed=9, check_pairs_per_round=96
        )
        result = UADIQSDCProtocol(config).run("10110010")
        if result.success:
            # If the checks pass, the decoded message may still contain errors,
            # but the run must report a nonzero error somewhere.
            assert (
                result.message_bit_error_rate > 0
                or result.check_bit_error_rate > 0
                or result.delivered_message_string != "10110010"
            )
        else:
            assert result.abort_reason is not AbortReason.NONE

    def test_transcript_announcements_do_not_reveal_message_outcomes(self):
        config = small_config()
        result = UADIQSDCProtocol(config).run("10110010")
        assert result.success
        # Announced topics never include decoded message data.
        topics = {phase.name for phase in result.phases}
        assert "message_decoding" in topics


class TestDistributionChannel:
    def test_noisy_distribution_channel_lowers_chsh(self):
        clean = UADIQSDCProtocol(small_config(check_pairs_per_round=256, seed=13)).run(
            "10110010"
        )
        noisy = UADIQSDCProtocol(
            small_config(
                distribution_channel=IdentityChainChannel(eta=2000),
                check_pairs_per_round=256,
                seed=13,
            )
        ).run("10110010")
        assert noisy.chsh_round1.value < clean.chsh_round1.value + 0.2


class TestPropertyBasedRoundTrip:
    @given(
        seed=st.integers(0, 2**31 - 1),
        message=st.lists(st.integers(0, 1), min_size=2, max_size=12),
    )
    @settings(max_examples=10, deadline=None)
    def test_random_messages_round_trip_on_ideal_channel(self, seed, message):
        if len(message) % 2 != 0:
            message = message + [0]
        config = ProtocolConfig(
            message_length=len(message),
            num_check_bits=2 if len(message) % 2 == 0 else 3,
            identity_pairs=2,
            check_pairs_per_round=24,
            channel=NoiselessChannel(),
            seed=seed,
        )
        result = UADIQSDCProtocol(config).run(tuple(message))
        # With an ideal channel the only possible failure is a statistical
        # CHSH fluctuation below threshold (rare but possible at d=24).
        if result.success:
            assert result.delivered_message == tuple(message)
        else:
            assert result.abort_reason in (
                AbortReason.ROUND1_CHSH_FAILED,
                AbortReason.ROUND2_CHSH_FAILED,
            )
