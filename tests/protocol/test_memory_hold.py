"""Storage-memory hold wiring in the protocol runner (ideal vs decohering)."""

from __future__ import annotations

import math

import pytest

from repro.api.config import ServiceConfig
from repro.exceptions import ConfigurationError
from repro.protocol.config import ProtocolConfig
from repro.protocol.runner import UADIQSDCProtocol
from repro.quantum.channels import depolarizing_channel

MESSAGE = "10110010"


def _config(**overrides) -> ProtocolConfig:
    base = ProtocolConfig.default(
        message_length=8, identity_pairs=2, check_pairs_per_round=48, seed=13
    )
    return base if not overrides else base.with_memory(
        overrides.get("decoherence"), overrides.get("hold", 0.0)
    )


class TestIdealMemoryDefault:
    def test_default_run_is_bit_identical_to_explicit_ideal(self):
        plain = UADIQSDCProtocol(_config()).run(MESSAGE)
        explicit = UADIQSDCProtocol(_config(decoherence=None, hold=0.0)).run(MESSAGE)
        assert plain.summary() == explicit.summary()
        assert [p.name for p in plain.phases] == [p.name for p in explicit.phases]

    def test_no_memory_phase_by_default(self):
        result = UADIQSDCProtocol(_config()).run(MESSAGE)
        assert "memory_hold" not in [p.name for p in result.phases]

    def test_ideal_memory_with_hold_has_no_physical_effect(self):
        plain = UADIQSDCProtocol(_config()).run(MESSAGE)
        held = UADIQSDCProtocol(_config(decoherence=None, hold=25.0)).run(MESSAGE)
        assert held.delivered_message == plain.delivered_message
        assert held.chsh_round1.value == plain.chsh_round1.value
        assert held.chsh_round2.value == plain.chsh_round2.value

    def test_hold_phase_recorded_when_engaged(self):
        result = UADIQSDCProtocol(_config(decoherence=None, hold=3.0)).run(MESSAGE)
        phase = result.phase("memory_hold")
        assert phase.passed
        assert phase.details["hold_time"] == 3.0
        assert phase.details["ideal"] is True


class TestDecoheringMemory:
    def test_strong_decoherence_disrupts_the_session(self):
        """Heavy storage noise must hit some security or quality check.

        Depolarizing Alice's stored halves before she encodes corrupts the
        identity pairs, the round-2 check pairs and the message pairs; at
        p=0.3 × 4 time units the session cannot finish cleanly.
        """
        config = _config(decoherence=depolarizing_channel(0.3), hold=4.0)
        result = UADIQSDCProtocol(config).run(MESSAGE)
        assert (not result.success) or result.message_bit_error_rate > 0

    def test_zero_hold_time_applies_no_decoherence(self):
        plain = UADIQSDCProtocol(_config()).run(MESSAGE)
        stored = UADIQSDCProtocol(
            _config(decoherence=depolarizing_channel(0.3), hold=0.0)
        ).run(MESSAGE)
        # Channel configured but never applied (zero elapsed units):
        # physically identical outcomes, plus an audit phase.
        assert stored.delivered_message == plain.delivered_message
        assert stored.phase("memory_hold").details["ideal"] is False

    def test_mild_decoherence_raises_round2_degradation(self):
        clean = UADIQSDCProtocol(_config(decoherence=None, hold=6.0)).run(MESSAGE)
        noisy = UADIQSDCProtocol(
            _config(decoherence=depolarizing_channel(0.08), hold=6.0)
        ).run(MESSAGE)
        # Round 1 runs before storage, round 2 after: storage noise must
        # lower the second CHSH estimate relative to the clean run while
        # leaving round 1 untouched (same seed, same sampling).
        assert noisy.chsh_round1.value == clean.chsh_round1.value
        if noisy.chsh_round2 is not None and clean.chsh_round2 is not None:
            assert noisy.chsh_round2.value < clean.chsh_round2.value


class TestValidation:
    def test_negative_hold_rejected(self):
        with pytest.raises(ConfigurationError):
            _config(decoherence=None, hold=-1.0).validate()

    @pytest.mark.parametrize("hold", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "decoherence", [None, depolarizing_channel(0.05)], ids=["ideal", "decohering"]
    )
    def test_non_finite_hold_rejected(self, hold, decoherence):
        """NaN and ±inf are rejected up front, on both config paths.

        Unchecked, NaN used to crash a decohering session mid-run with a bare
        ``ValueError`` and pass an ideal one with no hold phase recorded;
        ``inf`` raised ``OverflowError`` or recorded an infinite hold.
        """
        with pytest.raises(ConfigurationError, match="memory_hold_time"):
            _config(decoherence=decoherence, hold=hold).validate()
        service = ServiceConfig.paper_default(seed=1).with_memory(decoherence, hold)
        with pytest.raises(ConfigurationError, match="memory_hold_time"):
            service.validate()

    def test_multi_qubit_decoherence_rejected(self):
        with pytest.raises(ConfigurationError):
            _config(
                decoherence=depolarizing_channel(0.1, num_qubits=2), hold=1.0
            ).validate()
