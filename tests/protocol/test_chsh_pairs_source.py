"""Unit tests for the DI security check, the pair register and the source."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis.security import chsh_epsilon
from repro.channel.quantum_channel import DepolarizingChannel
from repro.exceptions import ProtocolError
from repro.protocol.chsh import CHSHEstimate, CHSHSettings, DISecurityCheck
from repro.protocol.pairs import EPRPairRegister, PairRole
from repro.protocol.source import EntanglementSource
from repro.quantum.bell import BellState, bell_state, TSIRELSON_BOUND
from repro.quantum.channels import depolarizing_channel
from repro.quantum.density import DensityMatrix
from repro.quantum.states import Statevector


class TestCHSHSettings:
    def test_paper_defaults(self):
        settings = CHSHSettings()
        assert settings.alice_angles == (math.pi / 4, 0.0, math.pi / 2)
        assert settings.bob_angles == (math.pi / 4, -math.pi / 4)
        assert settings.threshold == 2.0

    def test_chsh_alice_angles_excludes_a0(self):
        assert CHSHSettings().chsh_alice_angles == (0.0, math.pi / 2)

    def test_invalid_angle_counts(self):
        with pytest.raises(ProtocolError):
            CHSHSettings(alice_angles=(0.0, 1.0))
        with pytest.raises(ProtocolError):
            CHSHSettings(bob_angles=(0.0,))

    def test_invalid_threshold(self):
        with pytest.raises(ProtocolError):
            CHSHSettings(threshold=3.0)


class TestDISecurityCheck:
    def test_honest_pairs_violate_classical_bound(self):
        pairs = [bell_state(BellState.PHI_PLUS) for _ in range(600)]
        estimate = DISecurityCheck().estimate(pairs, rng=1)
        assert estimate.value > 2.4
        assert estimate.passed()
        assert estimate.violates_classical_bound()
        assert estimate.epsilon == pytest.approx(TSIRELSON_BOUND - estimate.value)

    def test_product_states_fail_the_check(self):
        pairs = [Statevector.from_label("00") for _ in range(600)]
        estimate = DISecurityCheck().estimate(pairs, rng=2)
        assert estimate.value <= 2.0
        assert not estimate.passed()

    def test_maximally_mixed_pairs_give_near_zero(self):
        pairs = [DensityMatrix.maximally_mixed(2) for _ in range(400)]
        estimate = DISecurityCheck().estimate(pairs, rng=3)
        assert abs(estimate.value) < 0.7

    def test_depolarized_pairs_track_analytic_value(self):
        p = 0.3
        noisy = depolarizing_channel(p).apply(
            bell_state(BellState.PHI_PLUS).density_matrix(), [0]
        )
        estimate = DISecurityCheck().estimate([noisy] * 2000, rng=4)
        assert estimate.value == pytest.approx((1 - p) * TSIRELSON_BOUND, abs=0.25)

    @pytest.mark.parametrize("seed", [11, 12, 13])
    @pytest.mark.parametrize("p", [0.0, 0.1, 0.3])
    def test_depolarized_estimate_within_hoeffding_band_of_closed_form(self, p, seed):
        """Sampled S against ``(1 − p)·2√2``, the closed form for |Φ+⟩ with one
        half depolarized, within the Hoeffding half-width at a stated
        false-alarm rate of 1e-6 per case (≈0.088 at n = 2¹⁸)."""
        n = 2**18
        pair = DepolarizingChannel(p).transmit(
            bell_state(BellState.PHI_PLUS).density_matrix(), 0
        )
        estimate = DISecurityCheck().estimate([pair] * n, rng=seed)
        band = chsh_epsilon(n, confidence=1 - 1e-6)
        assert abs(estimate.value - (1 - p) * TSIRELSON_BOUND) <= band

    def test_use_a0_discards_some_samples(self):
        settings = CHSHSettings(use_a0=True)
        pairs = [bell_state(BellState.PHI_PLUS) for _ in range(300)]
        estimate = DISecurityCheck(settings).estimate(pairs, rng=5)
        assert sum(estimate.counts.values()) < 300
        assert estimate.num_pairs == 300

    def test_counts_cover_all_setting_pairs(self):
        pairs = [bell_state(BellState.PHI_PLUS) for _ in range(400)]
        estimate = DISecurityCheck().estimate(pairs, rng=6)
        assert set(estimate.counts) == {(1, 1), (1, 2), (2, 1), (2, 2)}
        assert all(count > 50 for count in estimate.counts.values())

    def test_empty_pair_list_rejected(self):
        with pytest.raises(ProtocolError):
            DISecurityCheck().estimate([], rng=0)

    def test_single_qubit_pair_rejected(self):
        with pytest.raises(ProtocolError):
            DISecurityCheck().estimate([Statevector.from_label("0")], rng=0)

    def test_reproducible_with_seed(self):
        pairs = [bell_state(BellState.PHI_PLUS) for _ in range(100)]
        first = DISecurityCheck().estimate(pairs, rng=7)
        second = DISecurityCheck().estimate(pairs, rng=7)
        assert first.value == pytest.approx(second.value)

    def test_required_pairs_rule_of_thumb(self):
        assert DISecurityCheck.required_pairs(0.1) == 1600
        assert DISecurityCheck.required_pairs(0.4) == 100
        with pytest.raises(ProtocolError):
            DISecurityCheck.required_pairs(0.0)

    def test_estimate_repr_mentions_value(self):
        estimate = CHSHEstimate(
            value=2.5, correlations={}, counts={}, num_pairs=10
        )
        assert "2.5" in repr(estimate)


class TestEPRPairRegister:
    def test_total_pairs_formula(self):
        register = EPRPairRegister(num_message_pairs=10, num_identity_pairs=4, num_check_pairs=20)
        assert register.total_pairs == 10 + 2 * 4 + 2 * 20

    def test_assignment_partitions_all_pairs(self):
        register = EPRPairRegister(5, 2, 3)
        rng = np.random.default_rng(0)
        round1 = register.assign_round1_check(rng)
        round2 = register.assign_round2_check(rng)
        message = register.assign_message(rng)
        alice_id = register.assign_alice_identity(rng)
        bob_id = register.assign_bob_identity(rng)
        all_positions = [*round1, *round2, *message, *alice_id, *bob_id]
        assert len(all_positions) == register.total_pairs
        assert len(set(all_positions)) == register.total_pairs
        assert register.assignment_complete()

    def test_roles_are_recorded(self):
        register = EPRPairRegister(5, 2, 3)
        round1 = register.assign_round1_check(rng=1)
        for position in round1:
            assert register.role_of(position) is PairRole.ROUND1_CHECK
        assert register.positions(PairRole.ROUND1_CHECK) == round1

    def test_summary(self):
        register = EPRPairRegister(5, 2, 3)
        register.assign_round1_check(rng=1)
        summary = register.summary()
        assert summary["round1_check"] == 3
        assert summary["unassigned"] == register.total_pairs - 3

    def test_over_assignment_rejected(self):
        register = EPRPairRegister(1, 1, 1)
        register.assign_round1_check(rng=0)
        register.assign_round2_check(rng=0)
        register.assign_message(rng=0)
        register.assign_alice_identity(rng=0)
        register.assign_bob_identity(rng=0)
        with pytest.raises(ProtocolError):
            register.assign_message(rng=0)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ProtocolError):
            EPRPairRegister(0, 1, 1)
        with pytest.raises(ProtocolError):
            EPRPairRegister(1, 0, 1)
        with pytest.raises(ProtocolError):
            EPRPairRegister(1, 1, 0)

    def test_role_of_unknown_position(self):
        with pytest.raises(ProtocolError):
            EPRPairRegister(1, 1, 1).role_of(999)


class TestEntanglementSource:
    def test_ideal_source_emits_phi_plus(self):
        source = EntanglementSource()
        pair = source.emit()
        assert pair.fidelity(bell_state(BellState.PHI_PLUS)) == pytest.approx(1.0)
        assert source.emitted == 1

    def test_other_bell_states(self):
        source = EntanglementSource(bell_state_kind=BellState.PSI_MINUS)
        assert source.emit().fidelity(bell_state(BellState.PSI_MINUS)) == pytest.approx(1.0)

    def test_noisy_source(self):
        source = EntanglementSource(preparation_noise=depolarizing_channel(0.2))
        pair = source.emit()
        assert pair.fidelity(bell_state(BellState.PHI_PLUS)) < 1.0

    def test_two_qubit_preparation_noise(self):
        source = EntanglementSource(preparation_noise=depolarizing_channel(0.2, num_qubits=2))
        assert source.emit().purity() < 1.0

    def test_override_controls_emission(self):
        malicious = DensityMatrix(Statevector.from_label("00"))
        source = EntanglementSource(override=lambda index: malicious)
        assert source.emit().fidelity(malicious) == pytest.approx(1.0)

    def test_override_must_return_two_qubit_state(self):
        source = EntanglementSource(override=lambda index: DensityMatrix.zero_state(1))
        with pytest.raises(ProtocolError):
            source.emit()

    def test_emit_many(self):
        source = EntanglementSource()
        assert len(source.emit_many(5)) == 5
        with pytest.raises(ProtocolError):
            source.emit_many(-1)

    def test_invalid_bell_state_kind(self):
        with pytest.raises(ProtocolError):
            EntanglementSource(bell_state_kind="phi_plus")

    def test_invalid_preparation_noise(self):
        with pytest.raises(ProtocolError):
            EntanglementSource(preparation_noise=depolarizing_channel(0.1, num_qubits=3))
