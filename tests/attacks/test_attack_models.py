"""Unit tests for the individual attack models (state-level behaviour)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.attacks.base import Attack
from repro.attacks.entangle_measure import EntangleMeasureAttack
from repro.attacks.impersonation import ImpersonationAttack
from repro.attacks.intercept_resend import InterceptResendAttack
from repro.attacks.man_in_the_middle import ManInTheMiddleAttack
from repro.channel.classical_channel import Announcement
from repro.exceptions import AttackError
from repro.quantum.bell import BellState, bell_state, chsh_value, CLASSICAL_CHSH_BOUND
from repro.quantum.density import DensityMatrix


def phi_plus() -> DensityMatrix:
    return bell_state(BellState.PHI_PLUS).density_matrix()


class TestAttackBase:
    def test_default_hooks_are_passthrough(self):
        attack = Attack(rng=0)
        state = phi_plus()
        assert attack.intercept_source(0, state) is state
        assert attack.intercept_transmission(0, state) is state

    def test_observe_announcement_records(self):
        attack = Attack(rng=0)
        attack.observe_announcement(
            Announcement("alice", "bob", "positions", [1, 2], sequence=0)
        )
        attack.observe_announcement(
            Announcement("bob", "alice", "results", ["x"], sequence=1)
        )
        assert attack.overheard_topics() == ["positions", "results"]

    def test_forged_identity_requires_impersonation(self):
        with pytest.raises(AttackError):
            Attack(rng=0).forged_identity(4)


class TestImpersonationAttack:
    def test_target_validation(self):
        assert ImpersonationAttack("alice").impersonates == "alice"
        assert ImpersonationAttack("BOB").impersonates == "bob"
        with pytest.raises(AttackError):
            ImpersonationAttack("charlie")

    def test_forged_identity_has_requested_length(self):
        identity = ImpersonationAttack("bob", rng=1).forged_identity(6)
        assert identity.num_pairs == 6
        assert identity.owner == "eve-as-bob"

    def test_detection_probability_formula(self):
        assert ImpersonationAttack.detection_probability(1) == pytest.approx(0.75)
        assert ImpersonationAttack.detection_probability(4) == pytest.approx(1 - 0.25**4)
        assert ImpersonationAttack.detection_probability(0) == pytest.approx(0.0)
        assert ImpersonationAttack.survival_probability(8) == pytest.approx(0.25**8)

    def test_detection_probability_rejects_negative(self):
        with pytest.raises(AttackError):
            ImpersonationAttack.detection_probability(-1)

    @pytest.mark.parametrize("tolerance", [0.0, 0.2, 0.25, 0.5, 0.75])
    @pytest.mark.parametrize("identity_pairs", [1, 2, 3, 4, 5])
    def test_detection_probability_counts_every_guess(self, identity_pairs, tolerance):
        """Enumerate all 4**l guesses: one chunk in four matches the secret,
        and the verifier passes ``mismatches / l <= tolerance``."""
        passing = sum(
            math.comb(identity_pairs, k) * 3**k
            for k in range(identity_pairs + 1)
            if k / identity_pairs <= tolerance
        )
        guesses = [
            sum(guess >> (2 * pair) & 3 != 0 for pair in range(identity_pairs))
            for guess in range(4**identity_pairs)
        ]
        assert passing == sum(k / identity_pairs <= tolerance for k in guesses)
        assert ImpersonationAttack.detection_probability(
            identity_pairs, tolerance
        ) == pytest.approx(1 - passing / 4**identity_pairs, rel=1e-15)

    @pytest.mark.parametrize("tolerance", [-0.1, 1.0, float("nan")])
    def test_detection_probability_rejects_tolerance_outside_unit_interval(self, tolerance):
        with pytest.raises(AttackError):
            ImpersonationAttack.detection_probability(4, tolerance)

    def test_expected_mismatch_fraction(self):
        assert ImpersonationAttack.expected_mismatch_fraction() == pytest.approx(0.75)


class TestInterceptResendAttack:
    def test_breaks_entanglement(self):
        attack = InterceptResendAttack(rng=1)
        after = attack.intercept_transmission(0, phi_plus())
        # The post-attack state is separable: its CHSH value cannot exceed 2.
        assert chsh_value(after) <= CLASSICAL_CHSH_BOUND + 1e-9
        assert attack.intercepted_pairs == 1

    def test_outcome_recorded_and_state_collapsed(self):
        attack = InterceptResendAttack(rng=2)
        after = attack.intercept_transmission(7, phi_plus())
        position, outcome = attack.measurement_record[0]
        assert position == 7
        assert outcome in (0, 1)
        # Measuring |Φ+⟩ in the computational basis leaves |00⟩ or |11⟩.
        expected = "00" if outcome == 0 else "11"
        assert after.probability_of(expected) == pytest.approx(1.0)

    def test_diagonal_basis_attack_also_breaks_chsh(self):
        attack = InterceptResendAttack(theta=math.pi / 2, rng=3)
        after = attack.intercept_transmission(0, phi_plus())
        assert chsh_value(after) <= CLASSICAL_CHSH_BOUND + 1e-9

    def test_partial_attack_fraction(self):
        attack = InterceptResendAttack(attack_fraction=0.0, rng=4)
        state = phi_plus()
        assert attack.intercept_transmission(0, state) is state
        assert attack.intercepted_pairs == 0

    def test_basis_states_are_orthonormal(self):
        attack = InterceptResendAttack(theta=1.1, phi=0.4)
        u, v = attack.basis_states()
        assert np.vdot(u, u) == pytest.approx(1.0)
        assert np.vdot(v, v) == pytest.approx(1.0)
        assert abs(np.vdot(u, v)) == pytest.approx(0.0, abs=1e-12)

    def test_invalid_fraction_rejected(self):
        with pytest.raises(AttackError):
            InterceptResendAttack(attack_fraction=1.5)

    def test_classical_bound_constant(self):
        assert InterceptResendAttack.expected_chsh_after_full_attack() == 2.0


class TestManInTheMiddleAttack:
    def test_destroys_all_correlations(self):
        attack = ManInTheMiddleAttack(rng=1)
        after = attack.intercept_transmission(0, phi_plus())
        assert abs(chsh_value(after)) < 1.0
        assert attack.intercepted_pairs == 1

    def test_bob_marginal_is_preserved(self):
        attack = ManInTheMiddleAttack(substitute="zero", rng=2)
        after = attack.intercept_transmission(0, phi_plus())
        # Bob's half of |Φ+⟩ is maximally mixed, and Eve cannot change that.
        np.testing.assert_allclose(after.partial_trace([1]).matrix, np.eye(2) / 2, atol=1e-10)
        # Eve's substituted qubit is |0⟩.
        assert after.partial_trace([0]).probability_of("0") == pytest.approx(1.0)

    def test_kept_states_recorded(self):
        attack = ManInTheMiddleAttack(rng=3)
        attack.intercept_transmission(0, phi_plus())
        attack.intercept_transmission(1, phi_plus())
        assert len(attack.kept_states) == 2
        assert attack.kept_states[0].num_qubits == 1

    def test_substitution_strategies(self):
        for strategy in ("random_pure", "zero", "maximally_mixed"):
            attack = ManInTheMiddleAttack(substitute=strategy, rng=4)
            after = attack.intercept_transmission(0, phi_plus())
            after.require_physical()

    def test_invalid_strategy_rejected(self):
        with pytest.raises(AttackError):
            ManInTheMiddleAttack(substitute="teleport")

    def test_expected_chsh_is_zero(self):
        assert ManInTheMiddleAttack.expected_chsh_after_full_attack() == 0.0


class TestEntangleMeasureAttack:
    def test_full_strength_probe_dephases_pair(self):
        attack = EntangleMeasureAttack(strength=1.0)
        after = attack.intercept_transmission(0, phi_plus())
        assert chsh_value(after) == pytest.approx(0.0, abs=1e-9)
        # Populations are untouched; only coherences vanish.
        assert after.probability_of("00") == pytest.approx(0.5)
        assert after.probability_of("11") == pytest.approx(0.5)

    def test_zero_strength_probe_is_harmless(self):
        attack = EntangleMeasureAttack(strength=0.0)
        after = attack.intercept_transmission(0, phi_plus())
        assert after.fidelity(bell_state(BellState.PHI_PLUS)) == pytest.approx(1.0)

    def test_partial_strength_matches_analytic_chsh(self):
        for strength in (0.2, 0.5, 0.8):
            attack = EntangleMeasureAttack(strength=strength)
            after = attack.intercept_transmission(0, phi_plus())
            assert chsh_value(after) == pytest.approx(
                attack.expected_chsh_after_attack(), abs=1e-9
            )

    def test_information_disturbance_tradeoff_detectability(self):
        # Once Eve gains more than ~1/2 of the basis information the CHSH
        # value drops below the classical bound and she is detected.
        strong = EntangleMeasureAttack(strength=0.6)
        assert strong.expected_chsh_after_attack() < CLASSICAL_CHSH_BOUND
        weak = EntangleMeasureAttack(strength=0.2)
        assert weak.expected_chsh_after_attack() > CLASSICAL_CHSH_BOUND

    def test_invalid_strength_rejected(self):
        with pytest.raises(AttackError):
            EntangleMeasureAttack(strength=1.5)

    def test_kraus_operators_form_a_channel(self):
        kraus = EntangleMeasureAttack(strength=0.7)._kraus_operators()
        total = sum(k.conj().T @ k for k in kraus)
        assert np.allclose(total, np.eye(2))
