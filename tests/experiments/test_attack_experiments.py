"""Tests for the attack-simulation experiment harness (reduced sizes)."""

from __future__ import annotations

import math

import pytest

from repro.attacks import ImpersonationAttack, evaluate_attack
from repro.channel.quantum_channel import NoiselessChannel
from repro.exceptions import ExperimentError
from repro.experiments.attack_simulations import (
    run_attack_simulations,
    run_impersonation_sweep,
)
from repro.experiments.report import render_result
from repro.protocol.config import ProtocolConfig


class TestAttackSimulations:
    @pytest.fixture(scope="class")
    def simulations(self):
        return run_attack_simulations(
            trials=3,
            identity_pairs=6,
            check_pairs=64,
            message="10110010",
            include_leakage=True,
            leakage_sessions=3,
            seed=41,
        )

    def test_all_scenarios_present(self, simulations):
        assert set(simulations.evaluations) == {
            "honest",
            "impersonation_alice",
            "impersonation_bob",
            "intercept_resend",
            "man_in_the_middle",
            "entangle_measure",
        }

    def test_honest_sessions_mostly_succeed(self, simulations):
        honest = simulations.evaluations["honest"]
        assert honest.messages_delivered >= 2
        assert honest.detection_rate <= 1 / 3

    def test_every_active_attack_is_detected(self, simulations):
        assert simulations.all_active_attacks_detected(minimum_rate=0.99)
        for name, evaluation in simulations.evaluations.items():
            if name == "honest":
                continue
            assert evaluation.messages_delivered == 0, name

    def test_channel_attacks_drive_chsh_or_authentication_failures(self, simulations):
        mitm = simulations.evaluations["man_in_the_middle"]
        assert set(mitm.abort_reasons) <= {
            "round2_chsh_failed",
            "bob_authentication_failed",
            "alice_authentication_failed",
        }
        impersonation = simulations.evaluations["impersonation_bob"]
        assert impersonation.abort_reasons.get("bob_authentication_failed", 0) == impersonation.trials

    def test_leakage_report_included(self, simulations):
        assert simulations.leakage is not None
        assert not simulations.leakage.message_outcomes_announced

    def test_render(self, simulations):
        text = render_result(simulations)
        assert "detection rate" in text
        assert "man_in_the_middle" in text

    def test_validation(self):
        with pytest.raises(ExperimentError):
            run_attack_simulations(trials=0)


class TestImpersonationSweep:
    def test_detection_tracks_theoretical_curve(self):
        sweep = run_impersonation_sweep(
            identity_lengths=(1, 4), trials=24, check_pairs=32, seed=13
        )
        assert len(sweep) == 2
        short, long = sweep
        assert short.theoretical_detection_probability == pytest.approx(0.75)
        # The default tolerance 0.25 lets one mismatch in four pass.
        assert long.theoretical_detection_probability == pytest.approx(1 - 13 / 256)
        assert long.empirical_detection_rate > 0.9
        assert render_result(sweep).count("l=") == 2

    def test_validation(self):
        with pytest.raises(ExperimentError):
            run_impersonation_sweep(trials=0)


def _binomial_band(trials: int, p: float, alpha: float) -> tuple[int, int]:
    """``[low, high]`` with ``P(X < low) <= alpha/2`` and ``P(X > high) <= alpha/2``
    for ``X ~ Binomial(trials, p)``, from the exact pmf."""
    log_p, log_q = math.log(p), math.log1p(-p)
    pmf = [
        math.exp(
            math.lgamma(trials + 1)
            - math.lgamma(k + 1)
            - math.lgamma(trials - k + 1)
            + k * log_p
            + (trials - k) * log_q
        )
        for k in range(trials + 1)
    ]
    low, tail = 0, pmf[0]
    while tail <= alpha / 2:
        low += 1
        tail += pmf[low]
    high, tail = trials, pmf[trials]
    while tail <= alpha / 2:
        high -= 1
        tail += pmf[high]
    return low, high


class TestImpersonationOracle:
    """Authentication failures of an impersonator against the exact binomial law.

    On a noiseless channel each forged identity pair mismatches with
    probability 3/4, so among the sessions that reach the impersonated
    party's check the failures are Binomial(reached, p) with p from
    ``detection_probability(l, tolerance)``.  Sessions the round-1 CHSH
    check aborts by finite-sample chance (≈7% at d=32) never reach it, so
    the rate is conditioned on reaching.  Each of the four cells allows a
    two-sided false alarm of 2.5e-7, 1e-6 for the whole test.
    """

    TRIALS = 1500
    ALPHA = 2.5e-7

    @pytest.mark.parametrize("identity_pairs", [1, 4])
    @pytest.mark.parametrize("target", ["alice", "bob"])
    def test_failure_rate_lies_in_the_binomial_band(self, target, identity_pairs):
        config = ProtocolConfig.default(
            message_length=8, identity_pairs=identity_pairs, check_pairs_per_round=32
        ).with_channel(NoiselessChannel())
        evaluation = evaluate_attack(
            config,
            lambda rng: ImpersonationAttack(target, rng=rng),
            "10110010",
            trials=self.TRIALS,
            rng=1000 * identity_pairs + len(target),
        )
        aborts = evaluation.abort_reasons
        # Bob's check comes first; an honest Bob always passes it here.
        earlier = ["round1_chsh_failed"] + (
            ["bob_authentication_failed"] if target == "alice" else []
        )
        reached = self.TRIALS - sum(aborts.get(reason, 0) for reason in earlier)
        failed = aborts.get(f"{target}_authentication_failed", 0)
        p = ImpersonationAttack.detection_probability(
            identity_pairs, config.authentication_tolerance
        )
        low, high = _binomial_band(reached, p, self.ALPHA)
        assert reached > 0.85 * self.TRIALS
        assert low <= failed <= high, (failed, reached, p, (low, high))
