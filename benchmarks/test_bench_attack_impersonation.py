"""Bench ``atk-impersonation``: impersonation-attack detection (paper §III-A, §IV).

Regenerates the impersonation simulation in both directions (Eve as Alice and
Eve as Bob) and the detection-probability curve as a function of the identity
length, comparing the empirical detection rate against the analytic
expression at the config's authentication tolerance (the paper's
``1 − (1/4)^l`` is its zero-tolerance case).
"""

from __future__ import annotations

from benchmarks.conftest import run_once
from repro.attacks import ImpersonationAttack, evaluate_attack
from repro.channel.quantum_channel import IdentityChainChannel
from repro.experiments import render_result, run_impersonation_sweep
from repro.protocol.config import ProtocolConfig


def _run():
    config = ProtocolConfig.default(
        message_length=16, identity_pairs=8, check_pairs_per_round=64, eta=10
    ).with_channel(IdentityChainChannel(eta=10))
    eve_as_bob = evaluate_attack(
        config, lambda rng: ImpersonationAttack("bob", rng=rng), "1011001110001111",
        trials=12, rng=1,
    )
    eve_as_alice = evaluate_attack(
        config, lambda rng: ImpersonationAttack("alice", rng=rng), "1011001110001111",
        trials=12, rng=2,
    )
    sweep = run_impersonation_sweep(
        identity_lengths=(1, 2, 3, 4, 6, 8), trials=40, check_pairs=32, seed=3
    )
    return eve_as_bob, eve_as_alice, sweep


def test_bench_attack_impersonation(benchmark, record, capsys):
    eve_as_bob, eve_as_alice, sweep = run_once(benchmark, _run)

    with capsys.disabled():
        print()
        print(f"Eve impersonating Bob  : detection rate {eve_as_bob.detection_rate:.2f}, "
              f"mean D_A mismatch {eve_as_bob.mean_bob_authentication_error:.2f} (theory 0.75)")
        print(f"Eve impersonating Alice: detection rate {eve_as_alice.detection_rate:.2f}")
        print(render_result(sweep))

    # With l=8 identity pairs, detection is essentially certain and no message leaks.
    assert eve_as_bob.detection_rate == 1.0
    assert eve_as_alice.detection_rate == 1.0
    assert eve_as_bob.messages_delivered == 0
    assert eve_as_bob.mean_bob_authentication_error > 0.5

    # The sweep follows the tolerance-aware detection curve within sampling error.
    for point in sweep:
        margin = 3 * (point.theoretical_detection_probability * 0.25 / point.trials) ** 0.5 + 0.15
        assert abs(
            point.empirical_detection_rate - point.theoretical_detection_probability
        ) <= margin

    record(
        detection_rate_eve_as_bob=eve_as_bob.detection_rate,
        detection_rate_eve_as_alice=eve_as_alice.detection_rate,
        sweep=[
            {
                "l": point.identity_pairs,
                "empirical": point.empirical_detection_rate,
                "theory": point.theoretical_detection_probability,
            }
            for point in sweep
        ],
    )
