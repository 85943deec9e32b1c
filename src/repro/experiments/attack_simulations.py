"""Experiment ``attacks``: simulation of the paper's four channel/party attacks plus leakage.

Section IV of the paper states that, in addition to the hardware emulation,
the four active attacks (impersonation, intercept-and-resend,
entangle-and-measure, man-in-the-middle) were simulated and all of them are
detected by the protocol, while §III-E argues the classical channel leaks no
message information.  This experiment reproduces those claims quantitatively:

* each active attack is run against the full protocol for a configurable
  number of independent sessions and its detection rate, abort reasons and
  CHSH statistics are aggregated;
* impersonation is additionally swept over the identity length ``l`` to
  reproduce the ``1 − (1/4)^l`` detection curve;
* the passive classical eavesdropper is evaluated with the
  two-message view-distribution experiment of
  :func:`repro.attacks.information_leakage.run_leakage_experiment`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from repro.artifacts.metrics import register_metrics
from repro.attacks import (
    EntangleMeasureAttack,
    ImpersonationAttack,
    InterceptResendAttack,
    LeakageReport,
    ManInTheMiddleAttack,
    evaluate_attack,
    run_leakage_experiment,
)
from repro.attacks.detection import AttackEvaluation
from repro.channel.quantum_channel import IdentityChainChannel
from repro.exceptions import ExperimentError
from repro.experiments.sweep import parameter_grid, run_sweep
from repro.protocol.config import ProtocolConfig

__all__ = [
    "AttackSimulationResult",
    "ImpersonationSweepPoint",
    "run_attack_simulations",
    "run_impersonation_sweep",
]

#: Attack factories per scenario name, in the paper's presentation order.
#: ``None`` marks the honest baseline.  Workers look the factory up by name,
#: so the (unpicklable) lambdas never cross a process boundary — only the
#: name and the worker's bound primitive context do.
SCENARIO_FACTORIES = {
    "honest": None,
    "impersonation_alice": lambda rng: ImpersonationAttack("alice", rng=rng),
    "impersonation_bob": lambda rng: ImpersonationAttack("bob", rng=rng),
    "intercept_resend": lambda rng: InterceptResendAttack(rng=rng),
    "man_in_the_middle": lambda rng: ManInTheMiddleAttack(rng=rng),
    "entangle_measure": lambda rng: EntangleMeasureAttack(strength=1.0, rng=rng),
}


@dataclass
class ImpersonationSweepPoint:
    """Detection statistics for one identity length ``l``."""

    identity_pairs: int
    empirical_detection_rate: float
    theoretical_detection_probability: float
    trials: int


@dataclass
class AttackSimulationResult:
    """Aggregate of the §IV attack simulations."""

    evaluations: dict[str, AttackEvaluation] = field(default_factory=dict)
    impersonation_sweep: list[ImpersonationSweepPoint] = field(default_factory=list)
    leakage: LeakageReport | None = None

    def detection_rates(self) -> dict[str, float]:
        """Detection rate per simulated attack."""
        return {name: evaluation.detection_rate for name, evaluation in self.evaluations.items()}

    def all_active_attacks_detected(self, minimum_rate: float = 0.9) -> bool:
        """True if every active attack is detected in at least *minimum_rate* of sessions."""
        active = {
            name: rate
            for name, rate in self.detection_rates().items()
            if name != "honest"
        }
        return bool(active) and all(rate >= minimum_rate for rate in active.values())


def _base_config(
    eta: int, identity_pairs: int, check_pairs: int, message_length: int
) -> ProtocolConfig:
    config = ProtocolConfig.default(
        message_length=message_length,
        identity_pairs=identity_pairs,
        check_pairs_per_round=check_pairs,
        eta=eta,
    )
    return config.with_channel(IdentityChainChannel(eta=eta))


def _attack_scenario_worker(
    params: dict,
    seed: int,
    eta: int,
    identity_pairs: int,
    check_pairs: int,
    message: str,
    trials: int,
) -> AttackEvaluation:
    """Evaluate one attack scenario (module-level for process pools)."""
    config = _base_config(eta, identity_pairs, check_pairs, len(message))
    factory = SCENARIO_FACTORIES[params["scenario"]]
    return evaluate_attack(config, factory, message, trials=trials, rng=seed)


def run_attack_simulations(
    trials: int = 10,
    eta: int = 10,
    identity_pairs: int = 8,
    check_pairs: int = 96,
    message: str = "1011001110001111",
    include_leakage: bool = True,
    leakage_sessions: int = 8,
    seed: int = 99,
    executor: str = "serial",
    max_workers: int | None = None,
) -> AttackSimulationResult:
    """Run the honest baseline and all four active attacks against the protocol.

    The six scenarios are independent sweep points fanned through
    :func:`repro.experiments.sweep.run_sweep`: each scenario derives its own
    seed from *seed* and its name, so detection statistics are identical for
    every *executor* choice (``"serial"``/``"thread"``/``"process"``).
    """
    if trials < 1:
        raise ExperimentError("trials must be at least 1")
    result = AttackSimulationResult()

    worker = functools.partial(
        _attack_scenario_worker,
        eta=eta,
        identity_pairs=identity_pairs,
        check_pairs=check_pairs,
        message=message,
        trials=trials,
    )
    swept = run_sweep(
        worker,
        parameter_grid(scenario=list(SCENARIO_FACTORIES)),
        base_seed=seed,
        executor=executor,
        max_workers=max_workers,
    )
    for point, evaluation in swept:
        result.evaluations[point.params["scenario"]] = evaluation

    if include_leakage:
        leakage_config = _base_config(eta, max(2, identity_pairs // 2), 32, len(message))
        result.leakage = run_leakage_experiment(
            leakage_config,
            message_a=message,
            message_b="".join("1" if ch == "0" else "0" for ch in message),
            sessions_per_message=leakage_sessions,
            rng=seed + 100,
        )
    return result


def _impersonation_point_worker(
    params: dict,
    seed: int,
    target: str,
    eta: int,
    check_pairs: int,
    message: str,
    trials: int,
) -> ImpersonationSweepPoint:
    """Evaluate one identity-length point (module-level for process pools)."""
    identity_pairs = int(params["identity_pairs"])
    config = _base_config(eta, identity_pairs, check_pairs, len(message))
    evaluation = evaluate_attack(
        config,
        lambda rng: ImpersonationAttack(target, rng=rng),
        message,
        trials=trials,
        rng=seed,
    )
    return ImpersonationSweepPoint(
        identity_pairs=identity_pairs,
        empirical_detection_rate=evaluation.detection_rate,
        theoretical_detection_probability=ImpersonationAttack.detection_probability(
            identity_pairs, config.authentication_tolerance
        ),
        trials=trials,
    )


def run_impersonation_sweep(
    identity_lengths: tuple[int, ...] = (1, 2, 3, 4, 6, 8),
    trials: int = 40,
    target: str = "bob",
    eta: int = 10,
    check_pairs: int = 48,
    message: str = "10110010",
    seed: int = 7,
    executor: str = "serial",
    max_workers: int | None = None,
) -> list[ImpersonationSweepPoint]:
    """Empirical vs. theoretical impersonation detection probability as a function of ``l``.

    Each identity length is one sweep point with a deterministic derived
    seed; points can be fanned across workers via *executor* without changing
    the empirical rates.
    """
    if trials < 1:
        raise ExperimentError("trials must be at least 1")
    worker = functools.partial(
        _impersonation_point_worker,
        target=target,
        eta=eta,
        check_pairs=check_pairs,
        message=message,
        trials=trials,
    )
    swept = run_sweep(
        worker,
        parameter_grid(identity_pairs=list(identity_lengths)),
        base_seed=seed,
        executor=executor,
        max_workers=max_workers,
    )
    return list(swept.values)


@register_metrics(AttackSimulationResult)
def attacks_artifact_metrics(result: AttackSimulationResult) -> dict:
    """Artifact metrics for the §IV attack simulations: detection + leakage."""
    metrics: dict = {
        f"detection_rate.{name}": rate
        for name, rate in result.detection_rates().items()
    }
    for point in result.impersonation_sweep:
        metrics[f"impersonation_empirical_l{point.identity_pairs}"] = (
            point.empirical_detection_rate
        )
        metrics[f"impersonation_theory_l{point.identity_pairs}"] = (
            point.theoretical_detection_probability
        )
    if result.leakage is not None:
        metrics.update(leakage_artifact_metrics(result.leakage))
    return metrics


@register_metrics(LeakageReport)
def leakage_artifact_metrics(report: LeakageReport) -> dict:
    """Artifact metrics for the information-leakage experiment (§III-E)."""
    return {
        "excess_tv_distance": report.excess_tv_distance,
        "total_variation_distance": report.total_variation_distance,
        "within_message_tv_distance": report.within_message_tv_distance,
        "mutual_information_upper_bound": report.mutual_information_upper_bound,
        "distinct_views": report.distinct_views,
        "message_outcomes_announced": report.message_outcomes_announced,
    }


@register_metrics("atk-impersonation-sweep")
def impersonation_sweep_artifact_metrics(points: list) -> dict:
    """Artifact metrics for the bare impersonation sweep (a list of points)."""
    metrics: dict = {}
    for point in points:
        metrics[f"empirical_l{point.identity_pairs}"] = point.empirical_detection_rate
        metrics[f"theory_l{point.identity_pairs}"] = (
            point.theoretical_detection_probability
        )
    return metrics
