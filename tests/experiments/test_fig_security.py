"""Tests for the ``fig_security`` scenario-grid experiment."""

import pytest

from repro.experiments.fig_security import (
    DEFAULT_PRESETS,
    SecurityStudyResult,
    run_fig_security,
)
from repro.experiments.registry import get_experiment
from repro.experiments.report import render_result

QUICK = dict(trials=4, check_pairs=32, identity_pairs=4, strengths=(0.5, 1.0))


@pytest.fixture(scope="module")
def quick_study() -> SecurityStudyResult:
    return run_fig_security(seed=42, **QUICK)


class TestFigSecurity:
    def test_registered_with_quick_kwargs(self):
        experiment = get_experiment("fig_security")
        assert experiment.quick_kwargs["trials"] <= 10
        assert experiment.paper_artifact.startswith("Section III")

    def test_grid_covers_sweeps_and_presets(self, quick_study):
        names = {point.name for point in quick_study.points}
        for strategy in ("intercept_resend", "entangle_measure",
                         "man_in_the_middle", "source_tamper"):
            assert f"{strategy}@0.5" in names
            assert f"{strategy}@1" in names
        for preset in DEFAULT_PRESETS:
            assert preset in names

    def test_default_link_is_depolarizing(self, quick_study):
        assert quick_study.channel_name.startswith("depolarizing")

    def test_eta_channel_study_is_seed_deterministic(self):
        kwargs = dict(
            seed=42, trials=2, check_pairs=16, identity_pairs=2,
            strengths=(1.0,), presets=(), channel="eta", noise=10,
        )
        study = run_fig_security(**kwargs)
        assert study.channel_name == "identity_chain(eta=10)"
        assert study.summary() == run_fig_security(**kwargs).summary()

    def test_seed_deterministic(self, quick_study):
        again = run_fig_security(seed=42, **QUICK)
        assert again.summary() == quick_study.summary()

    def test_executor_independent(self, quick_study):
        threaded = run_fig_security(seed=42, executor="thread", **QUICK)
        assert threaded.summary() == quick_study.summary()

    def test_full_strength_attacks_detected(self, quick_study):
        assert quick_study.all_full_strength_attacks_detected()
        for name in ("intercept_resend@1", "entangle_measure@1",
                     "man_in_the_middle@1", "source_tamper@1"):
            point = quick_study.point(name)
            assert point.detection_rate == 1.0, name
            assert point.sessions_for_95_detection == 1

    def test_passive_classical_undetectable(self, quick_study):
        # The passive tap adds nothing to the honest abort behaviour: its
        # sessions abort only through the same finite-sample noise (its grid
        # point runs under its own derived seed, so the small-sample rates
        # need not match the honest baseline exactly).
        point = quick_study.point("classical_passive")
        assert point.detection_rate <= max(0.25, quick_study.honest_false_alarm_rate)

    def test_roc_separates_active_attacks(self, quick_study):
        for name in ("intercept_resend@1", "man_in_the_middle@1",
                     "source_tamper@1"):
            roc = quick_study.point(name).roc
            assert roc is not None and roc.auc >= 0.9, name
        passive = quick_study.point("classical_passive").roc
        assert passive is not None and 0.2 <= passive.auc <= 0.8

    def test_frontier_built_from_information_strategies(self, quick_study):
        assert quick_study.frontier, "strength sweeps must feed the frontier"
        labels = {point.label for point in quick_study.frontier}
        assert all(
            label.split("@")[0] in ("intercept_resend", "entangle_measure")
            for label in labels
        )

    def test_chsh_bound_annotations(self, quick_study):
        bound = quick_study.chsh_bound
        assert bound["check_pairs"] == QUICK["check_pairs"]
        assert bound["epsilon_95"] > 0
        assert bound["pairs_for_epsilon_0.5_95"] > QUICK["check_pairs"]

    def test_render_and_summary(self, quick_study):
        text = render_result(quick_study)
        assert "Security analysis" in text
        assert "intercept_resend@1" in text
        assert "engine=" not in text  # sessions take no engine choice
        summary = quick_study.summary()
        assert len(summary["points"]) == len(quick_study.points)

    def test_invalid_inputs_rejected(self):
        from repro.exceptions import ExperimentError

        with pytest.raises(ExperimentError):
            run_fig_security(trials=0)
        with pytest.raises(ExperimentError):
            run_fig_security(trials=1, strengths=(1.5,))
        with pytest.raises(ExperimentError):
            run_fig_security(trials=1, channel="carrier_pigeon")


class TestDetectionRatePins:
    """Regression pins: the quick grid's exact detection rates under seed 42."""

    def test_pinned_rates(self, quick_study):
        rates = quick_study.detection_rates()
        # Full-strength active attacks: always caught.
        assert rates["intercept_resend@1"] == 1.0
        assert rates["man_in_the_middle@1"] == 1.0
        assert rates["entangle_measure@1"] == 1.0
        assert rates["source_tamper@1"] == 1.0
        # Half-strength attacks stay highly visible on this channel.
        assert rates["intercept_resend@0.5"] >= 0.75
        assert rates["man_in_the_middle@0.5"] >= 0.75
        # The passive tap never trips a safeguard beyond finite-sample noise.
        assert rates["classical_passive"] <= 0.25
