"""Experiment harnesses regenerating every table and figure of the paper.

Each paper artefact maps to a registered experiment (see DESIGN.md §5):

========================  =====================================================
Experiment id             Paper artefact
========================  =====================================================
``table1``                Table I — protocol feature comparison
``fig2``                  Fig. 2 — decoded-outcome histograms at η = 10
``fig3``                  Fig. 3 — accuracy versus channel length
``sec-chsh``              §II/§IV — DI security-check characterisation
``attacks``               §III/§IV — attack simulations and detection rates
``atk-impersonation-sweep``  §III-A — detection probability vs identity length
``atk-leakage``           §III-E — classical-channel information leakage
``e2e``                   §II — full protocol end to end
``network_scale``         System extension — multi-node QSDC network traffic
========================  =====================================================

Run them from Python (:func:`run_experiment`) or from the command line
(``python -m repro.experiments run fig2``).
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "AttackSimulationResult",
    "run_attack_simulations",
    "run_impersonation_sweep",
    "CHSHExperimentResult",
    "run_chsh_experiment",
    "EndToEndResult",
    "run_end_to_end",
    "build_message_transfer_circuit",
    "decode_counts_to_messages",
    "run_message_transfer",
    "run_message_transfer_batch",
    "SweepPoint",
    "SweepResult",
    "parameter_grid",
    "point_seed",
    "run_sweep",
    "Fig2Result",
    "PAPER_FIG2_COUNTS",
    "run_fig2",
    "Fig3Result",
    "default_eta_sweep",
    "run_fig3",
    "MitigationStudyResult",
    "run_mitigation_study",
    "run_network_scale",
    "Experiment",
    "get_experiment",
    "list_experiments",
    "run_experiment",
    "render_result",
    "Table1Result",
    "run_table1",
]

#: Lazily re-exported names -> defining module.  Lazy so that importing one
#: submodule (the network scheduler and the batch backend look up
#: :func:`~repro.experiments.sweep.run_sweep` at call time) does not pull in
#: every harness, and with them the scipy-backed analysis layer the
#: numpy-only install lacks.  The registry fills itself on import of
#: :mod:`repro.experiments.registry`.
_LAZY_EXPORTS = {
    "AttackSimulationResult": "repro.experiments.attack_simulations",
    "run_attack_simulations": "repro.experiments.attack_simulations",
    "run_impersonation_sweep": "repro.experiments.attack_simulations",
    "CHSHExperimentResult": "repro.experiments.chsh_baseline",
    "run_chsh_experiment": "repro.experiments.chsh_baseline",
    "EndToEndResult": "repro.experiments.e2e",
    "run_end_to_end": "repro.experiments.e2e",
    "build_message_transfer_circuit": "repro.experiments.emulation",
    "decode_counts_to_messages": "repro.experiments.emulation",
    "run_message_transfer": "repro.experiments.emulation",
    "run_message_transfer_batch": "repro.experiments.emulation",
    "SweepPoint": "repro.experiments.sweep",
    "SweepResult": "repro.experiments.sweep",
    "parameter_grid": "repro.experiments.sweep",
    "point_seed": "repro.experiments.sweep",
    "run_sweep": "repro.experiments.sweep",
    "Fig2Result": "repro.experiments.fig2_message_counts",
    "PAPER_FIG2_COUNTS": "repro.experiments.fig2_message_counts",
    "run_fig2": "repro.experiments.fig2_message_counts",
    "Fig3Result": "repro.experiments.fig3_channel_length",
    "default_eta_sweep": "repro.experiments.fig3_channel_length",
    "run_fig3": "repro.experiments.fig3_channel_length",
    "MitigationStudyResult": "repro.experiments.mitigation_study",
    "run_mitigation_study": "repro.experiments.mitigation_study",
    "run_network_scale": "repro.experiments.network_scale",
    "Experiment": "repro.experiments.registry",
    "get_experiment": "repro.experiments.registry",
    "list_experiments": "repro.experiments.registry",
    "run_experiment": "repro.experiments.registry",
    "render_result": "repro.experiments.report",
    "Table1Result": "repro.experiments.table1_comparison",
    "run_table1": "repro.experiments.table1_comparison",
}


def __getattr__(name: str) -> Any:
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_EXPORTS))
