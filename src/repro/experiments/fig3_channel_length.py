"""Experiment ``fig3``: accuracy of Bob's measurement versus channel length (paper Fig. 3).

The paper sweeps the quantum channel from η = 10 to η = 700 identity gates
(0.6 µs to 42 µs on ``ibm_brisbane``) and plots the accuracy of Bob's
Bell-state measurement; the accuracy decays with channel length and falls
below 60 % at the long end of the sweep.

:func:`run_fig3` reproduces the sweep on the device model.  Two reproduction
notes (also recorded in EXPERIMENTS.md):

* the *shape* — monotonic decay towards the 25 % floor of a four-outcome
  measurement — is reproduced; the absolute crossing point depends on error
  sources beyond the median calibration numbers quoted in the paper
  (crosstalk, calibration drift), which the ``gate_error_multiplier`` knob
  exposes for sensitivity studies;
* each point is estimated from ``shots`` shots averaged over the requested
  message symbols, exactly like the hardware experiment.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from collections.abc import Sequence

from repro.analysis.accuracy import AccuracyPoint, crossing_eta, exponential_decay_fit
from repro.analysis.fidelity import distribution_fidelity
from repro.artifacts.metrics import register_metrics
from repro.device.backend import NoisyBackend
from repro.device.calibration import (
    GateCalibration,
    IBM_BRISBANE_ID_DURATION,
    IBM_BRISBANE_ID_ERROR,
    ibm_brisbane_calibration,
)
from repro.device.device_model import DeviceModel
from repro.device.topology import EAGLE_NUM_QUBITS, heavy_hex_coupling_map
from repro.exceptions import ExperimentError
from repro.experiments.emulation import MESSAGE_SYMBOLS, run_message_transfer_batch
from repro.experiments.sweep import parameter_grid, resolve_base_seed, run_sweep

__all__ = ["Fig3Result", "run_fig3", "default_eta_sweep", "PAPER_FIG3_THRESHOLD"]

#: Accuracy threshold the paper highlights (accuracy drops below 60 %).
PAPER_FIG3_THRESHOLD = 0.6

#: Channel length at which the paper observes the accuracy crossing 60 %.
PAPER_FIG3_CROSSING_ETA = 700


def default_eta_sweep(start: int = 10, stop: int = 700, num_points: int = 24) -> list[int]:
    """An evenly spaced η sweep covering the paper's range (10 to 700 gates)."""
    if num_points < 2 or stop <= start:
        raise ExperimentError("the sweep needs at least two increasing points")
    step = (stop - start) / (num_points - 1)
    etas = sorted({int(round(start + index * step)) for index in range(num_points)})
    return etas


@dataclass
class Fig3Result:
    """Full Fig. 3 reproduction: the accuracy-versus-η series plus its analysis."""

    backend_name: str
    shots: int
    messages: tuple[str, ...]
    points: list[AccuracyPoint] = field(default_factory=list)
    gate_error_multiplier: float = 1.0

    @property
    def etas(self) -> list[int]:
        """The swept channel lengths."""
        return [point.eta for point in self.points]

    @property
    def accuracies(self) -> list[float]:
        """The measured accuracies, aligned with :attr:`etas`."""
        return [point.accuracy for point in self.points]

    def crossing(self, threshold: float = PAPER_FIG3_THRESHOLD) -> float | None:
        """Channel length at which the accuracy first drops below *threshold*."""
        return crossing_eta(self.points, threshold)

    def decay_fit(self) -> dict[str, float]:
        """Exponential-decay fit of the accuracy curve (floor fixed at 1/4)."""
        return exponential_decay_fit(self.points, floor=0.25)

    def is_monotonically_decreasing(self, tolerance: float = 0.05) -> bool:
        """True if the accuracy never increases by more than *tolerance* between points."""
        return all(
            later.accuracy <= earlier.accuracy + tolerance
            for earlier, later in zip(self.points, self.points[1:])
        )


def _device_with_scaled_identity_error(multiplier: float) -> DeviceModel:
    """An ``ibm_brisbane`` model whose identity-gate error is scaled by *multiplier*."""
    calibration = ibm_brisbane_calibration()
    calibration.add_gate(
        GateCalibration(
            "id",
            min(1.0, IBM_BRISBANE_ID_ERROR * multiplier),
            IBM_BRISBANE_ID_DURATION,
            num_qubits=1,
        )
    )
    return DeviceModel(
        name=f"ibm_brisbane(id_error x{multiplier:g})",
        num_qubits=EAGLE_NUM_QUBITS,
        coupling_map=heavy_hex_coupling_map(),
        calibration=calibration,
    )


def _fig3_point(
    params: dict,
    seed: int,
    shots: int,
    messages: tuple[str, ...],
    device: DeviceModel,
    simulator_backend: str = "auto",
    cache=None,
) -> AccuracyPoint:
    """Measure one η point of the Fig. 3 sweep (module-level for process pools).

    A fresh backend is seeded from the point's deterministic seed, so the
    point's counts are identical whether the sweep runs serially or fanned
    across workers.  All message circuits of the point go through the
    batched execution path and share one compiled channel segment; serial
    sweeps additionally share one propagator cache across points (*cache*),
    which is sound because counts never depend on cache state.
    """
    eta = int(params["eta"])
    backend = NoisyBackend(
        device, seed=seed, simulator_backend=simulator_backend, cache=cache
    )
    histograms = run_message_transfer_batch(messages, eta, backend, shots=shots)
    correct = sum(
        decoded.get(message, 0) for message, decoded in zip(messages, histograms)
    )
    fidelities = [
        distribution_fidelity(decoded, {message: 1.0})
        for message, decoded in zip(messages, histograms)
    ]
    return AccuracyPoint(
        eta=eta,
        duration=eta * backend.device.gate_duration("id"),
        accuracy=correct / (shots * len(messages)),
        shots=shots * len(messages),
        fidelity=sum(fidelities) / len(fidelities),
    )


def run_fig3(
    etas: Sequence[int] | None = None,
    shots: int = 1024,
    messages: Sequence[str] = MESSAGE_SYMBOLS,
    device: DeviceModel | None = None,
    gate_error_multiplier: float = 1.0,
    seed: int | None = 2024,
    executor: str = "serial",
    max_workers: int | None = None,
    simulator_backend: str = "auto",
) -> Fig3Result:
    """Reproduce Fig. 3: Bob's measurement accuracy versus channel length.

    The η grid is fanned through :func:`repro.experiments.sweep.run_sweep`
    with a deterministic per-point seed, so the result is identical for every
    *executor* choice; each point executes its message circuits through the
    batched simulator path.

    Parameters
    ----------
    etas:
        Channel lengths to sweep (defaults to 24 points covering 10–700).
    shots:
        Shots per (η, message) point.
    messages:
        Message symbols averaged at each point (paper encodes all four).
    device:
        Device model; defaults to ``ibm_brisbane``, optionally with the
        identity-gate error scaled by *gate_error_multiplier*.
    gate_error_multiplier:
        Sensitivity knob: scales the identity-gate depolarizing error to model
        hardware whose effective channel error exceeds the median calibration.
    seed:
        Base seed for the per-point seed derivation; ``None`` draws a random
        base seed (the sweep is then unreproducible but still internally
        consistent).
    executor:
        ``"serial"`` (default), ``"thread"`` or ``"process"`` — how the η
        points are distributed (see :mod:`repro.experiments.sweep`).
    max_workers:
        Worker count for the parallel executors.
    simulator_backend:
        Passed to each point's :class:`~repro.device.backend.NoisyBackend`
        (``"auto"``/``"dense"``/``"stabilizer"``), where it picks the
        circuit engine; protocol sessions no longer have a ``"dense"``
        path of their own.  With the default ``ibm_brisbane`` device
        model, ``auto`` resolves to the dense path (thermal relaxation is
        not a Pauli channel) and the figures stay bit-identical to earlier
        releases; Pauli-diagonal device models take the stabilizer fast
        path automatically.
    """
    if shots < 1:
        raise ExperimentError("shots must be positive")
    if not messages:
        raise ExperimentError("at least one message symbol is required")
    sweep = list(etas) if etas is not None else default_eta_sweep()
    if device is None:
        device = (
            DeviceModel.ibm_brisbane()
            if gate_error_multiplier == 1.0
            else _device_with_scaled_identity_error(gate_error_multiplier)
        )
    base_seed = resolve_base_seed(seed)

    # One propagator cache shared by every point of the sweep.  The cache is
    # internally locked, so serial and thread executors both share it (point
    # counts never depend on cache state); process pools cannot share memory,
    # so they keep per-backend caches.
    from repro.quantum.batch import PropagatorCache

    shared_cache = PropagatorCache() if executor in ("serial", "thread") else None
    worker = functools.partial(
        _fig3_point,
        shots=shots,
        messages=tuple(messages),
        device=device,
        simulator_backend=simulator_backend,
        cache=shared_cache,
    )
    swept = run_sweep(
        worker,
        parameter_grid(eta=sweep),
        base_seed=base_seed,
        executor=executor,
        max_workers=max_workers,
    )

    return Fig3Result(
        backend_name=device.name,
        shots=shots,
        messages=tuple(messages),
        gate_error_multiplier=gate_error_multiplier,
        points=list(swept.values),
    )


@register_metrics(Fig3Result)
def fig3_artifact_metrics(result: Fig3Result) -> dict:
    """Artifact metrics for Fig. 3: the accuracy-vs-η series and its crossing."""
    return {
        "etas": list(result.etas),
        "accuracies": list(result.accuracies),
        "crossing_eta_60pct": result.crossing(),
    }
