"""Bench one 64-circuit ``run_batch`` wave on the Pauli-only ``ibm_brisbane``.

This is the ``pauli_wave`` submission of perfbench's ``device_emulation``
workload: the paper's §IV message-transfer circuits (η = 10, four messages
drawn at random), rebuilt as fresh objects for every wave so that only their
structure repeats, on the device model without thermal relaxation, where
``auto`` dispatch picks the batched tableau.

It records the dispatch cost of a wave.  ``select_backend`` keeps one
eligibility verdict per (circuit structure, noise-model version), so the
first wave walks each distinct structure once and a repeated wave walks
nothing (``dispatch.eligibility`` telemetry counts both).  The timed rounds
are whole waves through ``NoisyBackend.run_batch``;
``dispatch_wave_seconds`` is ``select_backend`` alone on a fresh wave,
structure keys included.
"""

from __future__ import annotations

import time

import numpy as np

from repro.device.backend import NoisyBackend
from repro.device.device_model import DeviceModel
from repro.experiments.emulation import build_message_transfer_circuit
from repro.quantum.dispatch import select_backend
from repro.telemetry import runtime as telemetry

WAVE = 64
SHOTS = 1024
ETA = 10
MESSAGES = ("00", "01", "10", "11")
ROUNDS = 30


def _wave(picks) -> list:
    return [build_message_transfer_circuit(MESSAGES[pick], eta=ETA) for pick in picks]


def test_bench_pauli_wave_dispatch(benchmark, record):
    backend = NoisyBackend(
        DeviceModel.ibm_brisbane(include_thermal_relaxation=False), seed=11
    )
    picks = np.random.default_rng(3).integers(0, len(MESSAGES), WAVE)
    walks = []
    with telemetry.capture(clock="ticks") as session:
        for _ in range(2):
            backend.run_batch(_wave(picks), shots=SHOTS)
            walks.append(
                session.metrics.counter_value("dispatch.eligibility", result="walk")
            )
        hits = session.metrics.counter_value("dispatch.eligibility", result="hit")
    assert {job.metadata["backend"] for job in backend.jobs} == {"stabilizer_batched"}
    assert walks == [len(set(picks))] * 2
    assert hits == 2 * WAVE - walks[0]

    waves = [_wave(picks) for _ in range(ROUNDS)]
    start = time.perf_counter()
    for circuits in waves:
        select_backend("auto", circuits, backend.noise_model, batch=True)
    dispatch_seconds = (time.perf_counter() - start) / ROUNDS

    histograms = benchmark.pedantic(
        backend.run_batch,
        setup=lambda: ((_wave(picks),), {"shots": SHOTS}),
        iterations=1,
        rounds=ROUNDS,
    )
    assert [counts.shots for counts in histograms] == [SHOTS] * WAVE
    record(
        wave=WAVE,
        shots=SHOTS,
        distinct_structures=len(set(picks)),
        first_wave_walks=walks[0],
        repeat_wave_walks=walks[1] - walks[0],
        dispatch_wave_seconds=dispatch_seconds,
    )
