"""Bench the stabilizer simulator's batch axis: circuits and shots.

Two workloads:

* **Analytic session batches** — the paper-default session shape (one
  two-qubit message-transfer circuit per session, Pauli + readout noise)
  submitted as batches of 1/64/1024 sessions, against a loop of one ``run``
  per session on the same simulator class.  Counts must stay bit-identical
  to the loop under the same seed, and the batch must amortize below 1 ms
  per session at batch ≥ 64.  Both share the structure-keyed distribution
  cache, so the recorded speedup reflects per-call overhead, not the tableau.
* **Trajectory shot batches** — a reset-bearing circuit forced onto the
  trajectory path, where the shot count is the tableau batch axis and one
  whole-batch update per instruction advances every shot.  The baseline is
  ``shots`` one-shot ``run`` calls on the same simulator — the per-shot cost
  the shot axis amortizes.  The gate asserts a ≥ 5× win at 1024 shots
  (measured ≈ 480×, so timing noise cannot flake it).
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.conftest import run_once
from repro.experiments.emulation import build_message_transfer_circuit
from repro.quantum.channels import depolarizing_channel, pauli_channel
from repro.quantum.circuit import QuantumCircuit
from repro.quantum.noise_model import NoiseModel, ReadoutError
from repro.quantum.stabilizer import StabilizerSimulator

SHOTS = 1024
MESSAGES = ("00", "01", "10", "11")


def _pauli_model() -> NoiseModel:
    model = NoiseModel("bench_batch_pauli")
    model.add_all_qubit_error(depolarizing_channel(2.41e-4), "id")
    model.add_all_qubit_error(pauli_channel(0.004, 0.002, 0.006), "cx")
    model.add_readout_error(ReadoutError.symmetric(0.013))
    return model


def _session_circuits(count: int) -> list:
    # Fresh circuit objects per session, as the protocol runner submits them.
    return [
        build_message_transfer_circuit(MESSAGES[i % len(MESSAGES)], eta=30)
        for i in range(count)
    ]


def _reset_circuit() -> QuantumCircuit:
    circuit = QuantumCircuit(3, name="reset_reuse")
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.cx(1, 2)
    circuit.reset(1)
    circuit.h(1)
    circuit.cx(1, 2)
    circuit.measure_all()
    return circuit


def _serial_counts(model, circuits, seed):
    simulator = StabilizerSimulator(noise_model=model)
    rng = np.random.default_rng(seed)
    return [simulator.run(circuit, shots=SHOTS, rng=rng).counts for circuit in circuits]


def _batched_counts(model, circuits, seed):
    simulator = StabilizerSimulator(noise_model=model)
    batch = simulator.run_batch(circuits, shots=SHOTS, rng=np.random.default_rng(seed))
    return [result.counts for result in batch.results]


def test_bench_batched_analytic_session_batches(benchmark, record):
    model = _pauli_model()
    seed = 9
    timings = {}
    for batch_size in (1, 64, 1024):
        circuits = _session_circuits(batch_size)

        start = time.perf_counter()
        serial = _serial_counts(model, circuits, seed)
        serial_seconds = time.perf_counter() - start

        start = time.perf_counter()
        batched = _batched_counts(model, circuits, seed)
        batched_seconds = time.perf_counter() - start

        # One multinomial per circuit in submission order on both paths:
        # equal seeds mean bit-identical histograms at every batch size.
        assert batched == serial

        timings[batch_size] = (serial_seconds, batched_seconds)

    # Perf gate: the paper-default session amortizes under 1 ms once the
    # batch is large enough to amortize distribution construction.
    for batch_size in (64, 1024):
        amortized_ms = timings[batch_size][1] * 1000.0 / batch_size
        assert amortized_ms < 1.0, (
            f"batched session amortization regressed: {amortized_ms:.3f} ms "
            f"per session at batch {batch_size}"
        )

    run_once(benchmark, _batched_counts, model, _session_circuits(1024), seed)
    record(
        shots=SHOTS,
        batch_sizes=[1, 64, 1024],
        counts_bit_identical=True,
        batch1024_serial_seconds=timings[1024][0],
        batch1024_batched_seconds=timings[1024][1],
        batched_session_amortized_seconds=timings[1024][1] / 1024,
        analytic_batch_speedup=timings[1024][0] / timings[1024][1],
    )


def test_bench_batched_trajectory_shot_batches(benchmark, record):
    model = _pauli_model()
    timings = {}
    for shots in (1, 64, 1024):
        simulator = StabilizerSimulator(noise_model=model)
        rng = np.random.default_rng(5)
        start = time.perf_counter()
        one_shot_results = [
            simulator.run(_reset_circuit(), shots=1, rng=rng, method="trajectory")
            for _ in range(shots)
        ]
        one_shot_seconds = time.perf_counter() - start

        start = time.perf_counter()
        batched_result = simulator.run(
            _reset_circuit(),
            shots=shots,
            rng=np.random.default_rng(5),
            method="trajectory",
        )
        batched_seconds = time.perf_counter() - start

        assert sum(result.shots for result in one_shot_results) == shots
        assert batched_result.shots == shots
        assert batched_result.metadata["stabilizer_mode"] == "trajectory"
        timings[shots] = (one_shot_seconds, batched_seconds)

    # Perf gate: one batched pass must beat ``shots`` one-shot passes by
    # ≥ 5× at 1024 shots (measured ≈ 480×).
    speedup_1024 = timings[1024][0] / timings[1024][1]
    assert speedup_1024 >= 5.0, (
        f"batched trajectory speedup regressed to {speedup_1024:.1f}x "
        "at 1024 shots"
    )
    amortized_ms = timings[1024][1] * 1000.0 / 1024
    assert amortized_ms < 1.0, (
        f"batched trajectory shot amortization regressed: {amortized_ms:.4f} ms"
    )

    def _trajectory_run():
        return StabilizerSimulator(noise_model=model).run(
            _reset_circuit(),
            shots=1024,
            rng=np.random.default_rng(5),
            method="trajectory",
        )

    run_once(benchmark, _trajectory_run)
    record(
        shot_batches=[1, 64, 1024],
        shots1024_serial_seconds=timings[1024][0],
        shots1024_batched_seconds=timings[1024][1],
        trajectory_shot_amortized_seconds=timings[1024][1] / 1024,
        trajectory_batch_speedup=speedup_1024,
    )
