"""Bench the messaging-service facade: overhead vs the raw protocol, and
batch-backend throughput on a multi-fragment payload.

The facade promises to be a *thin* layer: in unframed single-fragment mode a
``MessagingService.send`` runs exactly one ``UADIQSDCProtocol`` session with
the same seed as a direct call, so everything it adds (validation, codec,
job/report construction) must stay within a few percent of the raw run.  The
second benchmark records the throughput of a framed multi-fragment payload
fanned out through the batch backend.
"""

from __future__ import annotations

import time

from benchmarks.conftest import run_once
from repro.api import MessagingService, ServiceConfig
from repro.protocol.runner import UADIQSDCProtocol

MESSAGE = "1011001110001111"
SEED = 404


def _facade_config() -> ServiceConfig:
    return (
        ServiceConfig.ideal(seed=SEED)
        .with_session(identity_pairs=2, check_pairs_per_round=64)
        .with_framing(False)
        .with_retries(0)
    )


def _run_direct(config: ServiceConfig, repeats: int) -> None:
    for _ in range(repeats):
        protocol_config = config.protocol_config(len(MESSAGE), seed=SEED)
        UADIQSDCProtocol(protocol_config).run(MESSAGE)


def _run_facade(service: MessagingService, repeats: int) -> None:
    for _ in range(repeats):
        service.send(MESSAGE, kind="bits")


def _best_of(func, *args, rounds: int = 3) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        func(*args)
        best = min(best, time.perf_counter() - start)
    return best


def test_bench_facade_overhead_vs_direct_run(benchmark, record):
    config = _facade_config()
    service = MessagingService(config)
    repeats = 10

    # Same seed, same protocol parameters: both paths execute bit-identical
    # quantum sessions, so the timing difference *is* the facade overhead.
    direct = service.send(MESSAGE, kind="bits").fragments[0].attempts[0].raw
    reference = UADIQSDCProtocol(config.protocol_config(len(MESSAGE), seed=SEED)).run(
        MESSAGE
    )
    assert direct.summary() == reference.summary()

    _run_direct(config, 2)  # warm both paths before timing
    _run_facade(service, 2)
    direct_time = _best_of(_run_direct, config, repeats)
    facade_time = _best_of(_run_facade, service, repeats)
    overhead = facade_time / direct_time - 1.0

    run_once(benchmark, _run_facade, service, repeats)

    # The memoised session fast path shrank a direct run to a few
    # milliseconds, so the facade's fixed per-send cost (fragmentation,
    # seed derivation, report assembly) is bounded both relatively and
    # absolutely: small against the session, and under 2 ms outright.
    per_send_overhead = (facade_time - direct_time) / repeats
    assert overhead < 0.25 or per_send_overhead < 0.002, (
        f"facade adds {overhead:.1%} ({per_send_overhead * 1e3:.2f} ms/send) over a "
        f"direct UADIQSDCProtocol.run "
        f"(direct {direct_time:.3f}s vs facade {facade_time:.3f}s for {repeats} sends)"
    )
    record(
        direct_seconds=direct_time,
        facade_seconds=facade_time,
        overhead_fraction=overhead,
        overhead_seconds_per_send=per_send_overhead,
    )


def test_bench_batch_backend_multi_fragment_throughput(benchmark, record):
    payload = bytes(range(64))  # 512 bits -> 16 fragments of 32 bits
    config = (
        ServiceConfig.ideal(seed=SEED)
        .with_backend("batch")
        .with_session(identity_pairs=2, check_pairs_per_round=64)
        .with_fragment_bits(32)
        .with_executor("thread")
    )
    service = MessagingService(config)

    start = time.perf_counter()
    report = run_once(benchmark, service.send, payload)
    elapsed = time.perf_counter() - start

    assert report.success and report.delivered_payload == payload
    assert report.num_fragments == 16
    assert elapsed < 30.0, f"multi-fragment batch send took {elapsed:.1f}s"
    record(
        num_fragments=report.num_fragments,
        total_attempts=report.total_attempts,
        payload_bits=report.num_payload_bits,
        bits_per_second=report.num_payload_bits / elapsed,
    )
