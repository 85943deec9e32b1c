"""Bench the telemetry layer's disabled-mode cost on the service hot path.

The telemetry tentpole promises near-zero overhead when no session is
active: every instrumentation point guards on a module-level ``_session is
None`` check and returns a shared no-op immediately.  Two measurements back
that claim:

* a direct micro-measurement of the no-op helpers (span enter/exit,
  ``counter_inc``, ``clock_mark``) — nanoseconds per call — scaled by a
  generous touchpoint budget per ``send()`` and compared against the
  measured send duration (this is the gated <2% assertion: same-machine,
  same-process, so timer noise largely cancels);
* an end-to-end traced-vs-untraced send pair recorded as context, showing
  what an *enabled* session costs for the same workload.
"""

from __future__ import annotations

import time

from benchmarks.conftest import run_once
from repro import telemetry
from repro.api import MessagingService, ServiceConfig
from repro.telemetry import runtime

MESSAGE = "1011001110001111"
SEED = 513

# Upper bound on instrumentation touchpoints a single-fragment send crosses
# (service.send span, attempt wave, fragment attempt, protocol session,
# ~8 phase marks, counters, cache registrations) — deliberately inflated.
TOUCHPOINTS_PER_SEND = 64


def _noop_cost_per_call(loops: int = 20_000) -> float:
    """Seconds per disabled-mode instrumentation call, best of 3."""
    assert not runtime.enabled()

    def burn() -> None:
        for _ in range(loops):
            with runtime.span("bench", "bench"):
                pass
            runtime.counter_inc("bench")
            runtime.clock_mark()

    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        burn()
        best = min(best, time.perf_counter() - start)
    return best / (loops * 3)  # three helper calls per loop


def _best_send_seconds(service: MessagingService, rounds: int = 5) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        report = service.send(MESSAGE, kind="bits")
        best = min(best, time.perf_counter() - start)
        assert report.success
    return best


def test_bench_disabled_telemetry_send_overhead(benchmark, record):
    config = (
        ServiceConfig.ideal(seed=SEED)
        .with_session(identity_pairs=2, check_pairs_per_round=64)
        .with_framing(False)
        .with_retries(0)
    )
    service = MessagingService(config)
    service.send(MESSAGE, kind="bits")  # warm caches before timing

    noop_cost = _noop_cost_per_call()
    send_seconds = _best_send_seconds(service)
    overhead_seconds = noop_cost * TOUCHPOINTS_PER_SEND
    overhead_fraction = overhead_seconds / send_seconds

    run_once(benchmark, service.send, MESSAGE, kind="bits")

    assert overhead_fraction < 0.02, (
        f"disabled-mode telemetry costs {overhead_fraction:.2%} of a send "
        f"({noop_cost * 1e9:.0f} ns/call x {TOUCHPOINTS_PER_SEND} touchpoints "
        f"vs {send_seconds * 1e3:.2f} ms/send)"
    )

    # Context: what tracing costs when it is actually on.
    with telemetry.capture():
        start = time.perf_counter()
        service.send(MESSAGE, kind="bits")
        traced_seconds = time.perf_counter() - start

    record(
        noop_nanoseconds_per_call=noop_cost * 1e9,
        send_seconds=send_seconds,
        disabled_overhead_fraction=overhead_fraction,
        traced_send_seconds=traced_seconds,
    )
