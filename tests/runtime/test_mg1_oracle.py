"""``simulate_load`` against queueing theory: the M/G/1 mean wait.

With Poisson arrivals at rate λ, one worker and service times
``S = b · exp(σ Z)`` (``ServiceTimeModel(base_time=b, jitter=σ)``, ``Z``
standard normal), the mean time a message waits in the queue is the
Pollaczek–Khinchine value ``λ E[S²] / (2 (1 − ρ))`` with
``E[S] = b e^{σ²/2}``, ``E[S²] = b² e^{2σ²}`` and ``ρ = λ E[S]``.  The
formula knows nothing of the simulator's event loop, admission queue or
tie-breaks, so agreement is an independent check of all three.

Waits of successive messages are correlated, so the band comes from batch
means: one run's waits in arrival order are cut into 21 equal batches, the
first is dropped as warm-up (the queue starts empty) and the other 20 give
a Student-t interval.  Each cell (one ρ) runs two seeds, each at a two-sided
false-alarm rate of 2.5e-7, so a cell raises a false alarm with probability
at most 5e-7 (Bonferroni), and the test at most 1e-6.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.runtime.loadgen import ServiceTimeModel, simulate_load

BASE_TIME = 1.0
JITTER = 0.5
MESSAGES = 100_000
BATCHES = 21
SEEDS = (1, 2)
#: ``scipy.stats.t.ppf(1 - 2.5e-7 / 2, 19)``: the two-sided 2.5e-7 quantile
#: of Student's t with 19 degrees of freedom (20 batches).
T_QUANTILE = 7.7862336816643865


def pollaczek_khinchine_wait(arrival_rate: float) -> float:
    """Mean M/G/1 queue wait for lognormal service ``BASE_TIME · exp(JITTER · Z)``."""
    mean = BASE_TIME * math.exp(JITTER**2 / 2)
    second_moment = BASE_TIME**2 * math.exp(2 * JITTER**2)
    rho = arrival_rate * mean
    return arrival_rate * second_moment / (2 * (1 - rho))


@pytest.mark.parametrize("rho", [0.5, 0.8])
def test_mean_queue_wait_matches_pollaczek_khinchine(rho):
    arrival_rate = rho / (BASE_TIME * math.exp(JITTER**2 / 2))
    expected = pollaczek_khinchine_wait(arrival_rate)
    for seed in SEEDS:
        result = simulate_load(
            messages=MESSAGES,
            service_model=ServiceTimeModel(base_time=BASE_TIME, jitter=JITTER),
            seed=seed,
            arrival="poisson",
            arrival_rate=arrival_rate,
            workers=1,
        )
        assert result.delivered == MESSAGES
        waits = np.asarray(result.queue_waits)
        size = len(waits) // BATCHES
        means = waits[: size * BATCHES].reshape(BATCHES, size).mean(axis=1)[1:]
        half_width = T_QUANTILE * means.std(ddof=1) / math.sqrt(len(means))
        assert abs(means.mean() - expected) <= half_width, (
            f"rho={rho} seed={seed}: mean wait {means.mean():.4f}, "
            f"Pollaczek-Khinchine {expected:.4f} ± {half_width:.4f}"
        )
