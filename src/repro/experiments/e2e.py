"""Experiment ``e2e``: full UA-DI-QSDC sessions on ideal and noisy channels.

The paper's §II describes the protocol end to end; this experiment exercises
the complete implementation (all six steps, both security checks, both
authentications) for several independent sessions on a noiseless channel and
on the paper's η-identity-gate channel, and reports delivery and error
statistics.  It is the reproduction's sanity anchor: every other experiment
studies one slice of this pipeline.

Sessions run through the :class:`~repro.api.service.MessagingService` facade
(local backend, framing disabled, no retransmission), so the experiment also
exercises the service layer end to end; with framing off each send is exactly
one :class:`~repro.protocol.runner.UADIQSDCProtocol` session, and the raw
:class:`~repro.protocol.results.ProtocolResult` objects are collected for the
statistics below.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.api.config import ServiceConfig
from repro.api.service import MessagingService
from repro.artifacts.metrics import register_metrics
from repro.channel.quantum_channel import IdentityChainChannel, NoiselessChannel
from repro.exceptions import ExperimentError
from repro.protocol.results import ProtocolResult
from repro.utils.bits import bits_to_str, random_bits
from repro.utils.rng import as_rng

__all__ = ["EndToEndResult", "run_end_to_end"]


@dataclass
class EndToEndResult:
    """Aggregated statistics of repeated full protocol sessions."""

    message_length: int
    num_sessions: int
    ideal_results: list[ProtocolResult] = field(default_factory=list)
    noisy_results: list[ProtocolResult] = field(default_factory=list)
    eta: int = 10

    def _delivery_rate(self, results: list[ProtocolResult]) -> float:
        return sum(1 for r in results if r.message_delivered_correctly()) / len(results)

    @property
    def ideal_delivery_rate(self) -> float:
        """Fraction of ideal-channel sessions delivering the exact message."""
        return self._delivery_rate(self.ideal_results)

    @property
    def noisy_delivery_rate(self) -> float:
        """Fraction of η-channel sessions delivering the exact message."""
        return self._delivery_rate(self.noisy_results)

    @property
    def mean_chsh_round1(self) -> float:
        """Average first-round CHSH value across all sessions."""
        values = [
            r.chsh_round1.value
            for r in self.ideal_results + self.noisy_results
            if r.chsh_round1 is not None
        ]
        return float(np.mean(values))

    @property
    def mean_noisy_message_error(self) -> float:
        """Average residual message bit-error rate on the noisy channel."""
        values = [
            r.message_bit_error_rate
            for r in self.noisy_results
            if r.message_bit_error_rate is not None
        ]
        return float(np.mean(values)) if values else 0.0


def run_end_to_end(
    num_sessions: int = 5,
    message_length: int = 16,
    eta: int = 10,
    identity_pairs: int = 8,
    check_pairs: int = 128,
    seed: int = 42,
) -> EndToEndResult:
    """Run full protocol sessions on a noiseless channel and on the η-channel."""
    if num_sessions < 1:
        raise ExperimentError("num_sessions must be at least 1")
    generator = as_rng(seed)
    result = EndToEndResult(
        message_length=message_length, num_sessions=num_sessions, eta=eta
    )
    base_config = (
        ServiceConfig.paper_default()
        .with_framing(False)
        .with_retries(0)
        .with_session(identity_pairs=identity_pairs, check_pairs_per_round=check_pairs)
    )
    for channel, bucket in (
        (NoiselessChannel(), result.ideal_results),
        (IdentityChainChannel(eta=eta), result.noisy_results),
    ):
        service = MessagingService(base_config.with_channel(channel))
        for _ in range(num_sessions):
            message = bits_to_str(random_bits(message_length, rng=generator))
            report = service.send(
                message, kind="bits", seed=int(generator.integers(0, 2**31 - 1))
            )
            bucket.append(report.fragments[0].attempts[0].raw)
    return result


@register_metrics(EndToEndResult)
def e2e_artifact_metrics(result: EndToEndResult) -> dict:
    """Artifact metrics for the e2e anchor: the four aggregate statistics.

    The same quantities the golden fixture (``tests/fixtures/e2e_quick.json``)
    pins per session, here in the aggregate form every PR's artifact carries.
    """
    return {
        "ideal_delivery_rate": result.ideal_delivery_rate,
        "noisy_delivery_rate": result.noisy_delivery_rate,
        "mean_chsh_round1": result.mean_chsh_round1,
        "mean_noisy_message_error": result.mean_noisy_message_error,
    }
