"""Protocol transcript: classical announcements plus phase-by-phase reports.

Everything Alice and Bob say over the public classical channel, and the
outcome of every protocol phase, passes through a :class:`ProtocolTranscript`
for one session.  Its phase reports become the
:class:`~repro.protocol.results.ProtocolResult`'s ``phases`` audit trail
(:meth:`~repro.protocol.results.ProtocolResult.phase` looks one up); its
announcements are heard only by taps on the underlying
:class:`~repro.channel.classical_channel.ClassicalChannel`, which is how
attack models listen — the information-leakage analysis (§III-E) is such a
tap, showing that no message information crosses the classical channel.
"""

from __future__ import annotations

from typing import Any

from repro.channel.classical_channel import ClassicalChannel
from repro.protocol.results import PhaseReport
from repro.telemetry import runtime as telemetry

__all__ = ["ProtocolTranscript"]


class ProtocolTranscript:
    """One session's classical announcements and ordered phase outcomes.

    When a telemetry session is active, every :meth:`record_phase` call also
    emits a ``phase.<name>`` span covering the work since the previous phase
    boundary (phase reports are written at the *end* of each phase, so the
    inter-call gap *is* the phase).  :class:`PhaseReport` and
    :class:`~repro.protocol.results.ProtocolResult` are unchanged — spans are
    a parallel, optional record.
    """

    def __init__(self, classical_channel: ClassicalChannel | None = None):
        self.classical_channel = classical_channel or ClassicalChannel()
        self.phases: list[PhaseReport] = []
        self._phase_mark = telemetry.clock_mark()

    # -- classical announcements -----------------------------------------------------
    def announce(self, sender: str, topic: str, payload: Any) -> None:
        """Broadcast an announcement to the public channel's taps."""
        self.classical_channel.broadcast(sender, topic, payload)

    # -- phase reports ------------------------------------------------------------------
    def record_phase(self, name: str, passed: bool, **details: Any) -> PhaseReport:
        """Append a phase report (and, under telemetry, a ``phase.*`` span)."""
        report = PhaseReport(name=name, passed=passed, details=details)
        self.phases.append(report)
        if telemetry.enabled():
            mark = self._phase_mark
            self._phase_mark = telemetry.clock_mark()
            telemetry.record_span(
                f"phase.{name}",
                "phase",
                start=mark if mark is not None else self._phase_mark,
                end=self._phase_mark,
                attributes={"passed": passed},
            )
        return report

    def __repr__(self) -> str:
        return f"ProtocolTranscript(phases={[p.name for p in self.phases]})"
