"""Exception hierarchy for the :mod:`repro` library.

Every exception raised intentionally by the library derives from
:class:`ReproError`, so downstream users can catch a single base class.
Subsystems define narrower classes below; the protocol layer additionally
distinguishes *aborts* (expected, security-mandated protocol terminations)
from *errors* (programming or configuration mistakes).
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "QuantumError",
    "DimensionError",
    "NonUnitaryError",
    "NonPhysicalStateError",
    "CircuitError",
    "SimulationError",
    "NoiseModelError",
    "PairPositionError",
    "DeviceError",
    "ChannelError",
    "ProtocolError",
    "ProtocolAbort",
    "AuthenticationFailure",
    "SecurityCheckFailure",
    "ConfigurationError",
    "AttackError",
    "ExperimentError",
    "NetworkError",
    "TelemetryError",
]


class ReproError(Exception):
    """Base class for every exception raised by the :mod:`repro` library."""


class QuantumError(ReproError):
    """Base class for errors raised by the quantum simulation substrate."""


class DimensionError(QuantumError):
    """An array has a shape or dimension incompatible with the operation."""


class NonUnitaryError(QuantumError):
    """A matrix expected to be unitary is not unitary within tolerance."""


class NonPhysicalStateError(QuantumError):
    """A state is not normalised / not positive semi-definite / not trace one."""


class CircuitError(QuantumError):
    """Invalid circuit construction (bad qubit index, wrong arity, ...)."""


class SimulationError(QuantumError):
    """A simulator could not execute the requested circuit."""


class NoiseModelError(QuantumError):
    """Invalid noise model construction (non-CPTP channel, bad probability)."""


class PairPositionError(QuantumError):
    """A :class:`~repro.quantum.density.PairTable` holds no pair at a requested position."""


class DeviceError(ReproError):
    """Invalid device model or backend configuration."""


class ChannelError(ReproError):
    """Invalid communication channel configuration or usage."""


class ProtocolError(ReproError):
    """Programming or configuration error in the protocol layer."""


class ConfigurationError(ProtocolError):
    """A :class:`~repro.protocol.config.ProtocolConfig` value is invalid."""


class ProtocolAbort(ReproError):
    """The protocol terminated itself for a security reason.

    Aborts are *expected* outcomes (e.g. the CHSH check failed, or identity
    verification detected an impersonator).  They carry a machine-readable
    ``reason`` so experiment harnesses can tabulate abort causes.
    """

    def __init__(self, reason: str, message: str | None = None):
        self.reason = reason
        super().__init__(message or reason)


class SecurityCheckFailure(ProtocolAbort):
    """A device-independent (CHSH) security check fell below the threshold."""


class AuthenticationFailure(ProtocolAbort):
    """Identity verification of Alice or Bob failed."""


class AttackError(ReproError):
    """Invalid attack model configuration."""


class ExperimentError(ReproError):
    """An experiment harness was invoked with invalid parameters."""


class NetworkError(ReproError):
    """Invalid network topology, routing request, or scheduler configuration."""


class TelemetryError(ReproError):
    """Invalid telemetry usage (bad trace file, malformed export request)."""
