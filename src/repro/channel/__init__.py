"""Communication channels: the η-identity-gate quantum channel and the classical channel.

The paper models the quantum channel between Alice and Bob as a chain of
``η`` identity gates executed on the device (each 60 ns long with error
probability ``2.41e-4`` on ``ibm_brisbane``) and the classical channel as an
authenticated public channel.  This subpackage implements both, plus a
fibre-loss channel as an extension for channel-length studies expressed in
kilometres rather than gate counts.  Alice's quantum memory (ideal in the
paper, optionally decohering) is the protocol runner's hold step; see
:attr:`~repro.protocol.config.ProtocolConfig.memory_decoherence`.
"""

from repro.channel.classical_channel import Announcement, ClassicalChannel
from repro.channel.quantum_channel import (
    FiberLossChannel,
    IdentityChainChannel,
    NoiselessChannel,
    QuantumChannel,
)

__all__ = [
    "Announcement",
    "ClassicalChannel",
    "FiberLossChannel",
    "IdentityChainChannel",
    "NoiselessChannel",
    "QuantumChannel",
]
