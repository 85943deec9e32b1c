"""The UA-DI-QSDC protocol: the paper's primary contribution.

Public API::

    from repro.protocol import ProtocolConfig, UADIQSDCProtocol

    config = ProtocolConfig.default(message_length=16, seed=7)
    result = UADIQSDCProtocol(config).run("1011001110001111")
    assert result.success
    assert result.delivered_message_string == "1011001110001111"

The subpackage is organised by protocol concern:

* :mod:`repro.protocol.identity` — pre-shared ``2l``-bit identities;
* :mod:`repro.protocol.encoding` — dense-coding tables, cover operations and
  the check-bit message pipeline;
* :mod:`repro.protocol.chsh` — the two DI security-check rounds;
* :mod:`repro.protocol.pairs` — role assignment of the ``N + 2l + 2d`` pairs;
* :mod:`repro.protocol.source` — the (untrusted) entanglement source;
* :mod:`repro.protocol.parties` — Alice and Bob;
* :mod:`repro.protocol.config` / :mod:`repro.protocol.results` /
  :mod:`repro.protocol.transcript` — session configuration and outcomes;
* :mod:`repro.protocol.runner` — the end-to-end orchestration.
"""

from repro.protocol.chsh import CHSHEstimate, CHSHSettings, DISecurityCheck
from repro.protocol.config import ProtocolConfig, SessionParameters
from repro.protocol.efficiency import ResourceAccount, account_for_config
from repro.protocol.encoding import (
    BELL_STATE_TO_BITS,
    BITS_TO_BELL_STATE,
    BITS_TO_PAULI,
    EncodedMessage,
    MessageEncoder,
    PAULI_TO_BITS,
    decode_bell_state_to_bits,
    encode_bits_to_pauli,
    expected_bell_state,
    random_cover_operations,
)
from repro.protocol.identity import Identity
from repro.protocol.pairs import EPRPairRegister, PairRole
from repro.protocol.parties import Alice, Bob
from repro.protocol.results import AbortReason, PhaseReport, ProtocolResult
from repro.protocol.runner import UADIQSDCProtocol
from repro.protocol.source import EntanglementSource
from repro.protocol.transcript import ProtocolTranscript

__all__ = [
    "CHSHEstimate",
    "CHSHSettings",
    "DISecurityCheck",
    "ProtocolConfig",
    "SessionParameters",
    "ResourceAccount",
    "account_for_config",
    "BELL_STATE_TO_BITS",
    "BITS_TO_BELL_STATE",
    "BITS_TO_PAULI",
    "EncodedMessage",
    "MessageEncoder",
    "PAULI_TO_BITS",
    "decode_bell_state_to_bits",
    "encode_bits_to_pauli",
    "expected_bell_state",
    "random_cover_operations",
    "Identity",
    "EPRPairRegister",
    "PairRole",
    "Alice",
    "Bob",
    "AbortReason",
    "PhaseReport",
    "ProtocolResult",
    "UADIQSDCProtocol",
    "EntanglementSource",
    "ProtocolTranscript",
]
