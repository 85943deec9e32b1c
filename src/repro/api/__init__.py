"""Service-level public API: one facade over every execution mode.

This package is the recommended entry point for *using* the reproduction as
a messaging system (the research surfaces — :mod:`repro.protocol`,
:mod:`repro.experiments` — remain available for studying it)::

    from repro.api import MessagingService, ServiceConfig

    service = MessagingService(ServiceConfig.noisy_nisq(seed=11))
    report = service.send(b"arbitrary payload bytes")
    assert report.success

Modules:

* :mod:`repro.api.codec` — payload ↔ bit conversions (bytes, UTF-8 text,
  raw bits);
* :mod:`repro.api.fragmentation` — framing headers, CRC-16 integrity,
  deterministic per-fragment/attempt seeds;
* :mod:`repro.api.config` — the fluent :class:`ServiceConfig` builder and
  its presets;
* :mod:`repro.api.backends` — the pluggable execution backends (local,
  batch, network);
* :mod:`repro.api.report` — the unified :class:`DeliveryReport` outcome
  type;
* :mod:`repro.api.service` — the :class:`MessagingService` facade itself.
"""

from repro.api.backends import (
    BACKENDS,
    Backend,
    BatchBackend,
    FragmentDelivery,
    FragmentJob,
    LocalBackend,
    NetworkBackend,
)
from repro.api.codec import (
    PAYLOAD_KINDS,
    bits_to_bytes,
    bits_to_text,
    bytes_to_bits,
    decode_payload,
    encode_payload,
    text_to_bits,
)
from repro.api.config import BACKEND_NAMES, ServiceConfig
from repro.api.fragmentation import (
    HEADER_BITS,
    FragmentFrame,
    ParsedFrame,
    crc16,
    fragment_payload,
    fragment_seed,
    reassemble,
)
from repro.api.report import AttemptRecord, DeliveryReport, FragmentRecord
from repro.api.service import MessagingService

__all__ = [
    "MessagingService",
    "ServiceConfig",
    "DeliveryReport",
    "FragmentRecord",
    "AttemptRecord",
    "Backend",
    "LocalBackend",
    "BatchBackend",
    "NetworkBackend",
    "BACKENDS",
    "BACKEND_NAMES",
    "FragmentJob",
    "FragmentDelivery",
    "PAYLOAD_KINDS",
    "bytes_to_bits",
    "bits_to_bytes",
    "text_to_bits",
    "bits_to_text",
    "encode_payload",
    "decode_payload",
    "HEADER_BITS",
    "FragmentFrame",
    "ParsedFrame",
    "crc16",
    "fragment_payload",
    "fragment_seed",
    "reassemble",
]
