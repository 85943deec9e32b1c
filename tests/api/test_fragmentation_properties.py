"""Property-based tests (Hypothesis) for framing, CRC and seed derivation.

The key guarantee pinned here: **any** single-bit flip anywhere in a framed
fragment — header or payload — is detected by
:meth:`ParsedFrame.matches`.  CRC-16 detects every single-bit payload error
by construction, and a header flip breaks the field the receiver checks.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.api.fragmentation import (
    HEADER_BITS,
    FragmentFrame,
    ParsedFrame,
    crc16,
    fragment_payload,
    fragment_seed,
    reassemble,
)

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)

payloads = st.lists(st.integers(0, 1), min_size=1, max_size=200).map(tuple)
fragment_sizes = st.integers(min_value=1, max_value=64)


class TestFragmentationRoundTrip:
    @SETTINGS
    @given(payloads, fragment_sizes)
    def test_fragment_parse_reassemble_identity(self, payload, fragment_bits):
        frames = fragment_payload(payload, fragment_bits)
        parsed = {}
        for index, frame in enumerate(frames):
            received = ParsedFrame.parse(frame.to_bits())
            assert received.matches(index, len(frames))
            parsed[index] = received.payload
        assert reassemble(parsed, len(frames)) == payload

    @SETTINGS
    @given(payloads, fragment_sizes)
    def test_header_invariants(self, payload, fragment_bits):
        frames = fragment_payload(payload, fragment_bits)
        expected_total = -(-len(payload) // fragment_bits)
        assert len(frames) == expected_total
        for index, frame in enumerate(frames):
            assert frame.index == index
            assert frame.total == expected_total
            assert 1 <= len(frame.payload) <= fragment_bits
            wire = frame.to_bits()
            assert len(wire) == HEADER_BITS + len(frame.payload)
        # Every payload bit appears exactly once, in order.
        concatenated = tuple(bit for frame in frames for bit in frame.payload)
        assert concatenated == payload

    @SETTINGS
    @given(payloads)
    def test_single_fragment_when_size_suffices(self, payload):
        frames = fragment_payload(payload, len(payload))
        assert len(frames) == 1
        assert frames[0].payload == payload


class TestCorruptionDetection:
    @SETTINGS
    @given(
        payloads,
        st.data(),
    )
    def test_any_single_bit_flip_is_detected(self, payload, data):
        frame = FragmentFrame(index=0, total=1, payload=payload)
        wire = list(frame.to_bits())
        position = data.draw(st.integers(0, len(wire) - 1))
        wire[position] ^= 1
        corrupted = ParsedFrame.parse(tuple(wire))
        assert not corrupted.matches(0, 1), (
            f"flip at bit {position} went undetected"
        )

    @SETTINGS
    @given(payloads)
    def test_intact_frame_matches(self, payload):
        frame = FragmentFrame(index=0, total=1, payload=payload)
        assert ParsedFrame.parse(frame.to_bits()).matches(0, 1)

    @SETTINGS
    @given(payloads)
    def test_crc_is_deterministic_and_16_bit(self, payload):
        value = crc16(payload)
        assert 0 <= value < 2**16
        assert crc16(payload) == value


class TestSeedDerivation:
    @SETTINGS
    @given(st.integers(0, 2**62), st.integers(0, 1000), st.integers(0, 10))
    def test_fragment_seed_deterministic(self, base, index, attempt):
        assert fragment_seed(base, index, attempt) == fragment_seed(
            base, index, attempt
        )
        assert 0 <= fragment_seed(base, index, attempt) < 2**63 - 1

    @SETTINGS
    @given(st.integers(0, 2**62), st.integers(0, 1000))
    def test_attempts_draw_distinct_seeds(self, base, index):
        seeds = {fragment_seed(base, index, attempt) for attempt in range(4)}
        assert len(seeds) == 4
