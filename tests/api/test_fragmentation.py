"""Fragmentation tests: framing, CRC integrity, boundary lengths, seeds."""

from __future__ import annotations

import pytest

from repro.api.fragmentation import (
    HEADER_BITS,
    MAX_FRAGMENT_BITS,
    FragmentFrame,
    ParsedFrame,
    crc16,
    fragment_payload,
    fragment_seed,
    reassemble,
)
from repro.exceptions import ReproError
from repro.utils.bits import random_bits


class TestCrc16:
    def test_deterministic(self):
        bits = random_bits(100, rng=1)
        assert crc16(bits) == crc16(bits)

    def test_detects_single_bit_flips(self):
        bits = random_bits(64, rng=2)
        reference = crc16(bits)
        for position in range(len(bits)):
            flipped = tuple(
                b ^ 1 if i == position else b for i, b in enumerate(bits)
            )
            assert crc16(flipped) != reference

    def test_sixteen_bit_range(self):
        for seed in range(8):
            assert 0 <= crc16(random_bits(40, rng=seed)) < 2**16


class TestFraming:
    def test_frame_layout(self):
        frame = FragmentFrame(index=3, total=5, payload=(1, 0, 1, 1))
        wire = frame.to_bits()
        assert len(wire) == HEADER_BITS + 4
        parsed = ParsedFrame.parse(wire)
        assert (parsed.index, parsed.total, parsed.length) == (3, 5, 4)
        assert parsed.payload == (1, 0, 1, 1)
        assert parsed.intact and parsed.matches(3, 5)

    def test_corrupted_payload_not_intact(self):
        wire = FragmentFrame(index=0, total=1, payload=random_bits(32, rng=3)).to_bits()
        for position in range(len(wire)):
            corrupted = tuple(
                b ^ 1 if i == position else b for i, b in enumerate(wire)
            )
            assert not ParsedFrame.parse(corrupted).matches(0, 1)

    def test_wrong_expected_index_rejected(self):
        wire = FragmentFrame(index=1, total=4, payload=(1, 1)).to_bits()
        parsed = ParsedFrame.parse(wire)
        assert parsed.intact
        assert not parsed.matches(2, 4)

    def test_too_short_frame_raises(self):
        with pytest.raises(ReproError):
            ParsedFrame.parse((0, 1) * 32)  # header only, no payload

    def test_invalid_construction(self):
        with pytest.raises(ReproError):
            FragmentFrame(index=2, total=2, payload=(1,))
        with pytest.raises(ReproError):
            FragmentFrame(index=0, total=1, payload=())


class TestFragmentReassemble:
    @pytest.mark.parametrize(
        "length",
        [1, 15, 16, 17, 31, 32, 33, 64, 100],
        ids=lambda n: f"len{n}",
    )
    def test_identity_around_fragment_boundaries(self, length):
        payload = random_bits(length, rng=length)
        frames = fragment_payload(payload, fragment_bits=16)
        assert len(frames) == (length + 15) // 16
        assert all(frame.total == len(frames) for frame in frames)
        # Simulate perfect delivery: parse each wire frame, then reassemble.
        payloads = {}
        for frame in frames:
            parsed = ParsedFrame.parse(frame.to_bits())
            assert parsed.matches(frame.index, len(frames))
            payloads[parsed.index] = parsed.payload
        assert reassemble(payloads, len(frames)) == payload

    def test_last_fragment_carries_remainder(self):
        frames = fragment_payload(random_bits(20, rng=9), fragment_bits=16)
        assert [len(f.payload) for f in frames] == [16, 4]

    def test_missing_fragment_rejected(self):
        with pytest.raises(ReproError):
            reassemble({0: (1,)}, total=2)

    def test_bad_fragment_bits_rejected(self):
        payload = random_bits(8, rng=1)
        with pytest.raises(ReproError):
            fragment_payload(payload, fragment_bits=0)
        with pytest.raises(ReproError):
            fragment_payload(payload, fragment_bits=MAX_FRAGMENT_BITS + 1)
        with pytest.raises(ReproError):
            fragment_payload((), fragment_bits=8)


class TestSeeds:
    def test_fragment_seed_deterministic(self):
        assert fragment_seed(7, 3, 1) == fragment_seed(7, 3, 1)

    def test_fragment_seed_pinned(self):
        """Retransmission seeds of existing deliveries may never move."""
        assert fragment_seed(7, 3, 1) == 8148816918431923840

    def test_fragment_seed_separates_coordinates(self):
        seeds = {
            fragment_seed(base, index, attempt)
            for base in (0, 1)
            for index in range(4)
            for attempt in range(3)
        }
        assert len(seeds) == 2 * 4 * 3  # no collisions across any coordinate
