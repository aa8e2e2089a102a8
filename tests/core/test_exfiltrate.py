"""Tests for message exfiltration over the PoC channels."""

from repro.core.attack import ICacheAttack
from repro.core.exfiltrate import (
    ExfiltrationReport,
    bits_to_bytes,
    bytes_to_bits,
    exfiltrate,
    exfiltrate_key,
)


class TestBitPacking:
    def test_round_trip(self):
        payload = bytes([0x00, 0xFF, 0xA5, 0x3C])
        assert bits_to_bytes(bytes_to_bits(payload)) == payload

    def test_msb_first(self):
        assert bytes_to_bits(b"\x80")[0] == 1
        assert bytes_to_bits(b"\x01")[-1] == 1

    def test_none_bits_become_zero(self):
        assert bits_to_bytes([None] * 8) == b"\x00"

    def test_partial_trailing_bits_dropped(self):
        assert bits_to_bytes([1] * 10) == b"\xff"


class TestExfiltration:
    def test_clean_channel_transfers_exactly(self):
        attack = ICacheAttack("dom-nontso")
        report = exfiltrate(attack, b"K!", repetitions=1)
        assert report.received == b"K!"
        assert report.bit_errors == 0
        assert report.bit_accuracy == 1.0
        assert report.byte_accuracy == 1.0
        assert report.total_cycles > 0

    def test_aes_key_through_invisible_speculation(self):
        """The paper's headline: an AES-128 key crosses an
        invisible-speculation machine (0.3 s at 80% accuracy on their
        hardware; error-free and faster here, noiseless)."""
        attack = ICacheAttack("invisispec-spectre")
        report = exfiltrate_key(attack, repetitions=1)
        assert len(report.sent) == 16
        assert report.byte_accuracy == 1.0
        assert report.seconds_at(3.6e9) < 0.3

    def test_blocked_channel_garbles(self):
        attack = ICacheAttack("fence-spectre")
        report = exfiltrate(attack, bytes([0b10101010]), repetitions=1)
        assert report.bit_errors > 0
        assert report.received != report.sent

    def test_summary_mentions_accuracy(self):
        report = ExfiltrationReport(
            sent=b"ab", received=b"ab", repetitions=2,
            total_cycles=10_000, bit_errors=0,
        )
        text = report.summary()
        assert "100.0%" in text
        assert "reps=2" in text

    def test_cycles_per_bit(self):
        report = ExfiltrationReport(
            sent=b"a", received=b"a", repetitions=1,
            total_cycles=800, bit_errors=0,
        )
        assert report.cycles_per_bit == 100.0
