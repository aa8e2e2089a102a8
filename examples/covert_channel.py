#!/usr/bin/env python3
"""Covert-channel demo: exfiltrate a message through invisible
speculation, and measure the error-rate/bit-rate tradeoff (Figure 11).

Transmits an ASCII string bit-by-bit with the D-cache (GDNPEU + QLRU
receiver) and I-cache (GIRS + Flush+Reload) PoCs, under injected noise,
then sweeps the repetition knob.

Run:  python examples/covert_channel.py
"""

from dataclasses import replace

from repro.core.attack import DCacheAttack, ICacheAttack
from repro.core.channel import evaluate_channel, format_channel_curve
from repro.core.victims import ATTACK_HIERARCHY

MESSAGE = "HI"


def to_bits(text):
    return [(ord(c) >> k) & 1 for c in text for k in range(7, -1, -1)]


def from_bits(bits):
    chars = []
    for i in range(0, len(bits) - 7, 8):
        value = 0
        for bit in bits[i : i + 8]:
            value = (value << 1) | (bit if bit is not None else 0)
        chars.append(chr(value))
    return "".join(chars)


def transmit(attack, label, repetitions=3):
    bits = to_bits(MESSAGE)
    received = [
        attack.send_bit_with_retries(bit, repetitions).received for bit in bits
    ]
    errors = sum(1 for s, r in zip(bits, received, strict=False) if s != r)
    print(f"  [{label}] sent     : {MESSAGE!r} = {bits}")
    print(f"  [{label}] received : {from_bits(received)!r} = {received}")
    print(f"  [{label}] bit errors: {errors}/{len(bits)}\n")


def sweep(attack, label):
    points = evaluate_channel(attack, num_bits=16, repetitions=(1, 2, 3, 5), seed=3)
    print(format_channel_curve(points, f"{label}: error vs bit rate"))
    print()


def steal_aes_key():
    from repro.core.exfiltrate import exfiltrate_key

    print("=" * 72)
    print("AES-128 key exfiltration (paper: <0.3 s at 80% accuracy)")
    print("=" * 72)
    attack = ICacheAttack("invisispec-spectre")
    report = exfiltrate_key(attack, repetitions=1)
    print(f"  key sent:     {report.sent.hex()}")
    print(f"  key received: {report.received.hex()}")
    print(f"  {report.summary()}\n")


def main():
    hier = replace(ATTACK_HIERARCHY, dram_jitter=10)
    steal_aes_key()
    print("=" * 72)
    print("Covert channels through Delay-on-Miss (noise + jitter active)")
    print("=" * 72)
    transmit(
        DCacheAttack("dom-nontso", hierarchy_config=hier, noise_rate=0.0005, seed=1),
        "D-cache",
    )
    transmit(
        ICacheAttack("dom-nontso", hierarchy_config=hier, noise_rate=0.05, seed=1),
        "I-cache",
    )
    print("=" * 72)
    print("Figure 11 style sweeps")
    print("=" * 72)
    sweep(
        DCacheAttack("dom-nontso", hierarchy_config=hier, noise_rate=0.001, seed=2),
        "D-cache PoC",
    )
    sweep(
        ICacheAttack("dom-nontso", hierarchy_config=hier, noise_rate=0.1, seed=2),
        "I-cache PoC",
    )


if __name__ == "__main__":
    main()
