"""numpy's seeded byte stream, reproduced bit for bit without numpy.

`Pcg64(seed)` is `np.random.default_rng(seed)` for an int seed >= 0, and
`Pcg64.integers(k, size)` returns the bytes of
`integers(0, k, size=size, dtype=np.uint8)`, leaving the bit generator
where numpy leaves it. It takes numpy's four steps on Python ints:

- `SeedSequence` hashes the seed's 32-bit words, least significant
  first, into a pool of four words and draws four 64-bit words from it;
- `PCG64` seeds its 128-bit state and increment from those, and each
  64-bit draw steps the LCG and outputs XSL-RR of the new state;
- a 32-bit draw is the low half of a fresh 64-bit draw, whose upper
  half is kept (`has_uint32`, `uinteger`) and returned by the next one;
- a uint8 draw takes the next byte of a 32-bit buffer, low byte first,
  scales it by Lemire's method and rejects the few low remainders that
  would bias it. The buffer starts empty at every `integers` call.

A 64-bit step costs about half a microsecond in Python ints, against
about 2 ns in numpy, so this pays where importing numpy would cost more
than the draws: in a CLI `copy` of a short tape. `tests/test_pcg64.py`
checks the bytes and the state against the installed numpy.
"""

from __future__ import annotations

import functools
import struct

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's 128-bit LCG multiplier
_DOUBLED = 1 << 64 | 1  # x * _DOUBLED is x beside itself, so a shift rotates x


def _seed_words(seed: int) -> list[int]:
    """`SeedSequence(seed).generate_state(4, np.uint64)`, as ints."""
    entropy = [seed & _M32]
    while seed := seed >> 32:
        entropy.append(seed & _M32)
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = 0x8B51F9DD
    halves = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _M32
        value = value * hash_const & _M32
        halves.append(value ^ value >> 16)
    return [halves[i] | halves[i + 1] << 32 for i in range(0, 8, 2)]


@functools.cache
def _lemire(k: int) -> tuple[bytes, bytes]:
    """For 2 <= k <= 256: the draw each buffered byte scales to, and the
    bytes rejected, whose scaled remainder falls below 256 mod k."""
    return (
        bytes(b * k >> 8 for b in range(256)),
        bytes(b for b in range(256) if b * k & 0xFF < 256 % k),
    )


class Pcg64:
    """numpy's `default_rng(seed)` for uint8 draws; its attributes are
    numpy's `bit_generator.state` fields."""

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError(f"seed must not be negative, got {seed}")
        s0, s1, i0, i1 = _seed_words(seed)
        self.inc = ((i0 << 64 | i1) << 1 | 1) & _M128
        self.state = ((self.inc + (s0 << 64 | s1)) * _MULTIPLIER + self.inc) & _M128
        self.has_uint32 = 0
        self.uinteger = 0

    def _uint32_bytes(self, n: int) -> bytes:
        """The next `n` 32-bit draws, as little-endian bytes."""
        head = b""
        if n and self.has_uint32:
            head = self.uinteger.to_bytes(4, "little")
            self.has_uint32 = 0
            n -= 1
        steps = n + 1 >> 1
        state, inc = self.state, self.inc
        draws = [0] * steps
        for i in range(steps):
            state = (state * _MULTIPLIER + inc) & _M128
            draws[i] = ((state >> 64 ^ state) & _M64) * _DOUBLED >> (state >> 122) & _M64
        self.state = state
        # a 64-bit draw's little-endian bytes are its low 32-bit draw, then its high one
        out = struct.pack(f"<{steps}Q", *draws)
        if steps:
            self.uinteger = draws[-1] >> 32  # numpy keeps it after handing it out
        if n & 1:
            self.has_uint32 = 1
            out = out[:-4]
        return head + out

    def integers(self, k: int, size: int) -> bytes:
        """`integers(0, k, size=size, dtype=np.uint8)` for 1 <= k <= 256."""
        if k == 1:  # numpy draws nothing for a range of one value
            return bytes(size)
        scale, rejected = _lemire(k)
        out = b""
        while len(out) < size:
            # each 32-bit draw yields at most four bytes, so this many can
            # overshoot only inside the last one, whose rest numpy drops too
            out += self._uint32_bytes(-((len(out) - size) // 4)).translate(scale, rejected)
        return out[:size]
