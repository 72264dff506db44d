"""numpy's seeded byte stream, reproduced bit for bit without numpy.

`Pcg64(seed)` is `np.random.default_rng(seed)` for an int seed >= 0, and
its `integers(k, size)` returns the bytes of
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

The last two steps, `Draws`, read any source of 64-bit draws, and
`Pcg64` is the one that makes its own. `evolve` and the copier's
`run_copy` feed `Draws` numpy's own `PCG64` words; one `bytes.translate`
per piece takes about half the time of `Generator.integers` on evolve's
128 KiB pieces, and about as long on the copier's 4 KiB chunks.
`Draws` serves ranges of 2 to 256 values with one piece loop,
`uint8_pieces`: evolve counts the pieces of its alphabet's range (6 to
47) as they come, and `integers`, through which the copier draws its
kinds and cases (6 and 4), joins them. A Python-int step of `Pcg64`
costs about half a microsecond, against about 2 ns in numpy, so it pays
where importing numpy would cost more than the draws: in a CLI `copy` of
a short tape, through `seeded_copy`.
`tests/test_pcg64.py` checks both against numpy.
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


# 32-bit draws per piece: at 128 KiB, `bytes.translate` ran 1.6x faster per
# byte than at 512 KiB, whose words and draws spill out of cache
_PIECE = 1 << 15


class Draws:
    """numpy's 32-bit and uint8 draws over `raw(n)`, the next `n` 64-bit
    draws of a bit generator as little-endian bytes: numpy's native-order
    `random_raw` words, cast to `<u8` on any host; `has_uint32` and
    `uinteger` are numpy's state fields."""

    has_uint32 = uinteger = 0

    def __init__(self, random_raw):
        self.raw = lambda n: random_raw(n).astype("<u8", copy=False)

    def _uint32_bytes(self, n: int) -> bytes:
        """The next `n` 32-bit draws, as little-endian bytes."""
        head = b""
        if n and self.has_uint32:
            head = self.uinteger.to_bytes(4, "little")
            self.has_uint32 = 0
            n -= 1
        # a 64-bit draw's little-endian bytes are its low 32-bit draw, then its high one
        out = bytes(self.raw(n + 1 >> 1))
        if out:  # numpy keeps the high half after handing it out
            self.uinteger = int.from_bytes(out[-4:], "little")
        if n & 1:
            self.has_uint32 = 1
            out = out[:-4]
        return head + out

    def uint8_pieces(self, k: int, size: int):
        """The bytes of `integers(0, k, size=size, dtype=np.uint8)` for
        2 <= k <= 256, in pieces of at most `_PIECE` 32-bit draws each:
        fewer bytes where some were rejected."""
        scale, rejected = _lemire(k)
        while size > 0:
            # each 32-bit draw yields at most four bytes, so this many can
            # overshoot only inside the last one, whose rest numpy drops too
            out = self._uint32_bytes(min(_PIECE, -(-size // 4))).translate(scale, rejected)[:size]
            size -= len(out)
            yield out

    def integers(self, k: int, size: int) -> bytes:
        """`integers(0, k, size=size, dtype=np.uint8)` for 2 <= k <= 256."""
        return b"".join(self.uint8_pieces(k, size))


class Pcg64(Draws):
    """numpy's `default_rng(seed)` for uint8 draws; its attributes are
    numpy's `bit_generator.state` fields."""

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError(f"seed must not be negative, got {seed}")
        s0, s1, i0, i1 = _seed_words(seed)
        self.inc = ((i0 << 64 | i1) << 1 | 1) & _M128
        self.state = ((self.inc + (s0 << 64 | s1)) * _MULTIPLIER + self.inc) & _M128

    def raw(self, n: int) -> bytes:
        """The next `n` 64-bit draws: each steps the LCG and outputs XSL-RR."""
        state, inc = self.state, self.inc
        draws = [0] * n
        for i in range(n):
            state = (state * _MULTIPLIER + inc) & _M128
            draws[i] = ((state >> 64 ^ state) & _M64) * _DOUBLED >> (state >> 122) & _M64
        self.state = state
        return struct.pack(f"<{n}Q", *draws)
