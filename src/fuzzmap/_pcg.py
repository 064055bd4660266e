"""FastMap's pivot draws, bit for bit numpy's, without importing numpy.random.

``seed_words(seed, count)`` equals ``numpy.random.SeedSequence(seed).
generate_state(count)`` and ``draw_below(seed, n)`` equals
``int(numpy.random.default_rng(seed).integers(n))``. They copy numpy's
SeedSequence hash (a pool of 4 words, no spawn key), its PCG64 bit
generator (O'Neill 2014: a 128-bit LCG with the XSL-RR output) and its
bounded draw (Lemire 2019, rejection loop included). NEP 19 keeps
SeedSequence and bit-generator streams stable, so a model's bytes follow
those streams and not how ``Generator.integers`` is written; and a
compress never imports numpy.random, ~6 MB of resident memory and ~15 ms
for eight draws. ``tests/test_pcg.py`` checks both against numpy.
"""

from __future__ import annotations

from typing import Iterator

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # the entropy hash
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # the output hash
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _pool(seed: int) -> list[int]:
    """SeedSequence(seed).pool: the seed's little-endian 32-bit words (0 is
    one word) hashed into 4 words, then each word mixed into the others."""
    words = [seed & _MASK32]
    while seed > _MASK32:
        seed >>= 32
        words.append(seed & _MASK32)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        x = (_MIX_L * x - _MIX_R * y) & _MASK32
        return x ^ x >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def seed_words(seed: int, count: int) -> list[int]:
    """``SeedSequence(seed).generate_state(count)`` as a list of ints, for an int ``seed`` >= 0."""
    pool, hash_const, words = _pool(seed), _INIT_B, []
    for i in range(count):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        words.append(value ^ value >> 16)
    return words


def _pcg64(seed: int) -> Iterator[int]:
    """The 64-bit outputs of ``PCG64(seed)``: its state and increment are
    ``generate_state(8)`` read as four little-endian u64, high half first."""
    w = seed_words(seed, 8)
    s_hi, s_lo, i_hi, i_lo = (w[j] | w[j + 1] << 32 for j in range(0, 8, 2))
    inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
    state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128  # srandom from state 0
    while True:
        state = (state * _PCG_MULT + inc) & _MASK128
        rot, x = state >> 122, ((state >> 64) ^ state) & _MASK64
        yield (x >> rot | x << (64 - rot)) & _MASK64


def draw_below(seed: int, n: int) -> int:
    """``int(default_rng(seed).integers(n))`` for ints ``seed`` >= 0 and 1 <= ``n`` <= 2**63.

    Lemire's draw takes 32-bit words when n - 1 fits in 32 bits, each
    64-bit output giving its low half first, and 64-bit words otherwise.
    """
    bits = 32 if n - 1 <= _MASK32 else 64
    words = _pcg64(seed)
    if bits == 32:
        words = (half for x in words for half in (x & _MASK32, x >> 32))
    m = next(words) * n
    low = (1 << bits) - 1
    if m & low < n:
        threshold = ((1 << bits) - n) % n
        while m & low < threshold:
            m = next(words) * n
    return m >> bits
