"""FastMap's pivot draws against numpy.random, which they copy bit for bit.

Every FZG1 model's pivots, and so its bytes, rest on these draws; the
embedding tests compare against ``oracles.reference_fastmap``, which
still draws through numpy.random.
"""

import numpy as np
import pytest

from fuzzmap._pcg import _pcg64, draw_below, seed_words

# one-word seeds, and seeds of two, three and five 32-bit words
SEEDS = [*range(600), 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1, 2**64, 2**70 + 3, 2**128 + 7]
# 32-bit Lemire draws up to n = 2**32, 64-bit ones above; 2**31 + 11 rejects about half its words
BOUNDS = [1, 2, 5, 20_000, 2**16 + 1, 2**31 + 11, 2**32 - 1, 2**32, 2**32 + 1,
          3 * 2**40 + 17, 2**62 + 5, 2**63]


@pytest.mark.parametrize("count", [1, 8, 16, 33])
def test_seed_words_are_the_seed_sequence_state(count):
    for seed in SEEDS:
        expected = np.random.SeedSequence(seed).generate_state(count).tolist()
        assert seed_words(seed, count) == expected, seed


@pytest.mark.parametrize("n", BOUNDS)
def test_draw_below_is_the_generator_integer(n):
    for seed in SEEDS:
        assert draw_below(seed, n) == int(np.random.default_rng(seed).integers(n)), seed


def test_pcg64_outputs_are_the_bit_generator_stream():
    for seed in SEEDS[:50] + SEEDS[-7:]:
        words = _pcg64(seed)
        expected = np.random.PCG64(seed).random_raw(3).tolist()
        assert [next(words) for _ in range(3)] == expected, seed


def test_the_rejection_loop_runs_for_about_half_the_seeds():
    # Lemire's draw rejects a first 32-bit word (the low half of PCG64's first
    # output) whose scaled low bits fall below (2**32 - n) % n
    n = 2**31 + 11
    threshold = (2**32 - n) % n
    rejected = sum((next(_pcg64(seed)) & 0xFFFFFFFF) * n % 2**32 < threshold for seed in range(300))
    assert 100 < rejected < 200
