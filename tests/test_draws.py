"""Exact fast draws: the raw-word decoder must give rng.integers' values over
power-of-two ranges and leave the generator in the same state, and the
screened click sampler must give rng.random(n) < table[index] exactly."""

import numpy as np
import pytest

from ctqkd.light import BLOCK, pair_table
from ctqkd.protocol import click_events, fair_bits, sample_blocked, top_bits, uint32_words

SIZES = [2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]
COUNTS = list(range(18)) + SIZES
BUFFERED = [np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64]


def _pair(bit_gen, seed, pending):
    """Two generators in one state; with pending, each holds an unused upper
    half-word, left by one 32-bit draw."""
    rngs = [np.random.Generator(bit_gen(seed)) for _ in range(2)]
    if pending:
        for rng in rngs:
            rng.integers(0, 2**32, dtype=np.uint32)
        assert rngs[0].bit_generator.state["has_uint32"] == 1
    return rngs


def _same_state(a, b) -> bool:
    """Bit-generator states equal; Philox and SFC64 keep arrays in theirs."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


def _assert_same_draws(got, want, rng, ref):
    assert np.array_equal(got, want)
    assert _same_state(rng.bit_generator.state, ref.bit_generator.state)


@pytest.mark.parametrize("bit_gen", BUFFERED)
@pytest.mark.parametrize("pending", [False, True])
def test_uint32_words_are_next_uint32_draw_for_draw(bit_gen, pending):
    # rng.integers over the full 32-bit range returns next_uint32 itself.
    # The state compared includes the stale upper half numpy leaves behind.
    rng, ref = _pair(bit_gen, 11, pending)
    for k in COUNTS:
        words = uint32_words(rng, k)
        assert words.size == k and words.dtype == np.uint32
        _assert_same_draws(words, ref.integers(0, 2**32, k, dtype=np.uint32), rng, ref)


@pytest.mark.parametrize("bit_gen", BUFFERED)
@pytest.mark.parametrize("pending", [False, True])
def test_fair_bits_equal_uint8_integers(bit_gen, pending):
    rng, ref = _pair(bit_gen, 12, pending)
    for n in COUNTS:
        bits = fair_bits(n, rng)
        assert bits.shape == (n,) and bits.dtype == np.uint8
        _assert_same_draws(bits, ref.integers(0, 2, n, dtype=np.uint8), rng, ref)


@pytest.mark.parametrize("bit_gen", BUFFERED)
@pytest.mark.parametrize("pending", [False, True])
@pytest.mark.parametrize("bits", [1, 2, 3, 8])
def test_top_bits_equal_int64_integers(bit_gen, pending, bits):
    # bits 1 and 2 are the basis and coin draws and Bob's quarters.
    rng, ref = _pair(bit_gen, 13, pending)
    for n in COUNTS:
        got = top_bits(n, bits, rng)
        assert got.shape == (n,) and got.dtype == np.uint8
        _assert_same_draws(got, ref.integers(0, 2**bits, n), rng, ref)


def test_generator_without_a_half_word_buffer_raises():
    rng = np.random.Generator(np.random.MT19937(1))
    for draw in (lambda: uint32_words(rng, 3), lambda: fair_bits(3, rng), lambda: top_bits(3, 2, rng)):
        with pytest.raises(TypeError, match="MT19937"):
            draw()


def _tables(n, rng):
    """(name, table, index): probabilities 0 and 1 among others, a constant
    table, two entries (gather's bitwise select), one entry per element from
    pair_table, and entries equal to some of the uniforms the sampler draws
    (seed 5), so that u == p hits at the table's least, largest and a middle
    value."""
    u = np.random.default_rng(5).random(n)
    hit = [0, n // 2, n - 1]
    ties = np.sort(u[hit])
    tie_index = rng.integers(0, 3, n).astype(np.uint8)
    tie_index[hit] = np.searchsorted(ties, u[hit])
    col = rng.integers(0, n, n).astype(np.uint32)
    return [
        ("zero-one", np.array([0.0, 0.3, 1.0, 0.7]), rng.integers(0, 4, n).astype(np.uint8)),
        ("constant", np.full(3, 0.4), rng.integers(0, 3, n).astype(np.uint8)),
        ("two", np.array([0.6, 0.05]), rng.integers(0, 2, n).astype(np.uint8)),
        ("per-pair", rng.uniform(0.0, 0.3, n), pair_table(n, col, n, col)[2]),
        ("ties", ties, tie_index),
    ]


@pytest.mark.parametrize("n", [1, 7] + SIZES)
def test_screened_clicks_equal_the_dense_comparison(n):
    for name, table, index in _tables(n, np.random.default_rng(n)):
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        _assert_same_draws(sample_blocked(n, table, index, rng), ref.random(n) < table[index], rng, ref)
        if name == "per-pair":
            assert np.array_equal(index, np.arange(n))


@pytest.mark.parametrize("pairs", [8 * 2 + r for r in range(1, 8)] + [8 * 100 + 5])
def test_click_event_law_on_packed_rows(pairs):
    # Every one of the 16 click patterns over the four detectors, then random
    # ones.  pairs is never a multiple of 8, so the last byte of each packed
    # row is padded with zero bits, which must read as no event.
    pattern = np.random.default_rng(pairs).integers(0, 16, pairs)
    pattern[:16] = np.arange(16)
    rows = [((pattern >> d) & 1).astype(np.uint8) for d in range(4)]
    dense = click_events(*rows)
    packed = click_events(*(np.packbits(row) for row in rows))
    for key in ("single", "double", "basis_q", "port"):
        assert packed[key].dtype == np.uint8
        assert packed[key].tobytes() == np.packbits(dense[key]).tobytes(), key
