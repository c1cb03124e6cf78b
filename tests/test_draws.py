"""The draws by their laws.

Fair bits and Bob's quarters are the bits and 2-bit fields of raw generator
words: each value comes at its frequency and adjacent draws are independent.
A bit generator with 32-bit raw words (MT19937) is refused.
The screened click sampler gives rng.random(n) < table[index] exactly.  The
monitors draw one binomial per table entry, and the interferometers thin
candidate pairs drawn by geometric gaps; on small tables their outcome
counts at fixed seeds fall inside fixed binomial bounds, and degenerate
tables give exact results.
"""

import math

import numpy as np
import pytest

from ctqkd.attacks import _dps_phase_estimates
from ctqkd.detector import ClickStream, DetectorModel
from ctqkd.light import BLOCK, KIND_COHERENT, Coherent, FieldArray, Vacuum, pair_table
from ctqkd.protocol import (
    bob_quarters,
    candidate_blocks,
    fair_bits,
    measure_interference,
    monitor_clicks,
    pair_outcome_probs,
    port_means,
    sample_blocked,
)
from test_blocks import both_outputs, pair_click_probs

SIZES = [2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]
Z = 5.0  # half-width of every binomial bound, in standard deviations


def _within(count, n, p) -> bool:
    """count lies within Z standard deviations of Binomial(n, p)'s mean."""
    return abs(count - n * p) <= Z * math.sqrt(n * p * (1.0 - p)) + 1e-9


def _assert_uniform_and_pairwise_independent(values, levels):
    """Each of the levels values at frequency 1 / levels, and each ordered
    pair of adjacent values (non-overlapping) at 1 / levels**2."""
    n = values.size
    for v, count in enumerate(np.bincount(values, minlength=levels)):
        assert _within(count, n, 1.0 / levels), (v, count, n)
    pairs = values[0:n - 1:2].astype(np.intp) * levels + values[1:n:2]
    for v, count in enumerate(np.bincount(pairs, minlength=levels**2)):
        assert _within(count, pairs.size, 1.0 / levels**2), (v, count, pairs.size)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fair_bits_are_uniform_and_adjacent_bits_independent(seed):
    bits = fair_bits(10**5 + 3, np.random.default_rng(seed))
    assert bits.shape == (10**5 + 3,) and bits.dtype == np.uint8
    _assert_uniform_and_pairwise_independent(bits, 2)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_quarters_are_uniform_and_adjacent_quarters_independent(seed):
    quarters = bob_quarters(10**5 + 3, np.random.default_rng(seed))
    assert quarters.shape == (10**5 + 3,) and quarters.dtype == np.uint8
    _assert_uniform_and_pairwise_independent(quarters, 4)


@pytest.mark.parametrize("n", list(range(1, 70)) + SIZES)
def test_bits_and_quarters_take_whole_raw_words_in_order(n):
    # 64 bits and 32 quarters per raw output, least significant first; a
    # draw takes only the outputs it needs.
    rng, ref = np.random.default_rng(n), np.random.default_rng(n)
    words = ref.bit_generator.random_raw(-(-n // 64))
    want = (words[:, None] >> np.arange(64, dtype=np.uint64)) & 1
    assert fair_bits(n, rng).tolist() == want.ravel()[:n].tolist()
    words = ref.bit_generator.random_raw(-(-n // 32))
    want = (words[:, None] >> np.arange(0, 64, 2, dtype=np.uint64)) & 3
    assert bob_quarters(n, rng).tolist() == want.ravel()[:n].tolist()
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("draw", [
    fair_bits,
    bob_quarters,
    lambda n, rng: _dps_phase_estimates(np.zeros(n, dtype=np.uint8), rng),
])
def test_raw_word_draws_refuse_mt19937(draw):
    # MT19937's raw outputs hold 32 random bits, so the upper half of each
    # 64-bit word would read as zeros; the draw fails before taking any.
    rng = np.random.Generator(np.random.MT19937(1))
    with pytest.raises(TypeError, match="MT19937"):
        draw(100, rng)
    assert rng.bit_generator.random_raw() == np.random.MT19937(1).random_raw()


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
        assert np.array_equal(sample_blocked(table, index, rng), ref.random(n) < table[index])
        assert rng.bit_generator.state == ref.bit_generator.state
        if name == "per-pair":
            assert np.array_equal(index, np.arange(n))


# --- monitors: one binomial per table entry --------------------------------


def test_monitor_clicks_are_exact_on_degenerate_tables():
    rng = np.random.default_rng(4)
    index = rng.integers(0, 3, 1000).astype(np.uint8)
    assert monitor_clicks(np.array([0.0, 1.0, 0.0]), index, rng) == ClickStream(
        int(np.count_nonzero(index == 1)), 1000)
    assert monitor_clicks(np.array([1.0]), np.zeros(1000, dtype=np.uint8), rng) == ClickStream(1000, 1000)
    assert monitor_clicks(np.array([0.0]), np.zeros(7, dtype=np.uint8), rng) == ClickStream(0, 7)
    assert monitor_clicks(np.array([1.0, 0.0]), index.clip(0, 1), rng) == ClickStream(
        int(np.count_nonzero(index == 0)), 1000)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("size", [1, 2, 5, 300])
def test_monitor_counts_fall_within_binomial_bounds(seed, size):
    rng = np.random.default_rng(seed)
    table = rng.uniform(0.0, 1.0, size)
    index = rng.integers(0, size, 50_000).astype(np.min_scalar_type(size - 1))
    stream = monitor_clicks(table, index, rng)
    p = table[index].mean()
    assert stream.n_gates == index.size and _within(stream.clicks, index.size, p)


def _monitor_tables(rng):
    """(table, index) of 1 to 300 entries: zero-gate entries, and
    probabilities 0 and 1 among random ones."""
    out = []
    for size in (1, 2, 3, 16, 300):
        for n in (0, 1, 2, 7, 1000):
            for table in (rng.uniform(0.0, 1.0, size), np.zeros(size), np.ones(size),
                          np.resize([0.0, 1.0], size), np.resize([1.0, 0.3], size)):
                out.append((table, rng.integers(0, size, n).astype(np.min_scalar_type(size - 1))))
        out.append((rng.uniform(0.0, 1.0, size), np.full(50, size - 1, dtype=np.uint16)))  # one entry gated
    return out


@pytest.mark.parametrize("seed", [1, 2])
def test_monitor_clicks_draw_the_array_binomial(seed):
    # Scalar draws per entry give the array draw's count and leave the
    # generator where it leaves it, on a table of any size.
    for table, index in _monitor_tables(np.random.default_rng(seed)):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        want = int(ref.binomial(np.bincount(index, minlength=table.size), table).sum())
        assert monitor_clicks(table, index, rng) == ClickStream(want, index.size)
        assert rng.bit_generator.state == ref.bit_generator.state


# --- interferometers: thinning by geometric gaps ---------------------------


@pytest.mark.parametrize("q", [0.0, 1.0])
def test_candidate_blocks_take_none_or_every_trial_with_no_draw(q):
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    blocks = list(candidate_blocks(2 * BLOCK + 3, q, rng))
    got = np.concatenate(blocks) if blocks else np.empty(0, dtype=np.intp)
    assert got.tolist() == (list(range(2 * BLOCK + 3)) if q else [])
    assert all(b.size <= BLOCK for b in blocks)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("m,q", [(1, 0.5), (10, 0.3), (10**5, 0.0153), (10**5, 0.9), (3 * BLOCK, 0.999),
                                 (10**6, 1e-300)])
def test_candidates_are_bernoulli_trials(m, q):
    for seed in range(3):
        blocks = list(candidate_blocks(m, q, np.random.default_rng(seed)))
        cand = np.concatenate(blocks)
        assert all(b.size <= BLOCK for b in blocks)
        assert cand.dtype == np.intp and np.all(np.diff(cand) > 0)
        assert cand.size == 0 or 0 <= cand[0] and cand[-1] < m
        assert _within(cand.size, m, q)
        # Each half of the trials holds its share.
        assert _within(np.count_nonzero(cand < m // 2), m // 2, q)


def _random_p(k, rng):
    """Click probabilities of the four detectors over k states: state 0
    never clicks, state 1 always clicks at every detector, state 2 always
    at D0A, the rest at random."""
    p = rng.uniform(0.0, 0.6, (4, k))
    p[:, 0] = 0.0
    p[:, 1] = 1.0
    p[0, 2] = 1.0
    return p


@pytest.mark.parametrize("source", ["random", "train"])
def test_outcome_table_is_the_product_law_of_four_detectors(source):
    # The four detectors' click_prob values, at random or as
    # pair_click_probs tabulates them for a train of two coherent levels.
    if source == "random":
        p = _random_p(50, np.random.default_rng(3))
    else:
        level = np.arange(600) % 3 % 2
        out1 = FieldArray(level, np.arange(600) // 7 % 4, [KIND_COHERENT] * 2, [0.3, 2.5])
        p = pair_click_probs(out1, DetectorModel(0.4, 1e-3))[0]
    table = pair_outcome_probs(p)
    assert table.shape == (6, p.shape[1])
    miss = 1.0 - p
    assert table[0] == pytest.approx(np.prod(miss, axis=0), rel=1e-12, abs=1e-300)
    for d in range(4):
        others = np.prod(np.delete(miss, d, axis=0), axis=0)
        assert table[1 + d] == pytest.approx(p[d] * others, rel=1e-12, abs=1e-300)
    # two or more clicks: the sum over the 11 such patterns of the 16
    patterns = (np.arange(16)[:, None] >> np.arange(4)) & 1
    two_plus = sum(np.prod(np.where(bits[:, None], p, miss), axis=0)
                   for bits in patterns if bits.sum() >= 2)
    assert table[5] == pytest.approx(two_plus, rel=1e-9, abs=1e-15)
    assert np.allclose(table.sum(axis=0), 1.0, rtol=0, atol=1e-15)
    if source == "random":
        assert table[:, 0].tolist() == [1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        assert table[:, 1].tolist() == [0.0, 0.0, 0.0, 0.0, 0.0, 1.0]


def _outcome_probs_by_delete(p):
    """pair_outcome_probs written row by row with np.delete, np.prod and
    np.stack: the reference its explicit products must equal bit for bit."""
    miss = 1.0 - p
    none = np.prod(miss, axis=0)
    singles = [p[d] * np.prod(np.delete(miss, d, axis=0), axis=0) for d in range(4)]
    double = np.maximum(1.0 - none - sum(singles), 0.0)
    return np.stack([none, *singles, double])


def _port_means_by_choose(r_prev, q_prev, r_curr, q_curr):
    """port_means choosing each detector's mean with np.choose: the
    reference its one indexed table must equal bit for bit."""
    plus = np.square(r_prev + r_curr) / 8.0
    minus = np.square(r_prev - r_curr) / 8.0
    pair = np.empty((np.size(r_prev), 2))
    pair[:, 0], pair[:, 1] = r_prev, r_curr
    orth = np.square(np.abs(pair.view(np.complex128)[:, 0])) / 8.0
    means = np.empty((4, np.size(r_prev)))
    for b in (0, 1):
        turn = (q_curr - q_prev - b) & 3
        means[2 * b] = np.choose(turn, (plus, orth, minus, orth))
        means[2 * b + 1] = np.choose(turn, (minus, orth, plus, orth))
    return means


@pytest.mark.parametrize("seed", range(4))
def test_outcome_table_is_bit_equal_to_the_row_by_row_form(seed):
    rng = np.random.default_rng(seed)
    for k in (1, 16, 257, 4096):
        p = rng.uniform(0.0, 1.0, (4, k)) ** rng.uniform(0.5, 8.0)
        p[:, rng.integers(0, k, k // 4)] = 0.0  # exact 0 and 1, alone and mixed
        p[rng.integers(0, 4, k // 4), rng.integers(0, k, k // 4)] = 1.0
        p[rng.integers(0, 4, k // 8), rng.integers(0, k, k // 8)] = 0.0
        assert pair_outcome_probs(p).tobytes() == _outcome_probs_by_delete(p).tobytes()


@pytest.mark.parametrize("dtype", [np.uint8, np.int64])
def test_port_means_are_bit_equal_to_the_chosen_form(dtype):
    rng = np.random.default_rng(8)
    for m in (1, 16, 1000):
        r_prev, r_curr = rng.uniform(0.0, 3.0, (2, m)) ** 2
        r_prev[rng.integers(0, m, m // 4)] = 0.0  # columns with r = 0
        r_curr[rng.integers(0, m, m // 4)] = 0.0
        q_prev, q_curr = rng.integers(0, 4, (2, m)).astype(dtype)
        got = port_means(r_prev, q_prev, r_curr, q_curr)
        assert got.tobytes() == _port_means_by_choose(r_prev, q_prev, r_curr, q_curr).tobytes()


def _measure_counts(out1, det, seeds):
    """Over the seeds: the pairs per pair state, the single clicks per pair
    state and detector, and the doubles (counted, not located)."""
    p, index = pair_click_probs(out1, det)
    quarters = np.zeros(len(out1), dtype=np.uint8)
    pairs = np.zeros(p.shape[1], dtype=np.int64)
    singles = np.zeros((p.shape[1], 4), dtype=np.int64)
    doubles = 0
    for seed in seeds:
        meas = measure_interference(both_outputs(out1, quarters), det, np.random.default_rng(seed))
        pairs += np.bincount(index, minlength=p.shape[1])
        np.add.at(singles, (index[meas["pairs"]], meas["basis_q"] << 1 | meas["port"]), 1)
        doubles += meas["doubles"]
    return p, pairs, singles, doubles


@pytest.mark.parametrize("levels", [[0.5], [0.05, 2.0], [0.0, 0.4, 1.5]])
def test_outcome_counts_per_state_fall_within_binomial_bounds(levels):
    n = 4001
    rng = np.random.default_rng(len(levels))
    level = rng.integers(0, len(levels), n)
    out1 = FieldArray(level, rng.integers(0, 4, n), [KIND_COHERENT] * len(levels), levels)
    det = DetectorModel(0.6, 0.01)
    p, pairs, singles, doubles = _measure_counts(out1, det, range(20))
    table = pair_outcome_probs(p)
    for s in np.flatnonzero(pairs):
        for d in range(4):
            assert _within(singles[s, d], pairs[s], table[1 + d, s]), (s, d)
    assert _within(doubles, pairs.sum(), (table[5] @ pairs) / pairs.sum())


def test_interferometers_are_exact_on_degenerate_tables():
    ideal = DetectorModel(1.0, 0.0)
    quarters = np.zeros(2 * BLOCK + 3, dtype=np.uint8)
    # No light and no dark counts: no event and no draw.
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    dark = both_outputs(FieldArray.uniform(Vacuum(), quarters.size), quarters)
    meas = measure_interference(dark, ideal, rng)
    assert meas["pairs"].size == 0 and meas["doubles"] == 0
    assert meas["pairs"].dtype == np.intp and meas["basis_q"].dtype == np.uint8
    assert rng.bit_generator.state == state
    # Light bright enough that every detector clicks: every pair a double.
    bright = both_outputs(FieldArray.uniform(Coherent(100.0), quarters.size), quarters)
    meas = measure_interference(bright, ideal, rng)
    assert meas["pairs"].size == 0 and meas["doubles"] == quarters.size - 1
    # One pair state, aligned phases, no dark counts: D1A, the dark port
    # of basis A, never clicks.
    out1 = FieldArray.uniform(Coherent(0.3), quarters.size)
    meas = measure_interference(both_outputs(out1, quarters), ideal, np.random.default_rng(2))
    assert meas["pairs"].size > 0
    assert (0, 1) not in set(zip(meas["basis_q"].tolist(), meas["port"].tolist()))
