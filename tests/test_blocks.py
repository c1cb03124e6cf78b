"""The block-wise stages draw, compare and count BLOCK pulses at a time.
Each must equal its whole-array form bit for bit, and leave the generator in
the state the whole-array draw leaves it in, at every block boundary.  The
interferometers draw their candidate pairs a block of candidates at a time;
their events must be whole and sorted across those blocks.  The
interferometers read output 1's states at the candidate pairs, a block of
candidates at a time; they must equal the same stage over the states of
every pair, draw for draw."""

import tracemalloc

import numpy as np
import pytest

from ctqkd import expect, protocol
from ctqkd.attacks import BeamSplit, ModeDiscrimination
from ctqkd.detector import DetectorModel, click_prob
from ctqkd.light import (
    KIND_BLINDING,
    KIND_COHERENT,
    KIND_FOCK,
    KIND_THERMAL,
    KIND_VACUUM,
    Coherent,
    FieldArray,
    pair_table,
    zero_column,
)
from ctqkd.protocol import (
    BLOCK,
    PulseBatch,
    SessionConfig,
    alice_prepare,
    alice_thermal_monitor,
    bob_monitor_tap,
    bob_quarters,
    candidate_blocks,
    entry_counts,
    measure_interference,
    modulate_batch,
    pair_outcome_probs,
    sample_blocked,
    separate_modes,
    sift_and_qber,
    state_pair_probs,
)
from records import from_columns, secret_of

SIZES = [2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3]


def _mixed_train(n, rng, kinds=(KIND_VACUUM, KIND_COHERENT, KIND_THERMAL, KIND_FOCK, KIND_BLINDING)):
    """The given kinds at random, with valid columns for each."""
    kind = rng.choice(np.array(kinds, dtype=np.uint8), n)
    quarter = np.where(kind == KIND_COHERENT, rng.integers(0, 4, n), 0)
    param = rng.exponential(0.6, n)
    param[kind == KIND_FOCK] = rng.integers(0, 6, n)[kind == KIND_FOCK]
    param[kind == KIND_BLINDING] = rng.uniform(0.0, 1.0, n)[kind == KIND_BLINDING]
    param[kind == KIND_VACUUM] = 0.0
    return from_columns(kind, quarter, param)


def _two_levels(rng, n, params):
    """Coherent pulses at two levels, each used, at random phases."""
    level = rng.integers(0, 2, n)
    level[:2] = 0, 1
    return FieldArray(level, rng.integers(0, 4, n), [KIND_COHERENT] * 2, params)


def _batch(train, n):
    """A session config and the pulse train Bob's tap sees: an honest one
    from the pipeline, a resend train of one magnitude on both outputs,
    coherent pulses of two magnitudes on both outputs (as mode
    discrimination leaves them), ("mixed") the three kinds the
    interferometers take mixed on output 1 and all five on output 2,
    ("bright") two magnitudes, one so bright that its pairs click at every
    detector, with columns of their own on each output, or
    ("secret-levels") two outputs of two levels each, two coherent ones on
    output 1 and a coherent and a thermal one on output 2, that share one
    level column, as on an honest train, which is also the mode secret."""
    cfg = SessionConfig(n_pulses=n, seed=n)
    rng = np.random.default_rng(n)
    if train == "honest":
        batch = alice_prepare(cfg, rng).propagated(cfg.transmittance_oneway, rng)
        return cfg, modulate_batch(batch, bob_quarters(n, rng))
    assign, rot = rng.integers(0, 2, (2, n))
    mode_secret = secret_of(assign ^ rot)
    if train == "resend":
        resend = FieldArray.uniform(Coherent(0.8), n).phase_shifted(rng.integers(0, 4, n))
        return cfg, PulseBatch(mode_secret, resend, resend)
    if train == "two-level":
        two = _two_levels(rng, n, [0.64, 0.2])
        return cfg, PulseBatch(mode_secret, two, two)
    if train == "secret-levels":
        secret = (assign ^ rot).astype(np.uint8)
        secret.flags.writeable = False  # so that both outputs share it
        out2 = FieldArray(secret, np.zeros(n, dtype=np.uint8), [KIND_COHERENT, KIND_THERMAL], [0.5, 0.1])
        out1 = FieldArray(secret, rng.integers(0, 4, n), [KIND_COHERENT] * 2, [0.3, 2.0])
        batch = PulseBatch(secret_of(secret), out1, out2)
        assert out1.level is out2.level and np.array_equal(batch.mode_secret, secret)
        return cfg, batch
    if train == "bright":
        bright = [1e4, 0.2]
        return cfg, PulseBatch(mode_secret, _two_levels(rng, n, bright), _two_levels(rng, n, bright))
    out1 = _mixed_train(n, rng, (KIND_VACUUM, KIND_COHERENT, KIND_BLINDING))
    return cfg, PulseBatch(mode_secret, out1, _mixed_train(n, rng))


def _dense(train):
    """The kind, quarter and param bit pattern of each pulse."""
    return train.kind[train.level], train.quarter, train.param.view(np.uint64)[train.level]


def _n_levels(train):
    """Distinct (kind, param bit pattern) levels the pulses of a train hold."""
    kind, _, bits = _dense(train)
    return len(set(zip(kind.tolist(), bits.tolist())))


def _record(monkeypatch, name):
    """The positional arguments of every call to protocol.<name>."""
    calls, real = [], getattr(protocol, name)
    monkeypatch.setattr(protocol, name, lambda *args: calls.append(args) or real(*args))
    return calls


def _assert_same_draws(got, want, rng, ref):
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state


def _assert_binomial_count(stream, table, index, rng, ref):
    """stream counts one binomial draw per table entry over the gates at
    that entry, counted over the whole index at once, and rng is where
    those draws left ref."""
    gates = np.bincount(index, minlength=table.size)
    assert (stream.clicks, stream.n_gates) == (int(ref.binomial(gates, table).sum()), index.size)
    assert rng.bit_generator.state == ref.bit_generator.state


def _assert_sparse_events(meas, out1, det, quarters):
    """meas holds single clicks only where the pair's state can give one at
    that detector, ascending and distinct, with Bob's phase difference at
    each; and no more doubles than pairs that can give one."""
    p, index = pair_click_probs(out1, det)
    table = pair_outcome_probs(p)
    pairs = meas["pairs"]
    assert pairs.dtype == np.intp and np.all(np.diff(pairs) > 0)
    assert pairs.size == 0 or 0 <= pairs[0] and pairs[-1] < len(out1) - 1
    for key in ("basis_q", "port", "delta_q"):
        assert meas[key].dtype == np.uint8 and meas[key].size == pairs.size
    assert np.all(table[1 + (meas["basis_q"] << 1 | meas["port"]), index[pairs]] > 0)
    delta_q = (quarters[1:] - quarters[:-1]) & 3
    assert meas["delta_q"].tobytes() == delta_q[pairs].tobytes()
    assert 0 <= meas["doubles"] <= np.count_nonzero(table[5, index] > 0)


def pair_click_probs(out1, det):
    """Click probabilities of the four detectors over the consecutive pulse
    pairs of a built output 1, as (p, index): the reference that
    measure_interference must equal.

    A train of L levels has S = 4 L pulse states s = level << 2 | quarter,
    and p (state_pair_probs) has one column per pair of states that
    light.pair_table gives: a (4, S * S) table over the pair index
    s_prev * S + s_curr when the train has at least S * S pairs, else
    (4, m), one column per pair.  index is each pair's column, so detector
    k's probabilities are p[k][index].  Both take the same elementwise
    formulas, so the table gathers to the per-pair values bit for bit.
    """
    n_states = 4 * out1.kind.size
    state = protocol._states(out1.level, out1.quarter, out1.kind.size)
    s_prev, s_curr, index = pair_table(n_states, state[:-1], n_states, state[1:])
    return state_pair_probs(out1, s_prev, s_curr, det), index


def both_outputs(train, bob_quarter=None):
    """A pulse train whose outputs 1 and 2 are both this FieldArray, with
    these phases of Bob's, if any."""
    return PulseBatch(secret_of(np.zeros(len(train))), train, train, bob_quarter)


def _interference_over(out1, quarters, det, rng):
    """measure_interference over a built output 1: the candidates read each
    pair's column of pair_click_probs' table from its index over all pairs."""
    p, index = pair_click_probs(out1, det)
    cum = np.cumsum(pair_outcome_probs(p)[1:], axis=0)
    q_max = float(cum[-1].max())
    if q_max > 0.0:
        cum /= q_max
    pairs, detector, doubles = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.uint8)], 0
    for cand in candidate_blocks(len(out1) - 1, q_max, rng):
        u, state = rng.random(cand.size), index[cand]
        outcome = sum((u >= row[state]).astype(np.uint8) for row in cum)
        pairs.append(cand[outcome < 4])
        detector.append(outcome[outcome < 4])
        doubles += int(np.count_nonzero(outcome == 4))
    pairs, detector = np.concatenate(pairs), np.concatenate(detector)
    return {"pairs": pairs, "basis_q": detector >> 1, "port": detector & 1,
            "delta_q": (quarters[pairs + 1] - quarters[pairs]) & 3, "doubles": doubles}, q_max


def _assert_same_events(meas, want):
    assert meas.keys() == want.keys() and meas["doubles"] == want["doubles"]
    for key in ("pairs", "basis_q", "port", "delta_q"):
        assert meas[key].dtype == want[key].dtype and meas[key].tobytes() == want[key].tobytes()


def _assert_selected(got, mask, a, b):
    """got holds a's field where mask, else b's, pulse by pulse."""
    for col, col_a, col_b in zip(_dense(got), _dense(a), _dense(b)):
        assert col.tobytes() == np.where(mask, col_a, col_b).tobytes()


def assert_same_pulses(got, want):
    """got and want hold the same field at every pulse, whatever their
    level tables."""
    for col, col_want in zip(_dense(got), _dense(want)):
        assert col.tobytes() == col_want.tobytes()


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("train", ["honest", "resend", "two-level", "mixed", "bright", "secret-levels"])
def test_click_stages_equal_one_whole_array_draw(monkeypatch, train, n):
    # The monitors count their gates a block at a time, and draw what one
    # binomial per table entry over the whole index draws; the
    # interferometers' events are whole and sorted across candidate blocks,
    # and reading output 1 at the candidate pairs draws what reading every
    # pair draws.
    cfg, batch = _batch(train, n)
    streams = _record(monkeypatch, "power_test")
    rng, ref = np.random.default_rng(99), np.random.default_rng(99)
    out1, out2, secret = batch.out1, batch.out2, batch.mode_secret

    bob_monitor_tap(batch, cfg, rng)
    stream = streams.pop()[0]
    if train == "honest":
        # Bob's detector is blind to polarization: on an honest train his
        # gates are one binomial at the announced law.
        law = np.random.default_rng(99)
        assert (stream.clicks, stream.n_gates) == (int(law.binomial(n, expect.bob_monitor_p(cfg))), n)
        assert rng.bit_generator.state == law.bit_generator.state
    det = cfg.detector_bob
    eta = det.eta * cfg.tap_reflectance
    level_1, level_2, index = protocol.level_pairs(out1, out2)
    table = click_prob(det.dark_prob, out1.noclick_factors(eta)[level_1], out2.noclick_factors(eta)[level_2])
    _assert_binomial_count(stream, table, index, rng, ref)

    # The mode swap takes the outputs to the channel's modes, and back.
    h, v = separate_modes(secret, out1, out2)
    _assert_selected(h, secret, out2, out1)
    _assert_selected(v, secret, out1, out2)
    back1, back2 = separate_modes(secret, h, v)
    assert_same_pulses(back1, out1)
    assert_same_pulses(back2, out2)

    alice_thermal_monitor(batch, cfg, rng)
    det = cfg.detector_alice
    table = click_prob(det.dark_prob, out2.noclick_factors(det.eta))
    _assert_binomial_count(streams.pop()[0], table, out2.level, rng, ref)

    quarters = np.random.default_rng(7).integers(0, 4, n, dtype=np.uint8)
    meas = measure_interference(PulseBatch(batch.secret, out1, out2, quarters), det, rng)
    want, q_max = _interference_over(out1, quarters, det, ref)
    _assert_same_events(meas, want)
    assert rng.bit_generator.state == ref.bit_generator.state
    # Every pair of the bright train is a candidate, so its candidate
    # blocks are runs of consecutive pairs, across BLOCK.
    assert q_max == 1.0 or train != "bright"
    p, index = pair_click_probs(out1, det)
    # A train of L levels takes the table iff its (4 L)**2 state pairs are
    # no more than its pulse pairs, else one column per pair: every train of
    # two pulses, and a mixed train, whose levels are nearly all distinct.
    levels = _n_levels(out1)
    assert levels == {"honest": 1, "resend": 1, "two-level": 2, "bright": 2}.get(train, levels)
    tables = {"honest": 1, "resend": 1, "two-level": 2, "bright": 2}
    assert out1.kind.size == tables.get(train, out1.kind.size)
    assert levels <= out1.kind.size
    tabulated = (4 * out1.kind.size) ** 2 <= n - 1
    assert tabulated == (train != "mixed" and n > 2)
    assert p.shape == (4, (4 * out1.kind.size) ** 2 if tabulated else n - 1)
    assert index.dtype == np.min_scalar_type(p.shape[1] - 1)
    _assert_sparse_events(meas, out1, det, quarters)


def _edge_train(train, n):
    """Alice's output 1 for an ideal detector.  "doubles": bright coherent
    pulses of one phase, where D0A and both basis-B detectors click on every
    pair, so no pair gives a single click.  "block-end": vacuum but for
    pulse BLOCK, so that only pairs BLOCK - 1 and BLOCK, at the end of the
    first block of pairs and the start of the next, can click."""
    if train == "doubles":
        return FieldArray.uniform(Coherent(100.0), n)
    level = np.zeros(n, dtype=np.uint8)
    level[BLOCK] = 1
    return FieldArray(level, np.zeros(n, dtype=np.uint8), [KIND_VACUUM, KIND_COHERENT], [0.0, 3.0])


@pytest.mark.parametrize("n", [BLOCK + 1, 2 * BLOCK + 3])
@pytest.mark.parametrize("train", ["doubles", "block-end"])
def test_sparse_events_with_no_single_click_or_one_at_a_block_end(train, n):
    det = DetectorModel(eta=1.0, dark_prob=0.0)
    out1 = _edge_train(train, n)
    quarters = np.random.default_rng(7).integers(0, 4, n, dtype=np.uint8)
    if train == "doubles":
        rng = np.random.default_rng(1)
        meas = measure_interference(both_outputs(out1, quarters), det, rng)
        _assert_sparse_events(meas, out1, det, quarters)
        assert meas["pairs"].size == 0 and meas["doubles"] == n - 1
        sift = sift_and_qber(meas, SessionConfig(n_pulses=n), rng)
        assert sift.pair_indices.size == 0 and sift.qber is None
        return
    # Each lit pair gives a single click with probability 4 p (1 - p)**3,
    # p = 1 - exp(-3 / 8) at each detector: over 40 seeds, each lit pair
    # does (pair BLOCK only if the train has it).
    lit = {BLOCK - 1, BLOCK} & set(range(n - 1))
    seen = set()
    for seed in range(40):
        meas = measure_interference(both_outputs(out1, quarters), det, np.random.default_rng(seed))
        _assert_sparse_events(meas, out1, det, quarters)
        assert set(meas["pairs"].tolist()) <= lit
        seen |= set(meas["pairs"].tolist())
    assert seen == lit


@pytest.mark.parametrize("n", SIZES)
def test_prepare_and_bob_quarters_equal_whole_array_draws(n):
    cfg = SessionConfig(n_pulses=n, mu_coherent=0.3, mu_thermal=0.7, seed=3)
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    batch = alice_prepare(cfg, rng)
    th_in_h = protocol.fair_bits(n, ref) ^ protocol.fair_bits(n, ref)
    assert batch.mode_secret.tobytes() == th_in_h.tobytes()
    # Both outputs share one zero_column, of no per-pulse bytes, as level
    # and phase.
    out1, out2 = batch.out1, batch.out2
    assert out1.level is out2.level is out1.quarter is out2.quarter and not out1.level.any()
    assert out1.level.strides == (0,)
    assert (out1.kind.tolist(), out1.param.tolist()) == ([KIND_COHERENT], [0.3])
    assert (out2.kind.tolist(), out2.param.tolist()) == ([KIND_THERMAL], [0.7])
    h, v = separate_modes(batch.mode_secret, out1, out2)
    assert h.param[h.level].tobytes() == np.take([0.3, 0.7], th_in_h).tobytes()
    assert v.param[v.level].tobytes() == np.take([0.7, 0.3], th_in_h).tobytes()
    # Bob's quarters are the 2-bit fields of one whole-array draw of raw
    # words.
    words = ref.bit_generator.random_raw(-(-n // 32))
    whole = ((words[:, None] >> np.arange(0, 64, 2, dtype=np.uint64)) & 3).astype(np.uint8).ravel()[:n]
    _assert_same_draws(bob_quarters(n, rng), whole, rng, ref)


def traced(fn, *args):
    """(fn(*args), the peak of the allocations it traces above its start)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_alice_prepare_allocates_only_her_packed_secret():
    # The two raw draws of the secret, 0.125 B/pulse each; her outputs'
    # level and phase columns are one zero_column, and the secret stays
    # packed.
    n = 2**20
    cfg = SessionConfig(n_pulses=n, seed=2)
    alice_prepare(SessionConfig(n_pulses=3000, seed=2), np.random.default_rng(1))
    batch, peak = traced(alice_prepare, cfg, np.random.default_rng(cfg.seed))
    assert peak <= 0.3 * n, peak / n
    assert batch.secret.packed.size == n // 8


def test_mode_secret_is_unpacked_once_on_first_read_and_shared():
    n = 2**16
    cfg = SessionConfig(n_pulses=n, seed=4)
    rng = np.random.default_rng(cfg.seed)
    batch = alice_prepare(cfg, rng)
    # Every batch derived from Alice's carries her ModeSecret, unread.
    lossy = batch.propagated(cfg.transmittance_oneway, rng)
    modulated = modulate_batch(lossy, bob_quarters(n, rng))
    held = modulated.with_fields(modulated.out2, modulated.out1)
    assert lossy.secret is modulated.secret is held.secret is batch.secret
    # The first read unpacks one byte per pulse, the next ones none, and
    # all of them read one read-only array.
    bits, first = traced(lambda: held.mode_secret)
    again, second = traced(lambda: batch.mode_secret)
    assert first >= n and second < 1024, (first, second)
    assert bits is again is modulated.mode_secret is lossy.mode_secret
    assert not bits.flags.writeable
    assert bits.tobytes() == np.unpackbits(batch.secret.packed, count=n, bitorder="little").tobytes()


def test_honest_output_1_phases_are_bob_quarters_own_array():
    # Alice's coherent output holds phase 0 in a zero_column, so Bob's
    # quarters (0..3) are its phase column after modulation: no new
    # per-pulse array, bit-equal to turning each 0 by Bob's quarter.
    n = 2**18
    cfg = SessionConfig(n_pulses=n, seed=6)
    rng = np.random.default_rng(cfg.seed)
    batch = alice_prepare(cfg, rng).propagated(cfg.transmittance_oneway, rng)
    quarters = bob_quarters(n, rng)
    modulated, peak = traced(modulate_batch, batch, quarters)
    assert peak < 4096, peak
    assert modulated.bob_quarter is quarters and modulated.out1.quarter is quarters
    assert modulated.out2 is batch.out2 and modulated.out1.level is batch.out1.level
    assert modulated.out1.quarter.tobytes() == (np.zeros(n, dtype=np.uint8) + quarters & 3).tobytes()
    # Turns that need reducing mod 4 still get a phase column of their own.
    wrapped = batch.out1.phase_shifted(quarters + np.uint8(4))
    assert wrapped.quarter.tobytes() == quarters.tobytes() and not np.shares_memory(wrapped.quarter, quarters)


def test_entry_counts_of_a_one_entry_table_is_the_index_size():
    # On a zero_column, an honest train's level column, with no pass over it.
    for n in (0, 1, BLOCK + 1, 10**6):
        counts = entry_counts(zero_column(n), 1)
        assert counts.dtype == np.intp and counts.tolist() == [n]


@pytest.mark.parametrize("n", SIZES)
def test_sample_blocked_asks_for_each_gate_once_in_order(n):
    # Each gate has a table entry of its own, so a gate read twice, skipped
    # or out of order would compare with another gate's probability.
    table = np.random.default_rng(n).uniform(0.0, 0.2, n)
    index = np.arange(n, dtype=np.min_scalar_type(n - 1))  # unsigned, as gather asks
    rng, ref = np.random.default_rng(1), np.random.default_rng(1)
    _assert_same_draws(sample_blocked(table, index, rng), ref.random(n) < table, rng, ref)


@pytest.mark.parametrize("n", [BLOCK - 1, BLOCK + 1, 2 * BLOCK + 3])
@pytest.mark.parametrize("size", [1, 2, 3, 257])
def test_entry_counts_equal_one_whole_array_bincount(size, n):
    # Tables of at most two entries count the nonzero entries; larger ones
    # take one bincount over the whole index.
    rng = np.random.default_rng(size * n)
    index = rng.integers(0, size, n).astype(np.min_scalar_type(size - 1))
    index[-1] = size - 1  # the last entry is held, at the last element
    counts = entry_counts(index, size)
    want = np.bincount(index, minlength=size)
    assert counts.dtype == want.dtype and counts.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [BLOCK + 1, 2 * BLOCK + 3])
@pytest.mark.parametrize("train", ["honest"])  # the only train a session gives these hooks
def test_attack_means_over_level_pairs_equal_the_per_pulse_means(train, n):
    # Beam splitting's tapped energy and mode discrimination's click
    # probabilities read the one pair of levels the outputs hold; gathering
    # one value per pulse and reducing gives the same, to rounding.
    cfg, batch = _batch(train, n)
    out1, out2 = batch.out1, batch.out2
    tap = 0.3
    want = float(np.sum(out1.param[out1.level] + out2.param[out2.level]) * tap)
    _, tapped = BeamSplit(tap).apply_return(batch, None, cfg, np.random.default_rng(0))
    assert tapped == pytest.approx(want, rel=1e-12, abs=0.0)

    det = DetectorModel(0.8, 1e-4)
    h, v = separate_modes(batch.mode_secret, out1, out2)
    p_h, p_v = (click_prob(det.dark_prob, f.noclick_factors(det.eta))[f.level] for f in (h, v))
    coh_h = h.kind[h.level] == KIND_COHERENT
    p_c, p_t = float(np.mean(np.where(coh_h, p_h, p_v))), float(np.mean(np.where(coh_h, p_v, p_h)))
    _, (_, bayes) = ModeDiscrimination(eve_det=det).apply_return(batch, None, cfg, np.random.default_rng(0))
    assert bayes == pytest.approx(0.5 * (min(p_c, p_t) + min(1 - p_c, 1 - p_t)), rel=1e-12, abs=0.0)


def _sift_by_masks(meas, cfg, rng):
    """sift_and_qber's selections as bool masks over the events:
    (pair indices, Alice's bits, Bob's bits, disclosed, qber, keys)."""
    basis_q, delta_q = meas["basis_q"], meas["delta_q"]
    kept = (delta_q & 1) == basis_q
    alice_bits = meas["port"][kept]
    bob_bits = (((delta_q[kept] - basis_q[kept]) & 3) == 2).astype(np.uint8)
    k = alice_bits.size
    if k == 0:
        return meas["pairs"][kept], alice_bits, bob_bits, np.zeros(0, dtype=bool), None
    n_disc = min(k, max(1, round(cfg.qber_sample_fraction * k)))
    disclosed = np.zeros(k, dtype=bool)
    disclosed[np.sort(rng.choice(k, size=n_disc, replace=False))] = True
    qber = float(np.mean(alice_bits[disclosed] != bob_bits[disclosed]))
    return (meas["pairs"][kept], alice_bits, bob_bits, disclosed, qber,
            alice_bits[~disclosed], bob_bits[~disclosed])


@pytest.mark.parametrize("n", [2, BLOCK + 1, 2 * BLOCK + 3])
@pytest.mark.parametrize("train", ["honest", "resend", "mixed"])
def test_sift_selects_by_position_what_the_masks_select(train, n):
    cfg, batch = _batch(train, n)
    if batch.bob_quarter is None:
        quarters = bob_quarters(n, np.random.default_rng(3))
        batch = PulseBatch(batch.secret, batch.out1, batch.out2, quarters)
    meas = measure_interference(batch, cfg.detector_alice, np.random.default_rng(4))
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    sift = sift_and_qber(meas, cfg, rng)
    want = _sift_by_masks(meas, cfg, ref)
    got = (sift.pair_indices, sift.alice_bits, sift.bob_bits, sift.disclosed, sift.qber,
           sift.key_alice, sift.key_bob)[:len(want)]
    for a, b in zip(got, want):
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        else:
            assert a == b
    assert rng.bit_generator.state == ref.bit_generator.state
