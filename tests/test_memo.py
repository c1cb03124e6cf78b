"""The per-level tables a session builds are memoized by the exact bytes of
their level tables.  A memoized table must equal the table built afresh, bit
for bit, whether the memo is cold or warm; it must be read-only; tables
beyond the memo's bounds must not be stored; and a session must not depend
on what the memo holds."""

import tracemalloc

import numpy as np
import pytest

from ctqkd import protocol
from ctqkd.attacks import ATTACK_KINDS
from ctqkd.detector import DetectorModel, click_prob
from ctqkd.light import (
    KIND_BLINDING,
    KIND_COHERENT,
    KIND_FOCK,
    KIND_THERMAL,
    KIND_VACUUM,
    FieldArray,
    level_pairs,
)
from ctqkd.protocol import (
    MEMO_LEVELS,
    MEMO_SIZE,
    PulseBatch,
    SessionConfig,
    alice_thermal_monitor,
    bob_monitor_tap,
    pair_outcome_probs,
    run_session,
    state_pair_probs,
)
from records import secret_of

OUT1_KINDS = (KIND_COHERENT, KIND_VACUUM, KIND_BLINDING)
OUT2_KINDS = OUT1_KINDS + (KIND_THERMAL, KIND_FOCK)
# Enough pulses that the interferometers tabulate (4 L)**2 <= 1024 pair
# states and Bob's tap every pair of 8 x 8 levels.
N_PULSES = 1100
# The worst-case bytes of arrays and keys the three memos hold, as the
# protocol module's docstring states.
MEMO_ARRAY_BYTES = 1_371_136
MEMO_HELD_BYTES = 3 << 19  # 1.5 MiB, Python's objects included


@pytest.fixture(autouse=True)
def cold_memos():
    clear_memos()
    yield
    clear_memos()


def clear_memos():
    for memo in protocol._MEMOS:
        memo.cache_clear()


def random_train(rng, n_levels, kinds, level=None):
    """A FieldArray of N_PULSES pulses over n_levels levels of the given
    kinds, each level used, on the given level column if one is given."""
    kind = rng.choice(np.array(kinds, dtype=np.uint8), n_levels)
    param = rng.exponential(0.6, n_levels)
    param[kind == KIND_FOCK] = rng.integers(0, 6, n_levels)[kind == KIND_FOCK]
    param[kind == KIND_BLINDING] = rng.uniform(0.0, 1.0, n_levels)[kind == KIND_BLINDING]
    param[kind == KIND_VACUUM] = 0.0
    if level is None:
        level = rng.permutation(np.arange(N_PULSES) % n_levels).astype(np.uint8)
    quarter = np.where(kind[level] == KIND_COHERENT, rng.integers(0, 4, N_PULSES), 0)
    return FieldArray(level, quarter, kind, param)


def random_batch(rng, n_1, n_2, shared_levels=False, out2_kinds=OUT2_KINDS):
    out1 = random_train(rng, n_1, OUT1_KINDS)
    out2 = random_train(rng, n_2, out2_kinds, out1.level if shared_levels else None)
    return PulseBatch(secret_of(np.zeros(N_PULSES)), out1, out2)


def random_detector(rng):
    return DetectorModel(float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.0, 1e-2)))


def memo_tables(batch, det, monkeypatch):
    """The interferometers' (cum, q_max, flat), Bob's tap table and Alice's
    monitor table of batch, as the stages read them."""
    tables = []

    def recording_clicks(table, index, rng):
        tables.append(table)
        return protocol.ClickStream(0, index.size)

    monkeypatch.setattr(protocol, "monitor_clicks", recording_clicks)
    cfg = SessionConfig(n_pulses=N_PULSES, detector_alice=det, detector_bob=det)
    rng = np.random.default_rng(0)
    bob_monitor_tap(batch, cfg, rng)
    alice_thermal_monitor(batch, cfg, rng)
    rows = protocol._memoized(protocol._state_pair_rows, (batch.out1,), det)
    return rows, tables[0], tables[1]


def fresh_tables(batch, det, tap_reflectance=0.05):
    """The same tables built afresh, as each stage built them before they
    were memoized."""
    out1, out2 = batch.out1, batch.out2
    n_states = 4 * out1.kind.size
    s_prev, s_curr = np.divmod(np.arange(n_states * n_states), n_states)
    cum = np.cumsum(pair_outcome_probs(state_pair_probs(out1, s_prev, s_curr, det))[1:], axis=0)
    q_max = float(cum[-1].max())
    if q_max > 0.0:
        cum /= q_max
    flat = tuple((cum.min(axis=1) == cum.max(axis=1)).tolist())
    eta_eff = det.eta * tap_reflectance
    level_1, level_2, _ = level_pairs(out1, out2)
    tap = click_prob(det.dark_prob, out1.noclick_factors(eta_eff)[level_1],
                     out2.noclick_factors(eta_eff)[level_2])
    thermal = click_prob(det.dark_prob, out2.noclick_factors(det.eta))
    return (cum, q_max, flat), tap, thermal


def assert_tables_equal(got, want):
    (cum, q_max, flat), tap, thermal = got
    (cum_0, q_max_0, flat_0), tap_0, thermal_0 = want
    assert cum.tobytes() == cum_0.tobytes() and cum.shape == cum_0.shape
    assert (q_max, flat) == (q_max_0, flat_0)
    assert tap.tobytes() == tap_0.tobytes() and tap.shape == tap_0.shape
    assert thermal.tobytes() == thermal_0.tobytes()


def memo_sizes():
    return [memo.cache_info().currsize for memo in protocol._MEMOS]


@pytest.mark.parametrize("seed", range(24))
def test_memoized_tables_equal_fresh_ones_cold_and_warm(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    n_1, n_2 = rng.integers(1, MEMO_LEVELS + 1, 2)
    batch = random_batch(rng, n_1, n_2, shared_levels=n_1 == n_2 and seed % 2 == 0)
    det = random_detector(rng)
    want = fresh_tables(batch, det)
    cold = memo_tables(batch, det, monkeypatch)
    assert_tables_equal(cold, want)
    warm = memo_tables(batch, det, monkeypatch)
    assert_tables_equal(warm, want)
    # The warm tables are the stored ones; the monitors' are not stored when
    # output 2 holds a Fock level.
    assert warm[0][0] is cold[0][0]
    stored = KIND_FOCK not in batch.out2.kind.tolist()
    assert (warm[1] is cold[1]) == (warm[2] is cold[2]) == stored


def test_tables_on_shared_and_separate_level_columns_are_stored_apart(monkeypatch):
    # One output pair's level tables, read through equal level columns (one
    # entry per level) and through separate ones (one per pair of levels).
    rng = np.random.default_rng(3)
    det = random_detector(rng)
    out1 = random_train(rng, 3, (KIND_COHERENT,))
    out2 = FieldArray(out1.level, np.zeros(N_PULSES, dtype=np.uint8), [KIND_THERMAL] * 3, [0.1, 0.2, 0.3])
    separate = FieldArray(rng.permutation(out1.level), out2.quarter, out2.kind, out2.param)
    for second in (out2, separate, out2, separate):
        batch = PulseBatch(secret_of(np.zeros(N_PULSES)), out1, second)
        assert_tables_equal(memo_tables(batch, det, monkeypatch), fresh_tables(batch, det))
    assert protocol._tap_table.cache_info().currsize == 2


def test_cached_tables_are_read_only(monkeypatch):
    rng = np.random.default_rng(1)
    batch = random_batch(rng, 2, 3, out2_kinds=(KIND_THERMAL,))
    (cum, _, _), tap, thermal = memo_tables(batch, random_detector(rng), monkeypatch)
    assert memo_sizes() == [1, 1, 1]
    for table in (cum, tap, thermal):
        with pytest.raises(ValueError):
            table[(0,) * table.ndim] = 0.5


def test_tables_beyond_the_level_bound_or_with_a_fock_level_are_not_stored(monkeypatch):
    rng = np.random.default_rng(2)
    det = random_detector(rng)
    big = random_batch(rng, MEMO_LEVELS + 1, MEMO_LEVELS + 1)
    infos = [memo.cache_info() for memo in protocol._MEMOS]
    assert_tables_equal(memo_tables(big, det, monkeypatch), fresh_tables(big, det))
    assert [memo.cache_info() for memo in protocol._MEMOS] == infos
    out2 = FieldArray(big.out1.level, np.zeros(N_PULSES, dtype=np.uint8), [KIND_FOCK] * (MEMO_LEVELS + 1),
                      np.arange(MEMO_LEVELS + 1.0))
    fock = PulseBatch(big.secret, random_train(rng, 1, (KIND_COHERENT,)), out2.attenuated(0.5, rng))
    assert KIND_FOCK in fock.out2.kind.tolist() and fock.out2.kind.size <= MEMO_LEVELS + 1
    assert_tables_equal(memo_tables(fock, det, monkeypatch), fresh_tables(fock, det))
    assert [info.currsize for info in infos] == [0, 0, 0]
    assert memo_sizes() == [0, 0, 1]  # only the interferometers' table of output 1


def test_the_memos_hold_at_most_their_size_and_stated_bytes(monkeypatch):
    # Fill every memo past its size with the largest tables it stores: 8
    # levels on each output, on separate level columns (8 x 8 level pairs at
    # Bob's tap).
    assert all(memo.cache_info().maxsize == MEMO_SIZE for memo in protocol._MEMOS)
    rng = np.random.default_rng(4)
    det = random_detector(rng)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        held = []
        for _ in range(MEMO_SIZE + 3):
            batch = random_batch(rng, MEMO_LEVELS, MEMO_LEVELS, out2_kinds=(KIND_COHERENT, KIND_THERMAL))
            (cum, _, _), tap, thermal = memo_tables(batch, det, monkeypatch)
            assert tap.size == MEMO_LEVELS ** 2 and cum.shape == (5, (4 * MEMO_LEVELS) ** 2)
            # Output 1 keys the interferometers' and the tap's, output 2 the
            # tap's and Alice's.
            keys = 2 * sum(out.kind.nbytes + out.param.nbytes for out in (batch.out1, batch.out2))
            held.append(cum.nbytes + tap.nbytes + thermal.nbytes + 2 * tap.size * np.dtype(np.intp).itemsize
                        + keys)
            del batch, cum, tap, thermal
            assert max(memo_sizes()) <= MEMO_SIZE
        worst = sum(held[-MEMO_SIZE:])
        del held
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert memo_sizes() == [MEMO_SIZE] * 3
    assert worst == MEMO_ARRAY_BYTES
    assert grown <= MEMO_HELD_BYTES


RUNS = [(overrides, kind) for overrides in ({}, {"tap_reflectance": 0.0, "mu_coherent": 1.7})
        for kind in sorted(ATTACK_KINDS)]


@pytest.mark.parametrize("overrides,kind", RUNS)
def test_sessions_do_not_depend_on_the_memos(overrides, kind):
    # The configs of the golden variants, honest and under each attack: cold,
    # warm, and warm after the memos were filled by other sessions.
    cls = ATTACK_KINDS[kind]
    cfg = SessionConfig(n_pulses=20_000, seed=7, **overrides)
    cold = run_session(cfg, cls() if cls else None)
    hits = sum(memo.cache_info().hits for memo in protocol._MEMOS)
    warm = run_session(cfg, cls() if cls else None)
    assert sum(memo.cache_info().hits for memo in protocol._MEMOS) > hits
    for other in ATTACK_KINDS.values():
        run_session(SessionConfig(n_pulses=2000, seed=3, mu_thermal=0.3), other() if other else None)
    crowded = run_session(cfg, cls() if cls else None)
    assert cold.to_json() == warm.to_json() == crowded.to_json()
    for res in (warm, crowded):
        assert res.sifted_key_alice.tobytes() == cold.sifted_key_alice.tobytes()
        assert res.sifted_key_bob.tobytes() == cold.sifted_key_bob.tobytes()
