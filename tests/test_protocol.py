"""Session state machine: preparation, modulation, mode separation, the
interferometric measurement, sifting and the end-to-end run."""

import json
import math

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from ctqkd import expect, protocol
from ctqkd.attacks import ATTACK_KINDS
from ctqkd.detector import DetectorModel, click_prob, samples_needed
from ctqkd.light import (
    KIND_BLINDING,
    KIND_COHERENT,
    KIND_THERMAL,
    KIND_VACUUM,
    Blinding,
    Coherent,
    FieldArray,
    FockN,
    Thermal,
    Vacuum,
)
from ctqkd.protocol import (
    ConfigError,
    PulseBatch,
    SessionConfig,
    alice_prepare,
    alice_thermal_monitor,
    bob_monitor_tap,
    classify_alarm,
    measure_interference,
    modulate_batch,
    port_means,
    run_session,
    separate_modes,
    sift_and_qber,
)
from records import field_at, from_columns, from_fields, secret_of
from test_blocks import both_outputs, pair_click_probs, traced

CFG_SMALL = SessionConfig(n_pulses=2000, seed=5)


def make_batch(n=1, assign=0, rot=0, out1=Coherent(math.sqrt(0.2)), out2=Thermal(0.2)):
    """n pulses with the given secret bits and the same field on each output."""
    return PulseBatch(secret_of(np.full(n, assign ^ rot)),
                      FieldArray.uniform(out1, n), FieldArray.uniform(out2, n))


# --- preparation -----------------------------------------------------------


def test_prepare_is_deterministic():
    cfg = SessionConfig(n_pulses=4, seed=123)
    a = alice_prepare(cfg, np.random.default_rng(cfg.seed))
    b = alice_prepare(cfg, np.random.default_rng(cfg.seed))
    assert np.array_equal(a.mode_secret, b.mode_secret)
    assert np.array_equal(a.out1.level, b.out1.level)
    assert a.out1.kind.tolist() == b.out1.kind.tolist() == [KIND_COHERENT]
    assert a.out2.kind.tolist() == b.out2.kind.tolist() == [KIND_THERMAL]


def test_prepare_fair_bits():
    cfg = SessionConfig(n_pulses=10**5, seed=2)
    batch = alice_prepare(cfg, np.random.default_rng(cfg.seed))
    sigma3 = 3 * math.sqrt(0.25 / cfg.n_pulses)
    assert abs(batch.mode_secret.mean() - 0.5) <= sigma3
    h, _ = separate_modes(batch.mode_secret, batch.out1, batch.out2)
    coh_in_h = h.kind[h.level] == 1
    assert abs(coh_in_h.mean() - 0.5) <= sigma3


def test_prepare_each_pulse_has_one_coherent_one_thermal():
    cfg = SessionConfig(n_pulses=500, seed=9)
    batch = alice_prepare(cfg, np.random.default_rng(cfg.seed))
    # Alice's two outputs share one level column, over one level each.
    assert batch.out1.level is batch.out2.level
    h, v = separate_modes(batch.mode_secret, batch.out1, batch.out2)
    for kind_h, kind_v in zip(h.kind[h.level], v.kind[v.level]):
        assert {kind_h, kind_v} == {KIND_COHERENT, KIND_THERMAL}


# --- Bob's modulation ------------------------------------------------------


def test_modulate_zero_phase_records_only():
    batch = make_batch()
    assert batch.bob_quarter is None
    out = modulate_batch(batch, np.array([0]))
    assert field_at(out.out1, 0) == Coherent(math.sqrt(0.2))
    assert field_at(out.out2, 0) == Thermal(0.2)
    assert out.bob_quarter.tolist() == [0]


def test_modulate_pi_flips_coherent_sign():
    out = modulate_batch(make_batch(), np.array([2]))
    assert field_at(out.out1, 0).amplitude == pytest.approx(-math.sqrt(0.2), abs=1e-15)


def test_modulate_leaves_thermal_bit_exact():
    batch = make_batch(4)
    out = modulate_batch(batch, np.arange(4))
    assert out.out2.param.tobytes() == batch.out2.param.tobytes()
    assert [field_at(out.out2, i) for i in range(4)] == [Thermal(0.2)] * 4


# --- channel ---------------------------------------------------------------


def test_propagate_identity():
    out = make_batch().propagated(1.0, np.random.default_rng(0))
    assert field_at(out.out1, 0) == Coherent(math.sqrt(0.2))
    assert field_at(out.out2, 0) == Thermal(0.2)


def test_propagate_scales_both_modes():
    out = make_batch().propagated(0.5, np.random.default_rng(0))
    assert field_at(out.out1, 0).mean_photons == pytest.approx(0.1, abs=1e-12)
    assert field_at(out.out2, 0) == Thermal(0.1)


# --- mode separation -------------------------------------------------------


def test_separation_honest_exhaustive():
    # all four (wiring, rotation) combinations route coherent to output 1
    assign, rot = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])
    coh_in_h = (assign ^ rot) == 0
    coherent, thermal = FieldArray.uniform(Coherent(1.0), 4), FieldArray.uniform(Thermal(0.2), 4)
    out1, out2 = separate_modes(assign ^ rot, FieldArray.where(coh_in_h, coherent, thermal),
                                FieldArray.where(coh_in_h, thermal, coherent))
    assert [field_at(out1, i) for i in range(4)] == [Coherent(1.0)] * 4
    assert [field_at(out2, i) for i in range(4)] == [Thermal(0.2)] * 4


def test_separation_of_identical_substituted_fields():
    eve_field = Coherent(2.0)
    out1, out2 = separate_modes(np.array([0, 1, 1, 0]), FieldArray.uniform(eve_field, 4),
                                FieldArray.uniform(eve_field, 4))
    for i in range(4):
        assert field_at(out1, i) == eve_field and field_at(out2, i) == eve_field


def test_separation_random_mode_guess_hits_output2_half_the_time():
    # Eve guesses a mode for her coherent pulse; the secret routing sends it
    # to the protected output about half the time.
    rng = np.random.default_rng(31)
    n = 10**4
    cfg = SessionConfig(n_pulses=n, seed=14)
    batch = alice_prepare(cfg, np.random.default_rng(cfg.seed))
    guess = rng.integers(0, 2, n).astype(bool)
    eve_coh = FieldArray.uniform(Coherent(1.0), n)
    eve_th = FieldArray.uniform(Thermal(0.1), n)
    _, out2 = separate_modes(batch.mode_secret, FieldArray.where(guess, eve_coh, eve_th),
                             FieldArray.where(guess, eve_th, eve_coh))
    frac_coherent = np.mean(out2.kind[out2.level] == 1)
    assert abs(frac_coherent - 0.5) <= 3 * math.sqrt(0.25 / n)


# --- monitors --------------------------------------------------------------


def _bob_ready_batch(cfg, rng):
    batch = alice_prepare(cfg, rng)
    batch = batch.propagated(cfg.transmittance_oneway, rng)
    return modulate_batch(batch, rng.integers(0, 4, cfg.n_pulses))


def test_bob_monitor_honest_passes():
    cfg = SessionConfig(n_pulses=10**4, seed=21)
    rng = np.random.default_rng(cfg.seed)
    outcome = bob_monitor_tap(_bob_ready_batch(cfg, rng), cfg, rng)
    assert outcome.passed


def test_bob_monitor_disabled_at_zero_reflectance():
    cfg = SessionConfig(n_pulses=100, seed=21, tap_reflectance=0.0)
    rng = np.random.default_rng(cfg.seed)
    assert bob_monitor_tap(_bob_ready_batch(cfg, rng), cfg, rng) is None


def test_bob_monitor_flags_bright_probe():
    cfg = SessionConfig(n_pulses=10**4, seed=22)
    rng = np.random.default_rng(cfg.seed)
    batch = _bob_ready_batch(cfg, rng)
    batch.out1 = FieldArray.uniform(Coherent(math.sqrt(10.0)), len(batch))
    batch.out2 = FieldArray.vacuum(len(batch))
    outcome = bob_monitor_tap(batch, cfg, rng)
    assert not outcome.passed and outcome.z_score > 5


def test_bob_monitor_flags_vacuum_substitution():
    # Bob's expected rate is small (eta*r*mu), so separating it from the
    # bare dark-count floor takes more gates than the other checks.
    cfg = SessionConfig(n_pulses=10**5, seed=23)
    rng = np.random.default_rng(cfg.seed)
    batch = _bob_ready_batch(cfg, rng)
    batch.out1 = FieldArray.vacuum(len(batch))
    batch.out2 = FieldArray.vacuum(len(batch))
    outcome = bob_monitor_tap(batch, cfg, rng)
    assert not outcome.passed and outcome.z_score < -5


def test_thermal_monitor_honest_passes():
    cfg = SessionConfig(n_pulses=10**4, seed=24)
    rng = np.random.default_rng(cfg.seed)
    fields = FieldArray.uniform(Thermal(expect.means_at_alice(cfg)[1]), cfg.n_pulses)
    assert alice_thermal_monitor(both_outputs(fields), cfg, rng).passed


def test_thermal_monitor_blinded_band_statistic():
    cfg = SessionConfig(n_pulses=10**4, seed=25)
    rng = np.random.default_rng(cfg.seed)
    fields = FieldArray.uniform(Blinding(1.0), cfg.n_pulses)
    outcome = alice_thermal_monitor(both_outputs(fields), cfg, rng)
    assert outcome.observed_stat == 0.0
    assert not outcome.passed


def test_thermal_monitor_equal_mean_coherent_fails_at_sample_count():
    # Photon statistics alone separate the states once n reaches the
    # two-sided separation count; use an efficient detector so that count
    # stays small.
    det = DetectorModel(eta=1.0, dark_prob=0.0)
    mu = 0.2
    p_t = 1 - 1 / (1 + mu)
    p_c = 1 - math.exp(-mu)
    n_star = samples_needed(p_t, p_c, 5.0)
    cfg = SessionConfig(
        n_pulses=n_star,
        seed=26,
        detector_alice=det,
        transmittance_oneway=1.0,
        tap_reflectance=0.0,
        mu_thermal=mu,
    )
    rng = np.random.default_rng(cfg.seed)
    fields = FieldArray.uniform(Coherent(math.sqrt(mu)), cfg.n_pulses)
    outcome = alice_thermal_monitor(both_outputs(fields), cfg, rng)
    assert not outcome.passed


# --- interferometer --------------------------------------------------------


QUARTER_PHASES = np.array([1.0 + 0.0j, 0.0 + 1.0j, -1.0 + 0.0j, 0.0 - 1.0j])  # i**q, exact


def _one_pair(r_prev, q_prev, r_curr, q_curr):
    """port_means of one pulse pair, as a length-4 vector."""
    quarters = np.array([q_prev, q_curr], dtype=np.uint8)
    return port_means(np.array([r_prev]), quarters[:1], np.array([r_curr]), quarters[1:])[:, 0]


def test_interferometer_means_aligned_phase():
    mu = 0.3
    r = math.sqrt(mu)
    means = _one_pair(r, 0, r, 0)
    assert means[0] == pytest.approx(mu / 2, abs=1e-12)  # D0A
    assert means[1] == pytest.approx(0.0, abs=1e-12)  # D1A
    assert means[2] == pytest.approx(mu / 4, abs=1e-12)  # D0B
    assert means[3] == pytest.approx(mu / 4, abs=1e-12)  # D1B


def test_interferometer_means_opposite_phase():
    r = math.sqrt(0.3)
    means = _one_pair(r, 0, r, 2)
    assert means[0] == pytest.approx(0.0, abs=1e-12)
    assert means[1] == pytest.approx(0.3 / 2, abs=1e-12)


def test_interferometer_energy_conservation():
    mu = 0.41
    r = np.full(4, math.sqrt(mu))
    means = port_means(r, np.zeros(4, dtype=np.uint8), r, np.arange(4, dtype=np.uint8))
    assert means.shape == (4, 4)
    for q in range(4):
        assert means[:, q].sum() == pytest.approx(mu, abs=1e-12)


def _complex_port_means(a_prev, a_curr):
    """Oracle: the port means as the modulus of the complex sum,
    |a_prev e^(i b pi/2) +/- a_curr|^2 / 8 for basis b in (0, 1)."""
    means = np.empty((4, np.size(a_prev)))
    for b in (0, 1):
        s = a_prev * QUARTER_PHASES[b]
        means[2 * b] = np.abs(s + a_curr) ** 2 / 8.0
        means[2 * b + 1] = np.abs(s - a_curr) ** 2 / 8.0
    return means


def test_port_means_bit_equal_to_complex_oracle_on_all_quarter_pairs():
    rng = np.random.default_rng(11)
    magnitudes = [(0.7, 0.7), (0.3, 1.9), (1.9, 0.3), (0.0, 0.8), (0.8, 0.0), (0.0, 0.0),
                  (1e-200, 3.0), *rng.uniform(0.0, 3.0, (200, 2)),
                  *np.repeat(rng.uniform(0.0, 3.0, (50, 1)), 2, axis=1)]
    for r_prev, r_curr in magnitudes:
        q = np.arange(16, dtype=np.uint8)
        q_prev, q_curr = q >> 2, q & 3
        r1, r2 = np.full(16, r_prev), np.full(16, r_curr)
        got = port_means(r1, q_prev, r2, q_curr)
        want = _complex_port_means(r1 * QUARTER_PHASES[q_prev], r2 * QUARTER_PHASES[q_curr])
        assert got.tobytes() == want.tobytes(), (r_prev, r_curr)


@pytest.mark.parametrize("magnitude", [0.0, math.sqrt(0.2 * 0.9 * 0.95 * 0.9), 1.3])
@pytest.mark.parametrize("det", [DetectorModel(0.1, 1e-5), DetectorModel(1.0, 0.0),
                                 DetectorModel(0.37, 0.02)])
def test_uniform_train_table_equals_general_path_bitwise(magnitude, det):
    quarters = np.random.default_rng(4).integers(0, 4, 5001).astype(np.uint8)
    train = FieldArray.uniform(Coherent(magnitude), quarters.size).phase_shifted(quarters)
    table, index = pair_click_probs(train, det)
    assert table.shape == (4, 16) and index.dtype == np.uint8
    fast = table[:, index]  # the 16-entry table, gathered
    mu, q = train.param[train.level], train.quarter
    assert np.all(mu == magnitude**2)
    r = np.sqrt(mu)
    means = port_means(r[:-1], q[:-1], r[1:], q[1:])
    general = click_prob(det.dark_prob, np.exp(-det.eta * means))
    assert fast.shape == (4, 5000)
    assert fast.tobytes() == general.tobytes()
    # one mean off by one ulp makes a second level: the two-level table,
    # gathered, equals the per-pair values, which are the uniform train's on
    # every other pair
    bumped = FieldArray((np.arange(5001) == 0).view(np.uint8), q, [KIND_COHERENT] * 2,
                        [mu[0], np.nextafter(mu[0], 1)])
    table, index = pair_click_probs(bumped, det)
    assert table.shape == (4, 64) and index.dtype == np.uint8
    r = np.sqrt(bumped.param[bumped.level])
    means = port_means(r[:-1], q[:-1], r[1:], q[1:])
    assert table[:, index].tobytes() == click_prob(det.dark_prob, np.exp(-det.eta * means)).tobytes()
    assert table[:, index[1:]].tobytes() == general[:, 1:].tobytes()


def _per_pair_oracle(train, det):
    """Pair click probabilities one column per pair, by the one law: the
    port means of the complex sum of the coherent amplitudes (0 on vacuum
    and blinding light), and a factor 1 - forced_click_prob per blinding
    pulse of the pair."""
    kind, param, q = train.kind[train.level], train.param[train.level], train.quarter
    amplitude = np.where(kind == KIND_COHERENT, np.sqrt(param) * QUARTER_PHASES[q], 0.0)
    f = np.where(kind == KIND_BLINDING, 1.0 - param, 1.0)
    means = _complex_port_means(amplitude[:-1], amplitude[1:])
    return click_prob(det.dark_prob, np.exp(-det.eta * means), f[:-1], f[1:])


# Pairs 4 and 5 mix coherent and blinding light.
MIXED_KINDS = [Coherent(1.0), Coherent(-1.0), Vacuum(), Blinding(0.4), Blinding(0.2), Coherent(1j)]


def test_pair_click_probs_mixed_kinds_take_one_law():
    # Five (kind, param) levels: a (4 * 5)**2-entry table would outnumber
    # the 6 pairs, so each pair gets its own column.
    det = DetectorModel(0.3, 0.01)
    out1 = from_fields(MIXED_KINDS + [Blinding(0.3)])
    p, index = pair_click_probs(out1, det)
    assert p.shape == (4, 6) and index.dtype == np.uint8 and index.tolist() == list(range(6))
    assert p[:, index].tobytes() == _per_pair_oracle(out1, det).tobytes()


def test_pair_click_probs_four_mixed_kind_levels_take_the_table():
    # levels (1, 1.0), (0, 0.0), (4, 0.4), (4, 0.2): 16 states, so a train
    # takes the 256-entry table from 256 pairs on
    det = DetectorModel(0.3, 0.01)
    for pairs in (255, 256):
        out1 = from_fields(MIXED_KINDS + [Blinding(0.4)] * (pairs + 1 - len(MIXED_KINDS)))
        p, index = pair_click_probs(out1, det)
        assert out1.kind.size == 4 and len(out1) == pairs + 1
        state = out1.level.astype(int) << 2 | out1.quarter
        want = state[:-1] * 16 + state[1:] if pairs == 256 else np.arange(pairs)
        assert p.shape == (4, 256 if pairs == 256 else pairs) and index.dtype == np.uint8
        assert index.tolist() == want.tolist()
        assert p[:, index].tobytes() == _per_pair_oracle(out1, det).tobytes()


def _random_levels(rng, n_levels):
    """n_levels distinct (kind, param) levels of the three kinds the
    interferometers take: vacuum, coherent and blinding light."""
    levels = set()
    while len(levels) < n_levels:
        kind = (KIND_VACUUM, KIND_COHERENT, KIND_BLINDING)[int(rng.integers(0, 3))]
        param = {KIND_VACUUM: 0.0, KIND_COHERENT: rng.exponential(1.0),
                 KIND_BLINDING: rng.uniform(0.0, 1.0)}[kind]
        levels.add((kind, param))
    return sorted(levels)


def _level_mixtures(rng):
    """(levels, pulses) of 300 random mixtures of 1-8 levels, then the
    fewest pulses at which a train of 64 levels (256 uint8 states, a uint16
    index) and one of 65 levels (uint16 states, a uint32 index) take the
    table."""
    for _ in range(300):
        yield _random_levels(rng, int(rng.integers(1, 9))), int(rng.integers(2, 3000))
    yield _random_levels(rng, 64), 256**2 + 1
    yield _random_levels(rng, 65), 260**2 + 1


@pytest.mark.parametrize("det", [DetectorModel(0.1, 1e-5), DetectorModel(1.0, 0.0),
                                 DetectorModel(0.37, 0.02)])
def test_level_table_equals_per_pair_oracle_bitwise(det):
    rng = np.random.default_rng(2024)
    table_indices, per_pair = set(), 0
    for levels, n in _level_mixtures(rng):
        which = rng.integers(0, len(levels), n)
        which[:len(levels)] = np.arange(min(n, len(levels)))  # each level, if n allows
        kind = np.array([k for k, _ in levels], dtype=np.uint8)[which]
        quarter = np.where(kind == KIND_COHERENT, rng.integers(0, 4, n), 0)
        train = from_columns(kind, quarter, np.array([mu for _, mu in levels])[which])
        present = len(set(which.tolist()))
        p, index = pair_click_probs(train, det)
        assert train.kind.size == present
        if (4 * present) ** 2 <= n - 1:
            assert p.shape == (4, (4 * present) ** 2)
            table_indices.add(index.dtype)
        else:
            assert p.shape == (4, n - 1) and np.array_equal(index, np.arange(n - 1))
            per_pair += 1
        assert index.dtype == np.min_scalar_type(p.shape[1] - 1)
        assert p[:, index].tobytes() == _per_pair_oracle(train, det).tobytes(), (levels, n)
    assert table_indices == {np.dtype(np.uint8), np.dtype(np.uint16), np.dtype(np.uint32)}
    assert per_pair > 0


def test_interferometer_measure_deterministic_port():
    # Ideal detector, opposite phases: the only possible single click in
    # basis A is D1A.
    det = DetectorModel(eta=1.0, dark_prob=0.0)
    quarters = (2 * (np.arange(101) % 2)).astype(np.uint8)
    out1 = FieldArray.uniform(Coherent(2.0), 101).phase_shifted(quarters)
    meas = measure_interference(both_outputs(out1, quarters), det, np.random.default_rng(3))
    assert meas["pairs"].size > 0 and np.all(meas["delta_q"] == 2)
    seen = set(zip(meas["basis_q"].tolist(), meas["port"].tolist()))
    assert (0, 0) not in seen
    assert (0, 1) in seen


@pytest.mark.parametrize("stray", [Thermal(0.2), FockN(1)])
def test_interferometers_refuse_thermal_or_fock_light_on_output_1(stray):
    # No session puts such light on output 1, and the one law of
    # state_pair_probs does not model it: refused before any draw.
    out1 = from_fields([Coherent(1.0)] * 50 + [stray] + [Coherent(1.0)] * 50)
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    with pytest.raises(ConfigError, match="no thermal or Fock light on output 1"):
        measure_interference(both_outputs(out1, np.zeros(len(out1), dtype=np.uint8)),
                             CFG_SMALL.detector_alice, rng)
    assert rng.bit_generator.state == state


def test_interferometers_refuse_a_train_without_bobs_phases():
    # Bob's phase differences are read from the batch, so a batch he has
    # not modulated is refused before any draw.
    batch = make_batch(101)
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    with pytest.raises(ConfigError, match="Bob's phases"):
        measure_interference(batch, CFG_SMALL.detector_alice, rng)
    assert rng.bit_generator.state == state
    meas = measure_interference(modulate_batch(batch, np.zeros(101, dtype=np.uint8)),
                                CFG_SMALL.detector_alice, rng)
    assert np.all(meas["delta_q"] == 0)


# --- sifting ---------------------------------------------------------------


def _meas(pairs, basis_q, port, delta_q):
    """Single clicks at these pair indices, as measure_interference keeps them."""
    return {
        "pairs": np.asarray(pairs, dtype=np.intp),
        "basis_q": np.asarray(basis_q, dtype=np.uint8),
        "port": np.asarray(port, dtype=np.uint8),
        "delta_q": np.asarray(delta_q, dtype=np.uint8),
        "doubles": 0,
    }


def test_sift_matched_event_bits():
    cfg = SessionConfig(n_pulses=10, seed=0, qber_sample_fraction=0.5)
    # matched events: basis A, delta pi, click D1 -> both bits 1
    meas = _meas([3, 7], [0, 0], [1, 1], [2, 2])
    out = sift_and_qber(meas, cfg, np.random.default_rng(1))
    assert out.pair_indices.tolist() == [3, 7]
    assert out.qber == 0.0
    assert list(out.alice_bits) == [1, 1] and list(out.bob_bits) == [1, 1]


def test_sift_drops_mismatched_basis():
    cfg = SessionConfig(n_pulses=10, seed=0)
    meas = _meas([0, 1], [0, 1], [0, 0], [1, 0])  # A with pi/2, B with 0
    out = sift_and_qber(meas, cfg, np.random.default_rng(1))
    assert out.pair_indices.size == 0
    assert out.qber is None


def test_sift_discloses_and_strips_sample():
    cfg = SessionConfig(n_pulses=10, seed=0, qber_sample_fraction=0.25)
    k = 40
    meas = _meas(np.arange(0, 2 * k, 2), [0] * k, [0] * k, [0] * k)
    out = sift_and_qber(meas, cfg, np.random.default_rng(2))
    assert out.disclosed.sum() == 10
    assert len(out.key_alice) == 30
    assert out.qber == 0.0


def test_honest_lossless_run_has_zero_qber():
    det = DetectorModel(eta=1.0, dark_prob=0.0)
    cfg = SessionConfig(
        n_pulses=4000, seed=33, detector_alice=det, detector_bob=det,
        transmittance_oneway=1.0, tap_reflectance=0.0,
    )
    res = run_session(cfg)
    assert res.counts["sifted"] > 100
    assert res.qber == 0.0
    assert not np.any(res.sifted_key_alice != res.sifted_key_bob)
    # disabled tap serializes as a null monitor
    assert res.bob_monitor is None
    assert json.loads(res.to_json())["bob_monitor"] is None


# --- verdict and full session ----------------------------------------------


def test_classify_alarm_cases():
    cfg = SessionConfig(n_pulses=100, seed=0, qber_threshold=0.05)
    ok = lambda: run_session(SessionConfig(n_pulses=2000, seed=3)).alice_monitor  # noqa: E731
    passing = ok()
    assert classify_alarm(0.0, passing, passing, cfg)[0] == "none"
    assert classify_alarm(0.25, passing, passing, cfg)[0] == "qber"
    failing = passing.__class__(0.0, 0.1, 99.0, False, 100)
    assert classify_alarm(0.0, failing, passing, cfg)[0] == "alice_power"
    assert classify_alarm(0.0, passing, failing, cfg)[0] == "bob_power"
    alarm, sources = classify_alarm(0.25, failing, failing, cfg)
    assert alarm == "multiple"
    assert sources == ("qber", "alice_power", "bob_power")


def test_session_verdict_matches_result():
    res = run_session(CFG_SMALL)
    verdict = classify_alarm(res.qber, res.alice_monitor, res.bob_monitor, CFG_SMALL)
    assert verdict == (res.alarm, res.alarm_sources)


def test_run_session_deterministic():
    a = run_session(CFG_SMALL)
    b = run_session(CFG_SMALL)
    assert a.to_json() == b.to_json()
    assert np.array_equal(a.sifted_key_alice, b.sifted_key_alice)
    assert np.array_equal(a.sifted_key_bob, b.sifted_key_bob)


def test_run_session_json_schema():
    doc = json.loads(run_session(CFG_SMALL).to_json())
    for key in ("config", "attack", "counts", "qber", "alice_monitor",
                "bob_monitor", "alarm", "alarm_sources", "eve"):
        assert key in doc
    assert doc["attack"] == "none"
    assert doc["eve"] is None
    assert doc["config"]["n_pulses"] == 2000


def test_honest_sessions_do_not_alarm():
    for seed in range(8):
        res = run_session(SessionConfig(n_pulses=2 * 10**4, seed=seed))
        assert res.alarm == "none"


def test_honest_session_allocates_at_most_9_bytes_per_pulse():
    # The peak of the traced allocations (numpy's included) above the
    # session's start: 1.91 B/pulse, in the interferometers (see the next
    # test).  A process's first session also traces the modules numpy
    # imports on first use.
    n = 2**20
    peak = traced(run_session, SessionConfig(n_pulses=n, seed=2))[1]
    assert peak <= 9 * n, peak / n


def test_honest_session_peak_stays_below_alice_outputs():
    # Building Alice's two outputs from the channel's modes, one at a
    # time, peaked at 7.0 B/pulse; carrying the train as her outputs left
    # 5.25, at Bob's quarters, whose take cast its byte index to intp.  Now
    # the train holds Bob's quarters (1 B/pulse, output 1's phase column
    # too) and Alice's packed secret (0.125): her level and phase columns
    # are one zero_column, her secret is unpacked only where an attack
    # reads it, Bob's quarters are decoded a block at a time and her
    # monitor counts a one-entry table by the train's length.  The peak,
    # 1.91, is in the interferometers' candidate blocks.  The bound allows
    # 0.75 B/pulse, 0.75 MiB here, for numpy's own allocations and a
    # process's first session.
    n = 2**20
    peak = traced(run_session, SessionConfig(n_pulses=n, seed=2))[1]
    assert peak <= (1.91 + 0.75) * n, peak / n


# Bounds on the traced peak of an attacked session at 2**18 pulses, in
# B/pulse: the measured peak plus 0.75 B/pulse, as above.  Beam-split
# counts its pulses per pair of levels and peaks at 2.39 (gathering a
# float64 mean per pulse, 21.0).  Each attack's peak fell by 0.9 to 2.9
# B/pulse with the honest train's (Alice's zero_column and packed secret,
# Bob's quarters as output 1's phases).  Intercept-resend and mode
# discrimination read output 1's phases as the coherent light's, and mode
# discrimination frees its phase differences and informative mask once
# Eve's estimates are made and turns her guess into its output-1 mask in
# place (13.03 and 21.04 when they selected the phases pulse by pulse from
# both outputs and held every column to the end, 16.03 with a new mask).
ATTACK_PEAK_BOUNDS = {"intercept-resend": 10.61 + 0.75, "beam-split": 2.39 + 0.75,
                      "mode-discrimination": 13.16 + 0.75, "trojan": 9.16 + 0.75,
                      "bright-light": 5.28 + 0.75}


@pytest.mark.parametrize("kind", sorted(ATTACK_PEAK_BOUNDS))
def test_attacked_session_peak_per_pulse(kind):
    # A small session first, so that the traced one holds no first-use
    # imports of the attack's path.
    run_session(SessionConfig(n_pulses=3000, seed=2), ATTACK_KINDS[kind]())
    n = 2**18
    peak = traced(run_session, SessionConfig(n_pulses=n, seed=2), ATTACK_KINDS[kind]())[1]
    assert peak <= ATTACK_PEAK_BOUNDS[kind] * n, peak / n


def test_monitors_keep_no_per_gate_record():
    # Each monitor counts its gates per table entry and draws one binomial
    # per entry; on a one-entry table that is one binomial.  A bool record
    # of every gate would take 1 B/gate, and Alice's output 2 2 B/gate.
    n = 2**20
    cfg = SessionConfig(n_pulses=n, seed=2)
    rng = np.random.default_rng(cfg.seed)
    batch = alice_prepare(cfg, rng).propagated(cfg.transmittance_oneway, rng)
    batch = modulate_batch(batch, protocol.bob_quarters(n, rng))
    for monitor in (bob_monitor_tap, alice_thermal_monitor):
        peak = traced(monitor, batch, cfg, rng)[1]
        assert peak < 0.5 * n, (monitor.__name__, peak / n)
    peak = traced(protocol.monitor_clicks, np.array([0.3]), np.zeros(n, dtype=np.uint8), rng)[1]
    assert peak < 0.5 * n, ("one-entry table", peak / n)


def test_config_validation():
    with pytest.raises(ConfigError):
        SessionConfig(n_pulses=1)
    with pytest.raises(ConfigError):
        SessionConfig(tap_reflectance=1.0)
    with pytest.raises(ConfigError):
        SessionConfig(qber_sample_fraction=0.0)
    with pytest.raises(ConfigError):
        SessionConfig(transmittance_oneway=1.1)


@pytest.mark.parametrize("name", ["mu_coherent", "mu_thermal", "transmittance_oneway",
                                  "tap_reflectance", "z_threshold", "qber_threshold",
                                  "qber_sample_fraction"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_config_rejects_non_finite(name, value):
    with pytest.raises(ConfigError):
        SessionConfig(**{name: value})


@pytest.mark.parametrize("name", ["mu_coherent", "mu_thermal", "transmittance_oneway",
                                  "tap_reflectance", "z_threshold", "qber_threshold",
                                  "qber_sample_fraction"])
@pytest.mark.parametrize("value", ["0.2", None, True, 0.2j, [0.2]])
def test_config_rejects_non_real_numbers(name, value):
    with pytest.raises(ConfigError, match=f"{name} must be a finite real number"):
        SessionConfig(**{name: value})


@pytest.mark.parametrize("value", [2.5, 1000.0, "1000", True])
def test_config_rejects_non_integer_pulse_count(value):
    with pytest.raises(ConfigError):
        SessionConfig(n_pulses=value)


def test_config_rejects_a_pulse_count_beyond_numpy_array_sizes():
    # A longer train cannot be drawn: numpy stops at its largest array size
    # with "Maximum allowed dimension exceeded" halfway through the run.
    n_max = np.iinfo(np.intp).max
    for n in (n_max + 1, 10**20):
        with pytest.raises(ConfigError, match=f"n_pulses must be <= {n_max}"):
            SessionConfig(n_pulses=n)
    assert SessionConfig(n_pulses=n_max).n_pulses == n_max


def test_config_accepts_numpy_integers():
    cfg = SessionConfig(n_pulses=np.int64(1000), seed=np.int64(3))
    doc = json.loads(run_session(cfg).to_json())
    assert doc["config"]["n_pulses"] == 1000 and doc["counts"]["sent"] == 1000


@pytest.mark.parametrize("value", [1.5, -1])
def test_config_rejects_bad_seed(value):
    with pytest.raises(ConfigError):
        SessionConfig(seed=value)


def test_config_rejects_degenerate_monitor_expectation():
    dark_free = DetectorModel(0.1, 0.0)
    # Alice's thermal monitor would expect exactly 0 clicks.
    with pytest.raises(ConfigError):
        SessionConfig(mu_thermal=0.0, detector_alice=dark_free)
    # Bob's tap monitor would expect exactly 0 clicks.
    with pytest.raises(ConfigError):
        SessionConfig(mu_coherent=0.0, mu_thermal=0.0, detector_bob=dark_free)
    # Without a tap Bob has no monitor, so his expectation is not checked.
    SessionConfig(mu_coherent=0.0, mu_thermal=0.0, tap_reflectance=0.0, detector_bob=dark_free)


def test_thermal_layer_transparent_to_bob_phase():
    # bit-exact: the thermal fields after modulation equal the inputs
    cfg = SessionConfig(n_pulses=3000, seed=41)
    rng = np.random.default_rng(cfg.seed)
    batch = alice_prepare(cfg, rng)
    quarters = rng.integers(0, 4, cfg.n_pulses)
    modulated = modulate_batch(batch, quarters)
    for old, new in ((batch.out1, modulated.out1), (batch.out2, modulated.out2)):
        assert new.level is old.level and new.kind is old.kind and new.param is old.param
    assert np.all(modulated.out2.quarter == 0)

    # statistical: monitor clicks independent of Bob's phase choice
    out2 = modulated.propagated(cfg.transmittance_oneway, rng).out2
    det = cfg.detector_alice
    p_click = 1 - (1 - det.dark_prob) * out2.noclick_factors(det.eta)[out2.level]
    clicks = rng.random(cfg.n_pulses) < p_click
    table = np.zeros((4, 2), dtype=int)
    for q in range(4):
        sel = quarters == q
        table[q, 0] = np.sum(clicks[sel])
        table[q, 1] = np.sum(~clicks[sel])
    assert chi2_contingency(table + 1).pvalue > 0.01


def test_stages_build_new_batches_that_share_unchanged_arrays():
    cfg = SessionConfig(n_pulses=1000, seed=2)
    rng = np.random.default_rng(cfg.seed)
    batch = alice_prepare(cfg, rng)
    snapshot = [a.copy() for a in (batch.mode_secret, batch.out1.quarter, batch.out2.param)]
    lossy = batch.propagated(0.5, rng)
    modulated = modulate_batch(lossy, rng.integers(0, 4, cfg.n_pulses))
    for new in (lossy, modulated):
        assert new is not batch
        assert new.mode_secret is batch.mode_secret
        assert new.out1.level is batch.out1.level and new.out1.kind is batch.out1.kind
    assert lossy.bob_quarter is batch.bob_quarter
    assert modulated.propagated(0.5, rng).bob_quarter is modulated.bob_quarter
    assert np.shares_memory(modulated.out2.param, lossy.out2.param)
    for old, now in zip(snapshot, (batch.mode_secret, batch.out1.quarter, batch.out2.param)):
        assert np.array_equal(old, now)


@pytest.mark.parametrize("kind", sorted(ATTACK_KINDS))
def test_every_default_train_reaches_the_interferometers_as_a_table(monkeypatch, kind):
    # A train with more levels would read per-pair columns once its table
    # outnumbers the pairs.  Recorded: the table the session draws from, and
    # the column each block of candidate pairs reads in it (intp, the index
    # type take reads without a cast).  Bright light's table has five flat
    # outcome rows, so its candidates read no column at all.  The memos are
    # cleared first, so the session builds its table rather than reading one
    # an earlier session stored.
    for memo in protocol._MEMOS:
        memo.cache_clear()
    tables, columns = [], []
    real_probs, real_columns = protocol.state_pair_probs, protocol._pair_columns

    def recording_probs(levels, s_prev, s_curr, det):
        p = real_probs(levels, s_prev, s_curr, det)
        tables.append((p.shape, (4 * levels.kind.size) ** 2))
        return p

    def recording_columns(*args):
        column = real_columns(*args)
        columns.append(column.dtype)
        return column

    monkeypatch.setattr(protocol, "state_pair_probs", recording_probs)
    monkeypatch.setattr(protocol, "_pair_columns", recording_columns)
    cls = ATTACK_KINDS[kind]
    run_session(SessionConfig(n_pulses=3000, seed=5), cls() if cls else None)
    [(shape, entries)] = tables
    assert shape == (4, entries) and entries <= 256
    if kind == "bright-light":
        assert columns == []
    else:
        assert columns and set(columns) == {np.dtype(np.intp)}

