"""Session state machine: preparation, modulation, mode separation, the
interferometric measurement, sifting and the end-to-end run."""

import json
import math

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from ctqkd.detector import DetectorModel, samples_needed
from ctqkd.light import KIND_COHERENT, KIND_THERMAL, Blinding, Coherent, FieldArray, Thermal
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

CFG_SMALL = SessionConfig(n_pulses=2000, seed=5)


def make_batch(n=1, assign=0, rot=0, field_h=Coherent(math.sqrt(0.2)), field_v=Thermal(0.2)):
    """n pulses with the given secret bits and the same field in each mode."""
    return PulseBatch(np.broadcast_to(assign, n), np.broadcast_to(rot, n),
                      FieldArray.uniform(field_h, n), FieldArray.uniform(field_v, n))


# --- preparation -----------------------------------------------------------


def test_prepare_is_deterministic():
    cfg = SessionConfig(n_pulses=4, seed=123)
    a = alice_prepare(cfg, np.random.default_rng(cfg.seed))
    b = alice_prepare(cfg, np.random.default_rng(cfg.seed))
    assert np.array_equal(a.mode_assignment, b.mode_assignment)
    assert np.array_equal(a.rotation_quarter, b.rotation_quarter)
    assert np.array_equal(a.field_h.kind, b.field_h.kind)


def test_prepare_fair_bits():
    cfg = SessionConfig(n_pulses=10**5, seed=2)
    batch = alice_prepare(cfg, np.random.default_rng(cfg.seed))
    sigma3 = 3 * math.sqrt(0.25 / cfg.n_pulses)
    assert abs(batch.mode_assignment.mean() - 0.5) <= sigma3
    assert abs(batch.rotation_quarter.mean() - 0.5) <= sigma3
    coh_in_h = batch.field_h.kind == 1
    assert abs(coh_in_h.mean() - 0.5) <= sigma3


def test_prepare_each_pulse_has_one_coherent_one_thermal():
    cfg = SessionConfig(n_pulses=500, seed=9)
    batch = alice_prepare(cfg, np.random.default_rng(cfg.seed))
    for kind_h, kind_v in zip(batch.field_h.kind, batch.field_v.kind):
        assert {kind_h, kind_v} == {KIND_COHERENT, KIND_THERMAL}


# --- Bob's modulation ------------------------------------------------------


def test_modulate_zero_phase_records_only():
    batch = make_batch()
    assert batch.bob_quarter is None
    out = modulate_batch(batch, np.array([0]))
    assert out.field_h.field(0) == Coherent(math.sqrt(0.2))
    assert out.field_v.field(0) == Thermal(0.2)
    assert out.bob_quarter.tolist() == [0]


def test_modulate_pi_flips_coherent_sign():
    out = modulate_batch(make_batch(), np.array([2]))
    assert out.field_h.field(0).amplitude == pytest.approx(-math.sqrt(0.2), abs=1e-15)


def test_modulate_leaves_thermal_bit_exact():
    batch = make_batch(4)
    out = modulate_batch(batch, np.arange(4))
    assert out.field_v.param.tobytes() == batch.field_v.param.tobytes()
    assert [out.field_v.field(i) for i in range(4)] == [Thermal(0.2)] * 4


# --- channel ---------------------------------------------------------------


def test_propagate_identity():
    out = make_batch().propagated(1.0)
    assert out.field_h.field(0) == Coherent(math.sqrt(0.2))
    assert out.field_v.field(0) == Thermal(0.2)


def test_propagate_scales_both_modes():
    out = make_batch().propagated(0.5)
    assert out.field_h.field(0).mean_photons == pytest.approx(0.1, abs=1e-12)
    assert out.field_v.field(0) == Thermal(0.1)


# --- mode separation -------------------------------------------------------


def test_separation_honest_exhaustive():
    # all four (wiring, rotation) combinations route coherent to output 1
    assign, rot = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])
    coh_in_h = (assign ^ rot) == 0
    coherent, thermal = FieldArray.uniform(Coherent(1.0), 4), FieldArray.uniform(Thermal(0.2), 4)
    batch = PulseBatch(assign, rot, FieldArray.where(coh_in_h, coherent, thermal),
                       FieldArray.where(coh_in_h, thermal, coherent))
    out1, out2 = separate_modes(batch)
    assert [out1.field(i) for i in range(4)] == [Coherent(1.0)] * 4
    assert [out2.field(i) for i in range(4)] == [Thermal(0.2)] * 4


def test_separation_of_identical_substituted_fields():
    eve_field = Coherent(2.0)
    batch = PulseBatch([0, 0, 1, 1], [0, 1, 0, 1], FieldArray.uniform(eve_field, 4),
                       FieldArray.uniform(eve_field, 4))
    out1, out2 = separate_modes(batch)
    for i in range(4):
        assert out1.field(i) == eve_field and out2.field(i) == eve_field


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
    batch.field_h = FieldArray.where(guess, eve_coh, eve_th)
    batch.field_v = FieldArray.where(guess, eve_th, eve_coh)
    _, out2 = separate_modes(batch)
    frac_coherent = np.mean(out2.kind == 1)
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
    batch.field_h = FieldArray.uniform(Coherent(math.sqrt(10.0)), len(batch))
    batch.field_v = FieldArray.vacuum(len(batch))
    outcome = bob_monitor_tap(batch, cfg, rng)
    assert not outcome.passed and outcome.z_score > 5


def test_bob_monitor_flags_vacuum_substitution():
    # Bob's expected rate is small (eta*r*mu), so separating it from the
    # bare dark-count floor takes more gates than the other checks.
    cfg = SessionConfig(n_pulses=10**5, seed=23)
    rng = np.random.default_rng(cfg.seed)
    batch = _bob_ready_batch(cfg, rng)
    batch.field_h = FieldArray.vacuum(len(batch))
    batch.field_v = FieldArray.vacuum(len(batch))
    outcome = bob_monitor_tap(batch, cfg, rng)
    assert not outcome.passed and outcome.z_score < -5


def test_thermal_monitor_honest_passes():
    cfg = SessionConfig(n_pulses=10**4, seed=24)
    rng = np.random.default_rng(cfg.seed)
    fields = FieldArray.thermal(np.full(cfg.n_pulses, cfg.mu_thermal_at_alice()))
    assert alice_thermal_monitor(fields, cfg, rng).passed


def test_thermal_monitor_blinded_band_statistic():
    cfg = SessionConfig(n_pulses=10**4, seed=25)
    rng = np.random.default_rng(cfg.seed)
    fields = FieldArray.uniform(Blinding(1.0), cfg.n_pulses)
    outcome = alice_thermal_monitor(fields, cfg, rng)
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
    outcome = alice_thermal_monitor(fields, cfg, rng)
    assert not outcome.passed


# --- interferometer --------------------------------------------------------


def test_interferometer_means_aligned_phase():
    mu = 0.3
    a = np.array([math.sqrt(mu) + 0j])
    means = port_means(a, a)[:, 0]
    assert means[0] == pytest.approx(mu / 2, abs=1e-12)  # D0A
    assert means[1] == pytest.approx(0.0, abs=1e-12)  # D1A
    assert means[2] == pytest.approx(mu / 4, abs=1e-12)  # D0B
    assert means[3] == pytest.approx(mu / 4, abs=1e-12)  # D1B


def test_interferometer_means_opposite_phase():
    a = np.array([math.sqrt(0.3) + 0j])
    means = port_means(a, -a)[:, 0]
    assert means[0] == pytest.approx(0.0, abs=1e-12)
    assert means[1] == pytest.approx(0.3 / 2, abs=1e-12)


def test_interferometer_energy_conservation():
    mu = 0.41
    a = math.sqrt(mu)
    means = port_means(np.full(4, a + 0j), a * 1j ** np.arange(4))
    assert means.shape == (4, 4)
    for q in range(4):
        assert means[:, q].sum() == pytest.approx(mu, abs=1e-12)


def test_interferometer_measure_deterministic_port():
    # Ideal detector, opposite phases: the only possible single click in
    # basis A is D1A.
    det = DetectorModel(eta=1.0, dark_prob=0.0)
    out1 = FieldArray.coherent(2.0 * (-1.0) ** np.arange(101))
    meas = measure_interference(out1, np.full(100, 2), det, np.random.default_rng(3))
    assert np.all(meas["delta_q"] == 2)
    seen = {(int(b), int(p)) for b, p in zip(meas["basis_q"][meas["single"]],
                                             meas["port"][meas["single"]])}
    assert (0, 0) not in seen
    assert (0, 1) in seen


# --- sifting ---------------------------------------------------------------


def _meas(single, basis_q, port, delta_q):
    return {
        "single": np.asarray(single, dtype=bool),
        "double": np.zeros(len(single), dtype=bool),
        "basis_q": np.asarray(basis_q, dtype=np.int8),
        "port": np.asarray(port, dtype=np.uint8),
        "delta_q": np.asarray(delta_q, dtype=np.int64),
    }


def test_sift_matched_event_bits():
    cfg = SessionConfig(n_pulses=10, seed=0, qber_sample_fraction=0.5)
    # one matched event: basis A, delta pi, click D1 -> both bits 1
    meas = _meas([True, True], [0, 0], [1, 1], [2, 2])
    out = sift_and_qber(meas, cfg, np.random.default_rng(1))
    assert out.pair_indices.size == 2
    assert out.qber == 0.0
    assert list(out.alice_bits) == [1, 1] and list(out.bob_bits) == [1, 1]


def test_sift_drops_mismatched_basis():
    cfg = SessionConfig(n_pulses=10, seed=0)
    meas = _meas([True, True], [0, 1], [0, 0], [1, 0])  # A with pi/2, B with 0
    out = sift_and_qber(meas, cfg, np.random.default_rng(1))
    assert out.pair_indices.size == 0
    assert out.qber is None


def test_sift_discloses_and_strips_sample():
    cfg = SessionConfig(n_pulses=10, seed=0, qber_sample_fraction=0.25)
    k = 40
    meas = _meas([True] * k, [0] * k, [0] * k, [0] * k)
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


@pytest.mark.parametrize("value", [2.5, 1000.0, "1000", True])
def test_config_rejects_non_integer_pulse_count(value):
    with pytest.raises(ConfigError):
        SessionConfig(n_pulses=value)


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
    th_mask = batch.field_h.kind == 2
    assert np.array_equal(modulated.field_h.param[th_mask], batch.field_h.param[th_mask])
    assert np.array_equal(modulated.field_h.kind, batch.field_h.kind)

    # statistical: monitor clicks independent of Bob's phase choice
    batch2 = modulated.propagated(cfg.transmittance_oneway, rng)
    _, out2 = separate_modes(batch2)
    det = cfg.detector_alice
    p_click = 1 - (1 - det.dark_prob) * out2.noclick_factors(det.eta)
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
    snapshot = [a.copy() for a in (batch.mode_assignment, batch.rotation_quarter,
                                   batch.field_h.amp, batch.field_v.param)]
    lossy = batch.propagated(0.5, rng)
    modulated = modulate_batch(lossy, rng.integers(0, 4, cfg.n_pulses))
    for new in (lossy, modulated):
        assert new is not batch
        assert np.shares_memory(new.mode_assignment, batch.mode_assignment)
        assert np.shares_memory(new.rotation_quarter, batch.rotation_quarter)
        assert np.shares_memory(new.field_h.kind, batch.field_h.kind)
    assert lossy.bob_quarter is batch.bob_quarter
    assert modulated.propagated(0.5, rng).bob_quarter is modulated.bob_quarter
    assert np.shares_memory(modulated.field_v.param, lossy.field_v.param)
    for old, now in zip(snapshot, (batch.mode_assignment, batch.rotation_quarter,
                                   batch.field_h.amp, batch.field_v.param)):
        assert np.array_equal(old, now)
