"""Eve strategies: each attack's signature on the two monitor layers, the
25% intercept-resend error rate against an exhaustive enumeration oracle,
and the information ceilings the mode secret imposes."""

import dataclasses
import math

import numpy as np
import pytest

from ctqkd.attacks import (
    Attack,
    BeamSplit,
    BrightLight,
    InterceptResend,
    ModeDiscrimination,
    TrojanHorse,
    eve_information_summary,
    mode_discrimination_batch,
)
from ctqkd.detector import DetectorModel, click_prob_coherent, click_prob_thermal, samples_needed
from ctqkd.light import Coherent, FockN, Thermal
from ctqkd.protocol import ConfigError, SessionConfig, alice_prepare, run_session

IDEAL = DetectorModel(eta=1.0, dark_prob=0.0)


def intercept_resend_enumeration(cfg: SessionConfig, resend_mu: float):
    """Independent oracle: exhaustively enumerate (Eve basis, Bob phase
    difference, Eve port coin, Alice click pattern) with exact probabilities.

    Detector means use the cosine port form mu/4 (1 +/- cos(delta - offset))
    directly, so this path shares no code with the simulator's amplitude
    arithmetic.  Returns (expected QBER, expected Eve-correct fraction,
    kept events per pair).
    """
    det = cfg.detector_alice
    mu = resend_mu * cfg.transmittance_oneway

    def p_click(mean):
        return 1.0 - (1.0 - det.dark_prob) * math.exp(-det.eta * mean)

    total = err = eve_right = 0.0
    for eve_basis in (0, 1):
        for bob_delta in range(4):
            for coin in (0, 1):
                w = 0.5 * 0.25 * 0.5
                matched = (bob_delta % 2) == eve_basis
                delta_hat = bob_delta if matched else (eve_basis + 2 * coin) % 4
                ps = []
                for basis in (0, 1):
                    c = math.cos((delta_hat - basis) * math.pi / 2)
                    ps.append(p_click(mu / 4 * (1 + c)))
                    ps.append(p_click(mu / 4 * (1 - c)))
                bob_basis = bob_delta % 2
                bob_bit = ((bob_delta - bob_basis) % 4) == 2
                eve_bit = ((delta_hat - eve_basis) % 4) == 2
                for d in range(4):
                    if (d >> 1) != bob_basis:
                        continue  # mismatched basis, sifted out
                    prob = 1.0
                    for j in range(4):
                        prob *= ps[j] if j == d else 1.0 - ps[j]
                    kept = w * prob
                    total += kept
                    if (d & 1) != bob_bit:
                        err += kept
                    if eve_bit == bob_bit:
                        eve_right += kept
    return err / total, eve_right / total, total


def test_enumeration_oracle_reference_point():
    qber, eve_frac, kept = intercept_resend_enumeration(SessionConfig(), 2.0)
    assert 0.23 < qber < 0.27
    assert qber == pytest.approx(0.2472, abs=2e-4)
    assert eve_frac == pytest.approx(0.7528, abs=2e-4)


def test_intercept_resend_qber_matches_enumeration():
    cfg0 = SessionConfig(n_pulses=3 * 10**4)
    qber_exp, frac_exp, _ = intercept_resend_enumeration(cfg0, 2.0)
    errors = total = 0
    fracs = []
    for seed in range(8):
        res = run_session(SessionConfig(n_pulses=3 * 10**4, seed=100 + seed), InterceptResend())
        errors += int(np.sum(res.sifted_key_alice != res.sifted_key_bob))
        total += len(res.sifted_key_alice)
        fracs.append(res.eve.guessed_bits_correct_fraction)
    pooled = errors / total
    sigma = math.sqrt(qber_exp * (1 - qber_exp) / total)
    assert total > 10**4
    assert abs(pooled - qber_exp) <= 4 * sigma
    assert abs(np.mean(fracs) - frac_exp) <= 4 * math.sqrt(frac_exp * (1 - frac_exp) / total)


def test_intercept_resend_eve_is_never_sure():
    res = run_session(SessionConfig(n_pulses=3 * 10**4, seed=7), InterceptResend())
    assert abs(res.eve.guessed_bits_correct_fraction - 0.75) <= 0.02


def test_intercept_resend_trips_thermal_monitor():
    cfg = SessionConfig()
    p_t = cfg.expected_alice_thermal_p()
    p_c = click_prob_coherent(cfg.detector_alice, 2.0 * cfg.transmittance_oneway)
    n_star = samples_needed(p_t, p_c, cfg.z_threshold)
    n = max(n_star, 1000)
    for seed in range(5):
        res = run_session(SessionConfig(n_pulses=n, seed=seed), InterceptResend())
        assert "alice_power" in res.alarm_sources
        assert res.bob_monitor.passed  # forward leg untouched


def test_beam_split_vanishing_tap_is_identity_limit():
    cfg = SessionConfig(n_pulses=10**4, seed=3)
    res_tap = run_session(cfg, BeamSplit(tap_fraction=1e-9))
    res_none = run_session(cfg, None)
    assert res_tap.counts["sifted"] == res_none.counts["sifted"]
    assert res_tap.qber == res_none.qber


def test_beam_split_reduces_key_rate_by_tap():
    sifted_honest = sifted_tapped = 0
    for seed in range(10):
        cfg = SessionConfig(n_pulses=2 * 10**4, seed=seed)
        sifted_honest += run_session(cfg, None).counts["sifted"]
        sifted_tapped += run_session(cfg, BeamSplit(0.5)).counts["sifted"]
    ratio = sifted_tapped / sifted_honest
    assert 0.42 < ratio < 0.58


def test_beam_split_alarm_at_separation_count():
    cfg = SessionConfig()
    mu_t = cfg.mu_thermal_at_alice()
    n_star = samples_needed(
        click_prob_thermal(cfg.detector_alice, mu_t),
        click_prob_thermal(cfg.detector_alice, mu_t / 2),
        cfg.z_threshold,
    )
    for seed in range(5):
        res = run_session(SessionConfig(n_pulses=n_star, seed=seed), BeamSplit(0.5))
        assert "alice_power" in res.alarm_sources
        assert res.alice_monitor.z_score < -cfg.z_threshold


def test_mode_discrimination_bayes_error_reference():
    pulse_cfg = SessionConfig(n_pulses=2, seed=0)
    batch = alice_prepare(pulse_cfg, np.random.default_rng(0))
    guess_h, err = mode_discrimination_batch(batch, IDEAL, np.random.default_rng(1))
    p_c, p_t = 1 - math.exp(-0.2), 1 - 1 / 1.2
    expected = 0.5 * (min(p_c, p_t) + min(1 - p_c, 1 - p_t))
    assert err == pytest.approx(expected, abs=1e-12)
    assert err == pytest.approx(0.4927, abs=1e-4)
    assert guess_h.dtype == bool and guess_h.shape == (2,)


def test_mode_discrimination_empirical_accuracy():
    n = 4 * 10**4
    cfg = SessionConfig(n_pulses=n, seed=8)
    batch = alice_prepare(cfg, np.random.default_rng(cfg.seed))
    guess_h, bayes = mode_discrimination_batch(batch, IDEAL, np.random.default_rng(9))
    actual_h = batch.field_h.kind == 1
    accuracy = float(np.mean(guess_h == actual_h))
    expected = 1.0 - bayes
    sigma = math.sqrt(expected * (1 - expected) / n)
    assert abs(accuracy - expected) <= 3 * sigma
    # mode-secret protection: never meaningfully above the single-shot ceiling
    assert accuracy <= expected + 3 * sigma


def test_mode_discrimination_blind_when_rates_match():
    # mu values tuned so coherent and thermal click probabilities coincide
    mu_t = 0.2
    mu_c = math.log(1 + mu_t)
    n = 4 * 10**4
    cfg = SessionConfig(n_pulses=n, seed=10, mu_coherent=mu_c, mu_thermal=mu_t)
    batch = alice_prepare(cfg, np.random.default_rng(cfg.seed))
    guess_h, bayes = mode_discrimination_batch(batch, IDEAL, np.random.default_rng(11))
    assert bayes == pytest.approx(0.5, abs=1e-9)
    accuracy = float(np.mean(guess_h == (batch.field_h.kind == 1)))
    assert accuracy <= 0.51


def test_mode_discrimination_attack_trips_alice_side():
    res = run_session(SessionConfig(n_pulses=2 * 10**4, seed=12), ModeDiscrimination())
    assert "alice_power" in res.alarm_sources


def test_trojan_single_photon_probe_learns_nothing():
    for seed in range(3):
        res = run_session(
            SessionConfig(n_pulses=5000, seed=seed), TrojanHorse(probe=FockN(1))
        )
        assert res.eve.learned_phase_count == 0


def test_trojan_bright_probe_flags_bob():
    res = run_session(
        SessionConfig(n_pulses=10**4, seed=2), TrojanHorse(probe=Coherent(math.sqrt(10.0)))
    )
    assert "bob_power" in res.alarm_sources
    assert res.bob_monitor.z_score > 5


def test_trojan_two_photon_probe_flags_bob_at_separation_count():
    cfg = SessionConfig()
    det = cfg.detector_bob
    eta_r = det.eta * cfg.tap_reflectance
    p_probe = 1 - (1 - det.dark_prob) * (1 - eta_r) ** 2
    n_star = samples_needed(cfg.expected_bob_monitor_p(), p_probe, cfg.z_threshold)
    assert n_star <= 10**4
    for seed in range(5):
        res = run_session(SessionConfig(n_pulses=n_star, seed=seed), TrojanHorse(probe=FockN(2)))
        assert "bob_power" in res.alarm_sources


def test_trojan_keeps_alice_side_clean():
    # Eve modulates the stored pulses with the phases she learned, so the
    # key layer and the thermal layer look nominal from Alice's side.
    res = run_session(
        SessionConfig(n_pulses=5 * 10**4, seed=13), TrojanHorse(probe=Coherent(math.sqrt(10.0)))
    )
    assert res.qber is not None and res.qber < 0.05
    assert res.alice_monitor.passed
    assert res.eve.learned_phase_count > 0.99 * 5 * 10**4
    assert res.eve.guessed_bits_correct_fraction > 0.98


def test_bright_light_full_saturation():
    res = run_session(SessionConfig(n_pulses=5000, seed=4), BrightLight(forced_click_prob=1.0))
    assert res.alice_monitor.observed_stat == 0.0
    assert "alice_power" in res.alarm_sources
    # saturated receiver: every pair is a double click, nothing sifts
    assert res.counts["sifted"] == 0
    assert res.qber is None


def test_bright_light_near_saturation_alarm():
    for seed in range(5):
        res = run_session(SessionConfig(n_pulses=10**4, seed=seed), BrightLight(0.999))
        assert "alice_power" in res.alarm_sources
        assert res.alice_monitor.observed_stat <= 0.01


def test_bright_light_matched_level_evades_monitor():
    # Documented residual-risk boundary: blinding tuned exactly to the
    # expected thermal click rate leaves the power monitor silent (while
    # giving Eve no detector control at that level).
    cfg = SessionConfig(n_pulses=2 * 10**4, seed=6)
    res = run_session(cfg, BrightLight(cfg.expected_alice_thermal_p()))
    assert "alice_power" not in res.alarm_sources


def test_base_attack_is_transparent():
    cfg = SessionConfig(n_pulses=10**4, seed=15)
    via_hooks = run_session(cfg, Attack())
    plain = run_session(cfg, None)
    assert np.array_equal(via_hooks.sifted_key_alice, plain.sifted_key_alice)
    assert via_hooks.qber == plain.qber
    assert via_hooks.alice_monitor == plain.alice_monitor
    assert via_hooks.alarm == plain.alarm


def test_attack_parameter_validation():
    with pytest.raises(ValueError):
        InterceptResend(resend_mu=0.0)
    with pytest.raises(ValueError):
        BeamSplit(tap_fraction=1.0)
    with pytest.raises(ValueError):
        BrightLight(forced_click_prob=0.0)
    for bad in (lambda: InterceptResend(resend_mu=math.nan),
                lambda: InterceptResend(resend_mu=math.inf),
                lambda: ModeDiscrimination(resend_mu=-1.0),
                lambda: ModeDiscrimination(eve_det=0.5),
                lambda: TrojanHorse(probe=0.5),
                lambda: dataclasses.replace(BeamSplit(), tap_fraction=1.5),
                lambda: dataclasses.replace(InterceptResend(), resend_mu=-1.0)):
        with pytest.raises(ConfigError):
            bad()


def test_attack_params_are_init_fields_and_state_resets():
    assert InterceptResend(3.0).params() == {"resend_mu": 3.0}
    assert BeamSplit(0.25).params() == {"tap_fraction": 0.25}
    assert BrightLight(0.5).params() == {"forced_click_prob": 0.5}
    assert ModeDiscrimination(1.5, DetectorModel(0.5, 1e-3)).params() == {
        "resend_mu": 1.5, "eve_eta": 0.5, "eve_dark_prob": 1e-3}
    assert TrojanHorse(FockN(2)).params() == {"probe": "FockN(n=2)"}
    used = TrojanHorse()
    run_session(SessionConfig(n_pulses=2000, seed=1), used)
    assert used.learned_phase_count > 0
    variant = dataclasses.replace(used, probe=FockN(1))
    assert variant.learned_phase_count == 0 and variant.probe == FockN(1)


def test_layer_error_assignment():
    # Alice-side alarms for types I, II and IV; Bob-side for type III.
    n = 3 * 10**4
    for attack in (InterceptResend(), BeamSplit(0.5), ModeDiscrimination(), BrightLight(0.999)):
        res = run_session(SessionConfig(n_pulses=n, seed=20), attack)
        assert ("qber" in res.alarm_sources) or ("alice_power" in res.alarm_sources), attack.label
    res = run_session(SessionConfig(n_pulses=n, seed=20), TrojanHorse())
    assert res.alarm_sources == ("bob_power",)


def test_eve_information_summary_rows():
    cfg = SessionConfig(n_pulses=10**4, seed=30)
    baseline = run_session(cfg, None)
    row = eve_information_summary(baseline)
    assert row["alarm"] == "none" and row["eve_correct_fraction"] == 0.0

    attacked = run_session(cfg, InterceptResend())
    row = eve_information_summary(attacked)
    assert row["attack"] == "intercept-resend"
    assert "alice_power" in row["alarm_sources"]
    assert 0.5 < row["eve_correct_fraction"] < 1.0

    trojan = run_session(cfg, TrojanHorse())
    row = eve_information_summary(trojan)
    assert row["alarm"] == "bob_power"
    assert row["eve_learned_phases"] > 0
