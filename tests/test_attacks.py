"""Eve strategies: each attack's signature on the two monitor layers, the
25% intercept-resend error rate against the exhaustive enumeration of
ctqkd.expect, and the information ceilings the mode secret imposes."""

import copy
import dataclasses
import math

import numpy as np
import pytest
import scipy.stats

from ctqkd import attacks, expect
from ctqkd.attacks import (
    Attack,
    BeamSplit,
    BrightLight,
    InterceptResend,
    ModeDiscrimination,
    TrojanHorse,
    _dps_phase_estimates,
    _resend_train,
    eve_information_summary,
)
from ctqkd.detector import DetectorModel, click_prob_coherent, click_prob_thermal, samples_needed
from ctqkd.light import KIND_COHERENT, KIND_THERMAL, KIND_VACUUM, Coherent, FieldArray, FockN, Thermal
from ctqkd.protocol import (
    ALARM_BOB_POWER,
    ConfigError,
    SessionConfig,
    alice_prepare,
    bob_quarters,
    fair_bits,
    modulate_batch,
    run_session,
    separate_modes,
)
from test_blocks import _batch, _dense, assert_same_pulses

IDEAL = DetectorModel(eta=1.0, dark_prob=0.0)


def guess_prepared_modes(cfg: SessionConfig, seed: int):
    """Mode discrimination's return hook with an ideal detector, at rng
    seed, on the train Alice prepares at cfg's seed: (1 where Eve guessed
    the coherent mode, the Bayes error).  She resends on output 1 exactly
    where she guessed right, so there output 2 is still thermal."""
    batch = alice_prepare(cfg, np.random.default_rng(cfg.seed))
    out, (_, bayes) = ModeDiscrimination(eve_det=IDEAL).apply_return(
        batch, None, cfg, np.random.default_rng(seed))
    return out.out2.kind[out.out2.level] == KIND_THERMAL, bayes


def test_enumeration_oracle_reference_point():
    probs = expect.pair_probs(SessionConfig(), InterceptResend(2.0))
    assert 0.23 < probs.qber < 0.27
    assert probs.qber == pytest.approx(0.2472, abs=2e-4)
    assert probs.eve_correct == pytest.approx(0.7528, abs=2e-4)


def test_intercept_resend_qber_matches_enumeration():
    probs = expect.pair_probs(SessionConfig(n_pulses=3 * 10**4), InterceptResend(2.0))
    qber_exp, frac_exp = probs.qber, probs.eve_correct
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


@pytest.mark.parametrize("with_informative", [False, True])
def test_dps_phase_estimates_equal_the_int64_modulo_formula(with_informative):
    # The uint8 & arithmetic against the int64 % formula it replaced, on
    # every (delta, basis, coin, informative) combination, drawing the same
    # stream.
    m = 4000
    gen = np.random.default_rng(31)
    delta = gen.integers(0, 4, m).astype(np.uint8)
    informative = gen.integers(0, 2, m).astype(bool) if with_informative else None
    rng, ref = np.random.default_rng(8), np.random.default_rng(8)
    basis, delta_hat, bits = _dps_phase_estimates(delta, rng, informative)

    drawn = fair_bits(2 * m, ref).astype(np.int64)  # the basis bits, then the coins
    basis_ref, coin = drawn[:m], drawn[m:]
    conclusive = (delta.astype(np.int64) % 2) == basis_ref
    if informative is not None:
        conclusive &= informative
    delta_ref = np.where(conclusive, delta, (basis_ref + 2 * coin) % 4)
    bits_ref = (((delta_ref - basis_ref) % 4) == 2).astype(np.uint8)
    assert rng.bit_generator.state == ref.bit_generator.state
    assert basis.dtype == delta_hat.dtype == bits.dtype == np.uint8
    assert np.array_equal(basis, basis_ref) and np.array_equal(delta_hat, delta_ref)
    assert np.array_equal(bits, bits_ref)
    flags = np.ones(m, dtype=bool) if informative is None else informative
    seen = set(zip(delta.tolist(), basis_ref.tolist(), coin.tolist(), flags.tolist()))
    assert len(seen) == 4 * 2 * 2 * (2 if with_informative else 1)


def test_resend_train_phases_are_the_cumulative_sum_mod_4():
    # Long enough for the uint8 running sum to wrap many times.
    delta_hat = np.random.default_rng(2).integers(0, 4, 5000).astype(np.uint8)
    train = _resend_train(delta_hat, 2.0)
    want = np.concatenate(([0], np.cumsum(delta_hat.astype(np.int64)) % 4))
    assert train.quarter.dtype == np.uint8 and np.array_equal(train.quarter, want)
    assert train.param.tolist() == [Coherent(math.sqrt(2.0)).mean_photons] and not train.level.any()


def test_intercept_resend_trips_thermal_monitor():
    cfg = SessionConfig()
    p_t = expect.alice_monitor_p(cfg)
    p_c = expect.alice_monitor_p(cfg, InterceptResend(2.0))
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
    n_star = samples_needed(expect.alice_monitor_p(cfg), expect.alice_monitor_p(cfg, BeamSplit(0.5)),
                            cfg.z_threshold)
    for seed in range(5):
        res = run_session(SessionConfig(n_pulses=n_star, seed=seed), BeamSplit(0.5))
        assert "alice_power" in res.alarm_sources
        assert res.alice_monitor.z_score < -cfg.z_threshold


def test_mode_discrimination_bayes_error_reference():
    right, err = guess_prepared_modes(SessionConfig(n_pulses=2, seed=0), 1)
    p_c, p_t = 1 - math.exp(-0.2), 1 - 1 / 1.2
    expected = 0.5 * (min(p_c, p_t) + min(1 - p_c, 1 - p_t))
    assert err == pytest.approx(expected, abs=1e-12)
    assert err == pytest.approx(0.4927, abs=1e-4)
    assert right.dtype == bool and right.shape == (2,)


def test_mode_discrimination_empirical_accuracy():
    n = 4 * 10**4
    right, bayes = guess_prepared_modes(SessionConfig(n_pulses=n, seed=8), 9)
    accuracy = float(np.mean(right))
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
    right, bayes = guess_prepared_modes(cfg, 11)
    assert bayes == pytest.approx(0.5, abs=1e-9)
    accuracy = float(np.mean(right))
    assert accuracy <= 0.51


@pytest.mark.parametrize("train", ["honest"])  # the only train a session gives the hook
def test_mode_discrimination_resends_on_the_guessed_mode(monkeypatch, train):
    # Eve measures the mode she guessed and resends on it; the reference
    # writes this out in the channel's modes and swaps to Alice's outputs.
    # A click of her detector on H says H holds the coherent state where
    # p_c >= p_t, else the thermal one.
    cfg, batch = _batch(train, 3000)
    recorded = {}

    def record(name):
        real = getattr(attacks, name)

        def call(*args):
            result = real(*args)
            # A copy, as the hook may write over the arrays it is given.
            recorded[name] = copy.deepcopy(result)
            return result

        monkeypatch.setattr(attacks, name, call)

    record("sample_blocked")
    record("_resend_train")
    out, _ = ModeDiscrimination().apply_return(batch, None, cfg, np.random.default_rng(1))
    clicks, resend = recorded["sample_blocked"], recorded["_resend_train"]
    p_c = click_prob_coherent(IDEAL, batch.out1.param[0])
    p_t = click_prob_thermal(IDEAL, batch.out2.param[0])
    guess = clicks ^ (p_c < p_t)
    secret = batch.mode_secret
    h, v = separate_modes(secret, batch.out1, batch.out2)
    want1, want2 = separate_modes(secret, FieldArray.where(guess, resend, h), FieldArray.where(guess, v, resend))
    assert_same_pulses(out.out1, want1)
    assert_same_pulses(out.out2, want2)


def test_trojan_forward_puts_the_probe_on_output_1_where_the_mode_secret_is_0():
    cfg = SessionConfig(n_pulses=1000, seed=3)
    batch = alice_prepare(cfg, np.random.default_rng(cfg.seed))
    out, held = TrojanHorse().apply_forward(batch, cfg, None)
    assert held is batch and out.mode_secret is batch.mode_secret
    kind_1, kind_2 = _dense(out.out1)[0], _dense(out.out2)[0]
    probe_on_1 = batch.mode_secret == 0
    assert np.array_equal(kind_1, np.where(probe_on_1, KIND_COHERENT, KIND_VACUUM))
    assert np.array_equal(kind_2, np.where(probe_on_1, KIND_VACUUM, KIND_COHERENT))


def test_trojan_return_keeps_bob_phases_and_turns_alice_train_by_the_learned_ones():
    cfg = SessionConfig(n_pulses=1000, seed=1)
    rng = np.random.default_rng(cfg.seed)
    attack = TrojanHorse(probe=Coherent(1.0))
    probe, held = attack.apply_forward(alice_prepare(cfg, rng), cfg, rng)
    quarters = bob_quarters(cfg.n_pulses, rng)
    out, learned = attack.apply_return(modulate_batch(probe, quarters), held, cfg, rng)
    assert 0 < learned.sum() < learned.size
    assert out.mode_secret is held.mode_secret and np.array_equal(out.bob_quarter, quarters)
    assert np.array_equal(out.out1.quarter, held.out1.phase_shifted(quarters * learned).quarter)


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
    n_star = samples_needed(expect.bob_monitor_p(cfg), p_probe, cfg.z_threshold)
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
    res = run_session(cfg, BrightLight(expect.alice_monitor_p(cfg)))
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
    with pytest.raises(ValueError):  # no FockN probe holds more than 2**53 photons
        TrojanHorse(probe=FockN(10**20))
    for bad in (lambda: InterceptResend(resend_mu=math.nan),
                lambda: InterceptResend(resend_mu=math.inf),
                lambda: ModeDiscrimination(resend_mu=-1.0),
                lambda: ModeDiscrimination(eve_det=0.5),
                lambda: TrojanHorse(probe=0.5),
                lambda: dataclasses.replace(BeamSplit(), tap_fraction=1.5),
                lambda: dataclasses.replace(InterceptResend(), resend_mu=-1.0)):
        with pytest.raises(ConfigError):
            bad()


@pytest.mark.parametrize("make", [lambda: InterceptResend(resend_mu="2.0"),
                                  lambda: ModeDiscrimination(resend_mu=None),
                                  lambda: BeamSplit(tap_fraction="0.5"),
                                  lambda: BrightLight(forced_click_prob=True),
                                  lambda: ModeDiscrimination(eve_det=DetectorModel("1", 0.0))],
                         ids=["resend_mu-str", "resend_mu-none", "tap_fraction-str",
                              "forced_click_prob-bool", "eve_det-eta-str"])
def test_attack_parameters_reject_non_real_numbers(make):
    with pytest.raises(ConfigError, match="must be a finite real number"):
        make()


@pytest.mark.parametrize("mean", [9e18, 1e19, 1e300])
def test_trojan_learns_every_phase_of_a_very_bright_probe(mean):
    # No probe is too bright for Eve's ideal counter: she learns every
    # phase, and Bob's monitor sees it.
    res = run_session(SessionConfig(n_pulses=1000, seed=4), TrojanHorse(probe=Coherent(math.sqrt(mean))))
    assert res.eve.learned_phase_count == 1000
    assert ALARM_BOB_POWER in res.alarm_sources


@pytest.mark.parametrize("probe,law", [
    (Coherent(1.0), scipy.stats.poisson),
    (Coherent(0.3), scipy.stats.poisson),
    (Thermal(1.0), lambda mu: scipy.stats.nbinom(1, 1.0 / (1.0 + mu))),
    (FockN(2), None),
])
def test_trojan_learns_a_phase_where_the_probe_holds_two_photons(probe, law):
    # Eve counts the probe after Bob's tap, which passes 1 - r of it: the
    # learned count lies within 5 standard deviations of the binomial mean
    # at P(N >= 2) of the photon-number law there.
    cfg = SessionConfig(n_pulses=2 * 10**4, seed=6)
    res = run_session(cfg, TrojanHorse(probe=probe))
    t = 1.0 - cfg.tap_reflectance
    p = t * t if law is None else law(probe.mean_photons * t).sf(1)  # FockN(2): both photons pass
    n = cfg.n_pulses
    assert abs(res.eve.learned_phase_count - n * p) <= 5 * math.sqrt(n * p * (1 - p))


def test_attack_params_are_init_fields_and_state_resets():
    assert InterceptResend(3.0).params() == {"resend_mu": 3.0}
    assert BeamSplit(0.25).params() == {"tap_fraction": 0.25}
    assert BrightLight(0.5).params() == {"forced_click_prob": 0.5}
    assert ModeDiscrimination(1.5, DetectorModel(0.5, 1e-3)).params() == {
        "resend_mu": 1.5, "eve_eta": 0.5, "eve_dark_prob": 1e-3}
    assert TrojanHorse(FockN(2)).params() == {"probe": "FockN(n=2)"}
    used = TrojanHorse()
    assert run_session(SessionConfig(n_pulses=2000, seed=1), used).eve.learned_phase_count > 0
    # The run left nothing behind: the fields are the parameters, and only they.
    assert [f.name for f in dataclasses.fields(used)] == ["probe"]
    assert used == TrojanHorse() and vars(used) == {"probe": TrojanHorse().probe}
    variant = dataclasses.replace(used, probe=FockN(1))
    assert variant.probe == FockN(1) and used.probe == TrojanHorse().probe


FIVE_ATTACKS = (InterceptResend, BeamSplit, ModeDiscrimination, TrojanHorse, BrightLight)


@pytest.mark.parametrize("mu_coherent", [0.2, 0.0])
@pytest.mark.parametrize("kind", [InterceptResend, BeamSplit, ModeDiscrimination, BrightLight])
def test_return_hook_after_no_forward_hook_finds_coherent_output_1(monkeypatch, kind, mu_coherent):
    # Intercept-resend and mode discrimination read output 1 as the
    # coherent light and output 2 as the thermal light, pulse for pulse.
    assert kind.apply_forward is Attack.apply_forward
    seen, real = [], kind.apply_return

    def apply_return(self, batch, *args):
        seen.append(batch)
        return real(self, batch, *args)

    monkeypatch.setattr(kind, "apply_return", apply_return)
    run_session(SessionConfig(n_pulses=3000, seed=4, mu_coherent=mu_coherent), kind())
    [batch] = seen
    assert np.all(_dense(batch.out1)[0] == KIND_COHERENT)
    assert np.all(_dense(batch.out2)[0] == KIND_THERMAL)
    # One level each, as the hooks read.
    assert batch.out1.kind.size == batch.out2.kind.size == 1


@pytest.mark.parametrize("kind", FIVE_ATTACKS)
def test_attack_is_frozen_and_unchanged_by_a_run(kind):
    attack = kind()
    run_session(SessionConfig(n_pulses=2000, seed=3), attack)
    assert attack == kind()
    assert hash(attack) == hash(kind())
    assert len({attack, kind()}) == 1
    name = dataclasses.fields(attack)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(attack, name, getattr(attack, name))


@pytest.mark.parametrize("kind", FIVE_ATTACKS)
def test_one_attack_instance_reruns_byte_identically(kind):
    attack = kind()
    cfg = SessionConfig(n_pulses=5000, seed=21)
    first = run_session(cfg, attack)
    second = run_session(cfg, attack)
    assert first.to_json() == second.to_json()
    assert first.to_json() == run_session(cfg, kind()).to_json()
    assert np.array_equal(first.sifted_key_bob, second.sifted_key_bob)


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
