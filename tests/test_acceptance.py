"""Acceptance suite: one test per release criterion, each printing a
one-line verdict (run with `pytest tests/test_acceptance.py -v -s`).

Every Monte Carlo criterion runs from fixed seeds, so the whole suite is
deterministic.
"""

import json
import math
import time

import numpy as np
import pytest

from ctqkd.attacks import BeamSplit, BrightLight, InterceptResend, TrojanHorse
from ctqkd.detector import (
    DetectorModel,
    click_prob_coherent,
    click_prob_state,
    click_prob_thermal,
    samples_needed,
)
from ctqkd.fock import (
    TruncationConfig,
    coherent_state,
    expectation,
    min_eigenvalue,
    overlap_coherent_thermal,
    phase_shift,
    thermal_state,
    trace_distance,
)
from ctqkd.light import Coherent, FockN
from ctqkd.protocol import SessionConfig, run_session

from test_attacks import guess_prepared_modes, intercept_resend_enumeration
from test_detector import sample_clicks

T40 = TruncationConfig(n_max=40)


def _report(criterion: str, detail: str) -> None:
    print(f"[acceptance] {criterion}: {detail} -- PASS")


def test_criterion_1_overlap_identity_on_grid():
    start = time.time()
    grid = np.round(np.arange(0.0, 1.0001, 0.05), 10)
    worst = 0.0
    for mu_c in grid:
        rho_c = coherent_state(math.sqrt(mu_c), T40)
        for mu_t in grid:
            num = expectation(rho_c, thermal_state(mu_t, T40))
            closed = overlap_coherent_thermal(math.sqrt(mu_c), mu_t)
            worst = max(worst, abs(num - closed))
    elapsed = time.time() - start
    assert worst < 1e-8
    assert elapsed < 10.0
    _report("criterion 1 (overlap identity)",
            f"max |numeric - closed| = {worst:.2e} over {grid.size**2} grid points in {elapsed:.1f}s")


def test_criterion_2_click_probability_agreement():
    worst = 0.0
    for eta in (0.0, 0.1, 0.5, 1.0):
        for pd in (0.0, 1e-5, 1e-2):
            det = DetectorModel(eta, pd)
            for mu in (0.0, 0.2, 0.5, 1.0):
                worst = max(
                    worst,
                    abs(click_prob_state(det, thermal_state(mu, T40)) - click_prob_thermal(det, mu)),
                    abs(click_prob_state(det, coherent_state(math.sqrt(mu), T40))
                        - click_prob_coherent(det, mu)),
                )
    assert worst < 1e-9

    det = DetectorModel(eta=0.1, dark_prob=1e-5)
    n = 10**5
    ok = 0
    for seed in range(100):
        rng = np.random.default_rng(9000 + seed)
        within = True
        for p in (click_prob_thermal(det, 0.2), click_prob_coherent(det, 0.2)):
            f = sample_clicks(p, n, rng).frequency()
            within &= abs(f - p) <= 3 * math.sqrt(p * (1 - p) / n)
        ok += within
    assert ok >= 99
    _report("criterion 2 (click statistics)",
            f"closed-form gap {worst:.2e}; {ok}/100 seeds inside 3-sigma at n=1e5")


def test_criterion_3_security_conditions():
    # invariance of the distance under the phase unitaries
    rng = np.random.default_rng(5)
    worst_unitary = 0.0
    for _ in range(20):
        mu_c, mu_t = rng.uniform(0.05, 1.0, 2)
        phi = rng.uniform(0.0, 2 * math.pi)
        r1 = coherent_state(math.sqrt(mu_c) * np.exp(1j * rng.uniform(0, 2 * math.pi)), T40)
        r2 = thermal_state(mu_t, T40)
        gap = abs(trace_distance(r1, r2)
                  - trace_distance(phase_shift(r1, phi), phase_shift(r2, phi)))
        worst_unitary = max(worst_unitary, gap)
    assert worst_unitary < 1e-10

    # phase invariance of the protection state
    worst_thermal = 0.0
    rho_t = thermal_state(0.2, T40)
    for phi in np.linspace(0.0, 2 * math.pi, 17):
        worst_thermal = max(worst_thermal, trace_distance(rho_t, phase_shift(rho_t, phi)))
    assert worst_thermal <= 1e-12

    # strictly positive spectrum at every cutoff up to 60
    smallest = math.inf
    for n_max in range(1, 61):
        trunc = TruncationConfig(n_max=n_max, tol_trace=0.999)
        for mu in (0.05, 0.2, 1.0):
            ev = min_eigenvalue(thermal_state(mu, trunc))
            assert ev > 0.0, f"kernel at mu={mu}, n_max={n_max}"
            smallest = min(smallest, ev)
    _report("criterion 3 (security conditions)",
            f"unitary gap {worst_unitary:.1e}, thermal shift {worst_thermal:.1e}, "
            f"min thermal eigenvalue {smallest:.1e} > 0 up to cutoff 60")


def test_criterion_4_honest_baseline():
    start = time.time()
    ok = 0
    for seed in range(100):
        res = run_session(SessionConfig(seed=seed))
        ok += (res.alarm == "none") and (res.qber is not None) and (res.qber < 0.01)
    elapsed = time.time() - start
    assert ok >= 95
    assert elapsed < 60.0
    _report("criterion 4 (honest baseline)",
            f"{ok}/100 seeds with qber<0.01 and no alarm in {elapsed:.1f}s")


def test_criterion_5_intercept_resend():
    qber_exp, _, _ = intercept_resend_enumeration(SessionConfig(), 2.0)
    errors = total = 0
    alarms = 0
    for seed in range(100):
        res = run_session(SessionConfig(seed=2000 + seed), InterceptResend(resend_mu=2.0))
        errors += int(np.sum(res.sifted_key_alice != res.sifted_key_bob))
        total += len(res.sifted_key_alice)
        alarms += "alice_power" in res.alarm_sources
    pooled = errors / total
    sigma = math.sqrt(0.25 * 0.75 / total)
    assert alarms == 100
    assert abs(pooled - 0.25) <= 0.02
    assert abs(pooled - qber_exp) <= 4 * sigma
    _report("criterion 5 (intercept-resend)",
            f"sifted QBER {pooled:.4f} (enumeration {qber_exp:.4f}, band 0.25±0.02, "
            f"{total} bits); thermal-monitor alarm {alarms}/100 seeds")


def test_criterion_6_beam_split_sample_count():
    cfg = SessionConfig()
    mu_t = cfg.mu_thermal_at_alice()
    n_star = samples_needed(
        click_prob_thermal(cfg.detector_alice, mu_t),
        click_prob_thermal(cfg.detector_alice, mu_t / 2.0),
        cfg.z_threshold,
    )
    alarms = 0
    for seed in range(100):
        res = run_session(SessionConfig(n_pulses=n_star, seed=3000 + seed), BeamSplit(0.5))
        alarms += "alice_power" in res.alarm_sources
    assert alarms >= 99
    _report("criterion 6 (beam-split)",
            f"alarm in {alarms}/100 seeds at n_pulses = n* = {n_star}")


def test_criterion_7_mode_discrimination_accuracy():
    n = 10**5
    right, bayes = guess_prepared_modes(SessionConfig(n_pulses=n, seed=4000), 4001)
    accuracy = float(np.mean(right))
    expected = 1.0 - bayes
    sigma = math.sqrt(expected * (1.0 - expected) / n)
    assert abs(accuracy - expected) <= 3 * sigma

    mu_t = 0.2
    cfg_eq = SessionConfig(n_pulses=n, seed=4002, mu_coherent=math.log(1 + mu_t), mu_thermal=mu_t)
    right_eq, bayes_eq = guess_prepared_modes(cfg_eq, 4003)
    acc_eq = float(np.mean(right_eq))
    assert bayes_eq == pytest.approx(0.5, abs=1e-9)
    assert acc_eq <= 0.51
    _report("criterion 7 (mode discrimination)",
            f"accuracy {accuracy:.4f} vs 1-Bayes {expected:.4f} (3-sigma {3*sigma:.4f}); "
            f"matched-rate accuracy {acc_eq:.4f} <= 0.51")


def test_criterion_8_trojan_probes():
    bright = coh10 = fock2 = 0
    for seed in range(100):
        res = run_session(SessionConfig(n_pulses=10**4, seed=5000 + seed),
                          TrojanHorse(probe=Coherent(math.sqrt(10.0))))
        coh10 += "bob_power" in res.alarm_sources
        res = run_session(SessionConfig(n_pulses=10**4, seed=5000 + seed),
                          TrojanHorse(probe=FockN(2)))
        fock2 += "bob_power" in res.alarm_sources
    assert coh10 >= 99
    assert fock2 >= 99

    single = run_session(SessionConfig(n_pulses=10**4, seed=5100), TrojanHorse(probe=FockN(1)))
    assert single.eve.learned_phase_count == 0
    _report("criterion 8 (trojan horse)",
            f"bob-monitor alarm: coherent(10) {coh10}/100, fock(2) {fock2}/100; "
            f"fock(1) learned 0 phases")


def test_criterion_9_bright_light():
    alarms = 0
    worst_band = 0.0
    for seed in range(100):
        res = run_session(SessionConfig(n_pulses=10**4, seed=6000 + seed), BrightLight(0.999))
        alarms += "alice_power" in res.alarm_sources
        worst_band = max(worst_band, res.alice_monitor.observed_stat)
    assert alarms == 100
    assert worst_band <= 0.01
    _report("criterion 9 (bright light)",
            f"alarm {alarms}/100 seeds; worst band statistic {worst_band:.4f} <= 0.01")


def test_criterion_10_deterministic_output():
    checked = 0
    for make_attack in (lambda: None, InterceptResend, TrojanHorse, BrightLight):
        cfg = SessionConfig(n_pulses=10**4, seed=7000)
        first = run_session(cfg, make_attack()).to_json()
        second = run_session(cfg, make_attack()).to_json()
        assert first == second
        json.loads(first)  # well-formed
        checked += 1
    _report("criterion 10 (determinism)",
            f"byte-identical JSON across repeat runs for {checked} attack settings")
