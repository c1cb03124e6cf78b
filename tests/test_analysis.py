"""Distinguishability curves, parameter sweeps and report writers."""

import json
import math

import numpy as np
import pytest

from ctqkd import analysis
from ctqkd.analysis import (
    CurvePoint,
    SweepSpec,
    discrimination_error,
    distinguishability_curve,
    export_csv,
    export_json,
    export_report,
    run_sweep,
)
from ctqkd.attacks import BeamSplit, InterceptResend, ModeDiscrimination, TrojanHorse
from ctqkd.detector import DetectorModel, click_prob_coherent, click_prob_thermal, samples_needed
from ctqkd.protocol import ConfigError, SessionConfig, run_session

IDEAL = DetectorModel(eta=1.0, dark_prob=0.0)


def test_discrimination_flat_half_when_rates_match():
    rng = np.random.default_rng(1)
    for n in (1, 100, 10**4):
        err = discrimination_error(0.17, 0.17, n, 2000, rng)
        assert abs(err - 0.5) < 0.05


def test_discrimination_error_small_at_separation_count():
    p_t = click_prob_thermal(IDEAL, 0.2)
    p_c = click_prob_coherent(IDEAL, 0.2)
    n_star = samples_needed(p_t, p_c, 3.0)
    err = discrimination_error(p_t, p_c, n_star, 4000, np.random.default_rng(2))
    assert err <= 0.003


@pytest.mark.parametrize("mu", [0.1, 0.2, 0.5, 1.0])
def test_discrimination_single_shot_matches_bayes(mu):
    p_t = click_prob_thermal(IDEAL, mu)
    p_c = click_prob_coherent(IDEAL, mu)
    trials = 20000
    err = discrimination_error(p_t, p_c, 1, trials, np.random.default_rng(3))
    bayes = 0.5 * (min(p_c, p_t) + min(1 - p_c, 1 - p_t))
    sigma = math.sqrt(bayes * (1 - bayes) / trials)
    assert abs(err - bayes) <= 3 * sigma


def test_curve_monotone_and_reproducible():
    det = DetectorModel(eta=1.0, dark_prob=0.0)
    grid = (1, 10, 100, 1000, 10000, 30000)
    rows_a = distinguishability_curve(0.2, 0.2, det, grid, np.random.default_rng(4), trials=1500)
    rows_b = distinguishability_curve(0.2, 0.2, det, grid, np.random.default_rng(4), trials=1500)
    assert rows_a == rows_b
    errs = [r["discrimination_error"] for r in rows_a]
    # nonincreasing within Monte Carlo noise
    for earlier, later in zip(errs, errs[1:]):
        assert later <= earlier + 0.03
    assert errs[-1] < 0.01


def test_sweep_single_point_matches_session():
    base = SessionConfig(n_pulses=10**4, seed=77)
    spec = SweepSpec(parameter="n_pulses", values=(10**4,), base=base)
    (point,) = run_sweep(spec)
    res = run_session(base)
    assert point.alarm_rate == (0.0 if res.alarm == "none" else 1.0)
    assert point.mean_qber == pytest.approx(res.qber)
    assert point.key_rate == pytest.approx(len(res.sifted_key_alice) / base.n_pulses)


def test_sweep_beamsplit_alarm_rate_nondecreasing():
    base = SessionConfig(n_pulses=2 * 10**4, seed=5)
    spec = SweepSpec(
        parameter="attack.tap_fraction",
        values=(0.1, 0.3, 0.5, 0.7, 0.9),
        base=base,
        attack_factory=BeamSplit,
        seeds_per_point=3,
    )
    points = run_sweep(spec)
    rates = [p.alarm_rate for p in points]
    assert all(b >= a for a, b in zip(rates, rates[1:]))
    assert rates[-1] == 1.0


def test_sweep_intercept_resend_alarm_rate_saturates():
    base = SessionConfig(seed=8)
    spec = SweepSpec(
        parameter="n_pulses",
        values=(2000, 20000),
        base=base,
        attack_factory=InterceptResend,
        seeds_per_point=3,
    )
    points = run_sweep(spec)
    assert points[-1].alarm_rate == 1.0


def test_sweep_is_deterministic():
    base = SessionConfig(n_pulses=5000, seed=9)
    spec = SweepSpec(parameter="mu_coherent", values=(0.1, 0.2), base=base, seeds_per_point=2)
    a = run_sweep(spec)
    b = run_sweep(spec)
    assert a == b


def test_sweep_rejects_unknown_parameter():
    spec = SweepSpec(parameter="nonexistent", values=(1,), base=SessionConfig(n_pulses=100, seed=0))
    with pytest.raises(ValueError):
        run_sweep(spec)


def test_sweep_rejects_seed_parameter():
    # Each replicate's seed is set before the swept value, so sweeping the
    # seed itself would run every replicate of a point on one seed.
    with pytest.raises(ConfigError):
        SweepSpec(parameter="seed", values=(1, 2), base=SessionConfig(n_pulses=2000), seeds_per_point=3)


@pytest.mark.parametrize("parameter,value,factory", [
    ("attack.tap_fraction", 1.5, BeamSplit),
    ("attack.resend_mu", -1.0, InterceptResend),
    ("attack.probe", 0.5, TrojanHorse),
    ("attack.eve_det", 0.5, ModeDiscrimination),
    ("attack.label", 0.5, BeamSplit),
    ("n_pulses", math.nan, None),
    ("detector_alice", 0.5, None),
    ("mu_coherent_at_bob", 0.5, None),
])
def test_sweep_rejects_bad_attack_value_before_running(monkeypatch, parameter, value, factory):
    # A bad swept value is a configuration error, never an alarm, and it is
    # found before the valid value ahead of it costs a session.
    sessions = []
    monkeypatch.setattr(analysis, "run_session", lambda *args: sessions.append(args))
    spec = SweepSpec(parameter=parameter, values=(0.5, value), base=SessionConfig(n_pulses=2000),
                     attack_factory=factory)
    with pytest.raises(ConfigError):
        run_sweep(spec)
    assert sessions == []


def test_sweep_propagates_session_failures(monkeypatch):
    def broken(*args):
        raise RuntimeError("simulated defect")

    monkeypatch.setattr(analysis, "run_session", broken)
    spec = SweepSpec(parameter="mu_coherent", values=(0.2,), base=SessionConfig(n_pulses=2000))
    with pytest.raises(RuntimeError):
        run_sweep(spec)


def test_sweep_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(parameter="n_pulses", values=(), base=SessionConfig())
    with pytest.raises(ValueError):
        SweepSpec(parameter="n_pulses", values=(1,), base=SessionConfig(), seeds_per_point=0)


def test_export_empty_errors():
    with pytest.raises(ValueError):
        export_csv([])
    with pytest.raises(ValueError):
        export_json([])


def test_export_csv_single_point():
    point = CurvePoint(x=0.5, alarm_rate=1.0, mean_qber=0.2471239, mean_z_alice=12.0,
                       mean_z_bob=0.3, key_rate=0.004)
    text = export_csv([point.to_dict()])
    lines = text.strip().split("\n")
    assert lines[0] == "x,alarm_rate,mean_qber,mean_z_alice,mean_z_bob,key_rate"
    assert lines[1].startswith("0.5,1,0.247124,")


def test_export_json_roundtrip():
    rows = [{"a": 1.25, "b": "x"}, {"a": 2.5, "b": "y"}]
    back = json.loads(export_json(rows))
    assert back == rows


def test_export_report_dispatch():
    rows = [{"a": 1}]
    assert export_report(rows, "csv").startswith("a\n")
    assert json.loads(export_report(rows, "json")) == rows
    with pytest.raises(ValueError):
        export_report(rows, "xml")
