"""Distinguishability curves, parameter sweeps and report writers."""

import dataclasses
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


@pytest.mark.parametrize("grid", [[2.5], [10, 2.5], [3.0], [True], ["3"]])
def test_curve_rejects_non_integer_sample_counts(grid):
    with pytest.raises(ConfigError, match="integers"):
        distinguishability_curve(0.2, 0.2, IDEAL, grid, np.random.default_rng(1), trials=10)


@pytest.mark.parametrize("kwargs", [
    {"trials": 0}, {"trials": -3}, {"trials": True}, {"trials": 2.5}, {"trials": "10"},
    {"mu_t": -0.1}, {"mu_t": math.nan}, {"mu_c": math.nan}, {"mu_c": math.inf}, {"mu_c": True},
])
def test_curve_rejects_bad_trials_and_means_before_any_draw(kwargs):
    args = {"mu_t": 0.2, "mu_c": 0.3, "trials": 10, **kwargs}
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    with pytest.raises(ConfigError, match="trials" if "trials" in kwargs else next(iter(kwargs))):
        distinguishability_curve(args["mu_t"], args["mu_c"], IDEAL, [1, 10], rng, trials=args["trials"])
    assert rng.bit_generator.state == state


def test_curve_rejects_sample_counts_beyond_int64():
    # Generator.binomial takes an int64 count; a larger one is a
    # configuration error, not numpy's OverflowError.
    n_max = np.iinfo(np.int64).max
    with pytest.raises(ConfigError, match="sample counts"):
        distinguishability_curve(0.2, 0.3, IDEAL, [10, 10**20], np.random.default_rng(1), trials=10)
    with pytest.raises(ConfigError, match="sample counts"):
        distinguishability_curve(0.2, 0.3, IDEAL, [n_max + 1], np.random.default_rng(1), trials=10)
    (row,) = distinguishability_curve(0.2, 0.3, IDEAL, [n_max], np.random.default_rng(1), trials=10)
    assert row["n_samples"] == n_max


def test_curve_rejects_an_empty_grid_and_trials_beyond_numpy_array_sizes():
    with pytest.raises(ConfigError, match="n_grid must be nonempty"):
        distinguishability_curve(0.2, 0.3, IDEAL, [], np.random.default_rng(1), trials=10)
    for trials in (np.iinfo(np.intp).max + 1, 10**20):
        with pytest.raises(ConfigError, match="trials must be <="):
            distinguishability_curve(0.2, 0.3, IDEAL, [10], np.random.default_rng(1), trials=trials)


@pytest.mark.parametrize("kwargs,name", [
    ({"n": 0}, "n"), ({"n": 2.5}, "n"), ({"n": True}, "n"), ({"n": np.iinfo(np.int64).max + 1}, "n"),
    ({"trials": 0}, "trials"), ({"trials": np.iinfo(np.intp).max + 1}, "trials"),
    ({"p_a": 1.5}, "p_a"), ({"p_a": math.nan}, "p_a"), ({"p_b": -0.1}, "p_b"), ({"p_b": True}, "p_b"),
])
def test_discrimination_error_rejects_bad_inputs_before_any_draw(kwargs, name):
    args = {"p_a": 0.2, "p_b": 0.3, "n": 10, "trials": 10, **kwargs}
    rng = np.random.default_rng(1)
    state = rng.bit_generator.state
    with pytest.raises(ConfigError, match=f"^{name} must be"):
        discrimination_error(args["p_a"], args["p_b"], args["n"], args["trials"], rng)
    assert rng.bit_generator.state == state


def test_curve_accepts_numpy_integer_sample_counts():
    rows = distinguishability_curve(0.2, 0.2, IDEAL, np.array([1, 7]), np.random.default_rng(1),
                                    trials=10)
    assert [r["n_samples"] for r in rows] == [1, 7]


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
        attack=BeamSplit(),
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
        attack=InterceptResend(),
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


@pytest.mark.parametrize("parameter,detector,field", [
    ("alice.eta", "detector_alice", "eta"),
    ("alice.dark_prob", "detector_alice", "dark_prob"),
    ("bob.eta", "detector_bob", "eta"),
    ("bob.dark_prob", "detector_bob", "dark_prob"),
])
def test_sweep_detector_parameter_replaces_that_detector(parameter, detector, field):
    base = SessionConfig(n_pulses=3000, seed=21)
    value = 0.25 if field == "eta" else 0.002
    cfg, attack = analysis.resolve_parameters(base, None, {parameter: value})
    other = "detector_bob" if detector == "detector_alice" else "detector_alice"
    assert getattr(cfg, detector) == dataclasses.replace(getattr(base, detector), **{field: value})
    assert getattr(cfg, other) == getattr(base, other) and attack is None
    assert dataclasses.replace(cfg, **{detector: getattr(base, detector)}) == base


def test_resolver_rebuilds_each_object_once_so_values_are_checked_together():
    # Alone, a dark-free Alice detector on a source with no thermal light
    # leaves her monitor nothing to expect; set with a thermal mean, it is valid.
    base = SessionConfig(n_pulses=3000, mu_thermal=0.0)
    values = {"alice.dark_prob": 0.0, "session.mu_thermal": 0.2, "bob.eta": 0.3, "n_pulses": 4000.0}
    cfg, attack = analysis.resolve_parameters(base, None, values)
    assert cfg == dataclasses.replace(base, mu_thermal=0.2, n_pulses=4000,
                                      detector_alice=DetectorModel(0.1, 0.0),
                                      detector_bob=DetectorModel(0.3, 1e-5))
    assert type(cfg.n_pulses) is int and attack is None
    with pytest.raises(ConfigError, match="monitor"):
        analysis.resolve_parameters(base, None, {"alice.dark_prob": 0.0})
    assert analysis.resolve_parameters(base, None, {}) == (base, None)


@pytest.mark.parametrize("parameter", ["attack.tap_fraction", "eve.tap_fraction", "alice",
                                       "session.detector_alice", "alice.gain", "bob."])
def test_resolver_names_the_keys_a_run_takes(parameter):
    with pytest.raises(ConfigError) as info:
        analysis.resolve_parameters(SessionConfig(n_pulses=2000), None, {parameter: 0.5})
    message, _, taken = str(info.value).partition("; this run takes ")
    assert message == f"unknown parameter {parameter!r}"
    assert taken.split(", ") == list(analysis.parameter_keys(SessionConfig(), None))
    assert "alice.eta" in taken and "attack." not in taken


def test_sweep_over_a_session_config_key_matches_the_bare_field():
    base = SessionConfig(n_pulses=4000, seed=17)
    points = [run_sweep(SweepSpec(parameter=p, values=(0.1, 0.3), base=base, seeds_per_point=2))
              for p in ("session.mu_thermal", "mu_thermal")]
    assert points[0] == points[1]
    assert [p.x for p in points[0]] == [0.1, 0.3]


def test_sweep_rejects_the_seed_as_a_config_key():
    with pytest.raises(ConfigError, match="seed cannot be swept"):
        SweepSpec(parameter="session.seed", values=(1, 2), base=SessionConfig(n_pulses=2000))


def test_sweep_rejects_a_pulse_count_beyond_numpy_array_sizes(monkeypatch):
    sessions = []
    monkeypatch.setattr(analysis, "run_session", lambda *args: sessions.append(args))
    spec = SweepSpec(parameter="n_pulses", values=(2000.0, 1e25), base=SessionConfig())
    with pytest.raises(ConfigError, match="n_pulses must be <="):
        run_sweep(spec)
    assert sessions == []


def test_sweep_over_a_detector_parameter_matches_sessions():
    base = SessionConfig(n_pulses=5000, seed=13)
    points = run_sweep(SweepSpec(parameter="alice.eta", values=(0.1, 0.6), base=base))
    for point, eta in zip(points, (0.1, 0.6)):
        res = run_session(dataclasses.replace(base, detector_alice=DetectorModel(eta, 1e-5)))
        assert point.x == eta
        assert point.mean_z_alice == pytest.approx(abs(res.alice_monitor.z_score))
        assert point.key_rate == pytest.approx(len(res.sifted_key_alice) / base.n_pulses)
    assert points[1].key_rate > points[0].key_rate  # a better detector sifts more


def test_sweep_rejects_unknown_parameter():
    spec = SweepSpec(parameter="nonexistent", values=(1,), base=SessionConfig(n_pulses=100, seed=0))
    with pytest.raises(ValueError):
        run_sweep(spec)


def test_sweep_rejects_seed_parameter():
    # Each replicate's seed is set before the swept value, so sweeping the
    # seed itself would run every replicate of a point on one seed.
    with pytest.raises(ConfigError):
        SweepSpec(parameter="seed", values=(1, 2), base=SessionConfig(n_pulses=2000), seeds_per_point=3)


@pytest.mark.parametrize("parameter,value,kind", [
    ("attack.tap_fraction", 1.5, BeamSplit),
    ("attack.resend_mu", -1.0, InterceptResend),
    ("attack.probe", 0.5, TrojanHorse),
    ("attack.eve_det", 0.5, ModeDiscrimination),
    ("attack.label", 0.5, BeamSplit),
    ("n_pulses", math.nan, None),
    ("detector_alice", 0.5, None),
    ("mu_coherent_at_bob", 0.5, None),
    ("alice.eta", 1.5, None),
    ("alice.eta", math.nan, None),
    ("bob.dark_prob", -0.1, None),
    ("bob.dark_prob", 1.0, None),
    ("alice.gain", 0.5, None),
    ("bob.", 0.5, None),
])
def test_sweep_rejects_bad_attack_value_before_running(monkeypatch, parameter, value, kind):
    # A bad swept value is a configuration error, never an alarm, and it is
    # found before the valid value ahead of it costs a session.
    sessions = []
    monkeypatch.setattr(analysis, "run_session", lambda *args: sessions.append(args))
    spec = SweepSpec(parameter=parameter, values=(0.5, value), base=SessionConfig(n_pulses=2000),
                     attack=kind() if kind else None)
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
    # A string grid once ran as its characters, a string base or a non-string
    # parameter failed inside the first session's resolution.
    with pytest.raises(ConfigError, match="values must be a tuple or list, got '0.1'"):
        SweepSpec("mu_thermal", "0.1", SessionConfig(n_pulses=100))
    with pytest.raises(ConfigError, match="base must be a SessionConfig"):
        SweepSpec("mu_thermal", (0.1,), "session")
    with pytest.raises(ConfigError, match="parameter must be a str, got 3"):
        SweepSpec(3, (0.1,), SessionConfig(n_pulses=100))


@pytest.mark.parametrize("seeds", [2.5, 2.0, "2", True, None])
def test_sweep_spec_rejects_a_non_integer_seed_count(seeds):
    with pytest.raises(ConfigError, match="seeds_per_point"):
        SweepSpec(parameter="mu_coherent", values=(0.2,), base=SessionConfig(n_pulses=2000),
                  seeds_per_point=seeds)


def test_sweep_spec_takes_an_attack_value_not_a_class():
    with pytest.raises(ConfigError):
        SweepSpec(parameter="n_pulses", values=(1000,), base=SessionConfig(), attack=BeamSplit)
    attack = BeamSplit(0.3)
    spec = SweepSpec(parameter="attack.tap_fraction", values=(0.5,),
                     base=SessionConfig(n_pulses=2000), attack=attack, seeds_per_point=2)
    assert run_sweep(spec) == run_sweep(spec)
    assert spec.attack is attack and attack == BeamSplit(0.3)


def test_export_empty_errors():
    with pytest.raises(ValueError):
        export_csv([])


def test_export_csv_single_point():
    point = CurvePoint(x=0.5, alarm_rate=1.0, mean_qber=0.2471239, mean_z_alice=12.0,
                       mean_z_bob=0.3, key_rate=0.004)
    text = export_csv([point.to_dict()])
    lines = text.strip().split("\n")
    assert lines[0] == "x,alarm_rate,mean_qber,mean_z_alice,mean_z_bob,key_rate"
    assert lines[1].startswith("0.5,1,0.247124,")

