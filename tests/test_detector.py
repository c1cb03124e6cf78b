"""Detector click statistics, stream sampling, the band-power statistic and
the monitor hypothesis tests."""

import math

import numpy as np
import pytest

import ctqkd
from ctqkd import protocol
from ctqkd.detector import (
    ClickStream,
    ConfigError,
    DetectorModel,
    NotDistinguishableError,
    band_power,
    click_prob,
    click_prob_coherent,
    click_prob_state,
    click_prob_thermal,
    power_test,
    require_complex,
    require_int,
    require_real,
    samples_needed,
)
from ctqkd.fock import (TruncationConfig, attenuate, coherent_state, fock_state, overlap_coherent_thermal,
                        phase_shift, thermal_state)
from ctqkd.light import BLOCK, Blinding, Coherent, FieldArray, FockN, Thermal

IDEAL = DetectorModel(eta=1.0, dark_prob=0.0)
TYPICAL = DetectorModel(eta=0.1, dark_prob=1e-5)


def test_detector_validation():
    for eta, dark_prob in ((1.2, 0.0), (2.0, 0.0), (0.5, 1.0)):
        with pytest.raises(ConfigError):
            DetectorModel(eta=eta, dark_prob=dark_prob)
    assert ctqkd.ConfigError is protocol.ConfigError is ConfigError


@pytest.mark.parametrize("eta,dark_prob", [("x", 0.0), (None, 0.0), (True, 0.0), (0.1, "1e-5"),
                                           (0.1, None), (0.1, 1e-5j)])
def test_detector_rejects_non_real_numbers(eta, dark_prob):
    with pytest.raises(ConfigError, match="must be a finite real number"):
        DetectorModel(eta=eta, dark_prob=dark_prob)


@pytest.mark.parametrize("value,ends,ok", [(0.0, "[]", True), (0.0, "(]", False), (1.0, "[)", False),
                                          (1.0, "(]", True), (0.5, "()", True), (1.5, "[]", False),
                                          (-0.5, "[]", False), (math.nan, "[]", False)])
def test_require_real_includes_an_end_only_where_bracketed(value, ends, ok):
    if ok:
        require_real("x", value, 0.0, 1.0, ends)
    else:
        with pytest.raises(ConfigError, match=rf"x must be a finite real number in \{ends[0]}0, 1\{ends[1]}"):
            require_real("x", value, 0.0, 1.0, ends)


@pytest.mark.parametrize("value,message", [
    (2.5, "n must be an integer, got 2.5"), (3.0, "n must be an integer, got 3.0"),
    (True, "n must be an integer, got True"), ("3", "n must be an integer, got '3'"),
    (None, "n must be an integer, got None"), (0, "n must be >= 1, got 0"),
    (11, "n must be <= 10, got 11"), (10**20, "n must be <= 10, got 100000000000000000000"),
])
def test_require_int_rejects_non_integers_and_values_out_of_range(value, message):
    with pytest.raises(ConfigError) as info:
        require_int("n", value, 1, 10)
    assert str(info.value) == message


@pytest.mark.parametrize("make", [
    lambda: Thermal(True), lambda: Thermal("0.2"), lambda: Blinding(True), lambda: FockN(2.5),
    lambda: FieldArray.vacuum(2).attenuated(True), lambda: FieldArray.vacuum(2).noclick_factors(1.5),
    lambda: ClickStream(3, 2), lambda: click_prob_coherent(TYPICAL, math.nan),
    lambda: click_prob_thermal(TYPICAL, math.inf), lambda: power_test(ClickStream(1, 2), 1.0, 3.0),
    lambda: samples_needed(0.0, 0.5, 3.0), lambda: TruncationConfig(n_max=2.5),
    lambda: fock_state(1.5), lambda: phase_shift(thermal_state(0.1), math.nan),
    lambda: attenuate(thermal_state(0.1), True), lambda: overlap_coherent_thermal(0.5, math.nan),
    lambda: samples_needed(0.1, 0.5, math.inf), lambda: samples_needed(0.1, 0.5, math.nan),
    lambda: power_test(ClickStream(50, 100), 0.5, math.nan),
], ids=["thermal-bool", "thermal-str", "blinding-bool", "fock-float", "attenuated-bool",
        "noclick-eta", "clicks-over-gates", "coherent-nan", "thermal-inf", "power-test-p1",
        "samples-p0", "n-max-float", "fock-state-float", "phase-nan", "attenuate-bool",
        "overlap-nan", "samples-z-inf", "samples-z-nan", "power-test-z-nan"])
def test_every_numeric_input_takes_the_shared_range_check(make):
    with pytest.raises(ConfigError, match="must be a finite real number|must be an integer|must be <="):
        make()


@pytest.mark.parametrize("make", [
    lambda: Coherent(True), lambda: Coherent("1"), lambda: Coherent(None),
    lambda: coherent_state(True), lambda: coherent_state("1"),
], ids=["coherent-bool", "coherent-str", "coherent-none", "state-bool", "state-str"])
def test_an_amplitude_must_be_a_complex_number(make):
    with pytest.raises(ConfigError, match="must be a complex number"):
        make()


def test_require_complex_returns_a_python_complex_for_any_number():
    assert [require_complex("a", v) for v in (2, np.int64(2), 0.5j, np.complex128(0.5j))] == [2, 2, 0.5j, 0.5j]
    assert type(require_complex("a", np.float64(1.0))) is complex


def test_require_int_returns_a_python_int_with_both_ends_included():
    assert [require_int("n", v, 1, 10) for v in (1, np.int64(10), np.uint8(5))] == [1, 10, 5]
    assert type(require_int("n", np.int64(3), 1, 10)) is int
    assert require_int("seed", 10**30, 0) == 10**30


def test_thermal_click_limits():
    assert click_prob_thermal(DetectorModel(1.0, 0.0), 0.0) == 0.0
    det = DetectorModel(eta=0.0, dark_prob=0.01)
    assert click_prob_thermal(det, 5.0) == pytest.approx(0.01, abs=1e-15)


def test_thermal_click_reference():
    assert click_prob_thermal(IDEAL, 0.2) == pytest.approx(1 - 1 / 1.2, abs=1e-12)


def test_coherent_click_limits_and_reference():
    assert click_prob_coherent(DetectorModel(1.0, 0.0), 0.0) == 0.0
    assert click_prob_coherent(IDEAL, 0.2) == pytest.approx(1 - math.exp(-0.2), abs=1e-12)
    det = DetectorModel(eta=0.1, dark_prob=1e-5)
    expect = 1 - math.exp(-0.02) * (1 - 1e-5)
    assert click_prob_coherent(det, 0.2) == pytest.approx(expect, abs=1e-15)


def test_state_click_on_vacuum_and_fock():
    det = DetectorModel(eta=0.3, dark_prob=0.01)
    assert click_prob_state(det, fock_state(0)) == pytest.approx(0.01, abs=1e-12)
    expect = 1 - (1 - 0.01) * (1 - 0.3) ** 2
    assert click_prob_state(det, fock_state(2)) == pytest.approx(expect, abs=1e-12)


def test_state_click_reduces_to_closed_forms():
    trunc = TruncationConfig(n_max=40)
    worst = 0.0
    for eta in (0.0, 0.1, 0.5, 1.0):
        for pd in (0.0, 1e-5, 0.01):
            det = DetectorModel(eta=eta, dark_prob=pd)
            for mu in (0.0, 0.2, 0.7, 1.0):
                got_t = click_prob_state(det, thermal_state(mu, trunc))
                got_c = click_prob_state(det, coherent_state(math.sqrt(mu), trunc))
                worst = max(
                    worst,
                    abs(got_t - click_prob_thermal(det, mu)),
                    abs(got_c - click_prob_coherent(det, mu)),
                )
    assert worst < 1e-9


def test_click_probabilities_monotone():
    mus = np.linspace(0, 2, 9)
    etas = np.linspace(0, 1, 6)
    pds = (0.0, 1e-4, 1e-2)
    for f in (click_prob_thermal, click_prob_coherent):
        for eta in etas:
            for pd in pds:
                vals = [f(DetectorModel(eta, pd), mu) for mu in mus]
                assert np.all(np.diff(vals) >= -1e-15)
        for mu in mus:
            for pd in pds:
                vals = [f(DetectorModel(eta, pd), mu) for eta in etas]
                assert np.all(np.diff(vals) >= -1e-15)
            vals = [f(DetectorModel(0.3, pd), mu) for pd in pds]
            assert np.all(np.diff(vals) >= -1e-15)


def sample_clicks(p_click, n_gates, rng):
    """Click count of n_gates gates that each click with probability
    p_click: the monitors' draw (protocol.monitor_clicks) over a one-entry
    table."""
    return protocol.monitor_clicks(np.array([p_click]), np.zeros(n_gates, dtype=np.uint8), rng)


def test_sample_clicks_degenerate_and_deterministic():
    rng = np.random.default_rng(5)
    assert sample_clicks(0.0, 100, rng) == ClickStream(0, 100)
    assert sample_clicks(1.0, 100, rng) == ClickStream(100, 100)
    a = sample_clicks(0.3, 1000, np.random.default_rng(42))
    b = sample_clicks(0.3, 1000, np.random.default_rng(42))
    assert a == b


@pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
def test_sample_clicks_counts_one_whole_array_draw(n):
    rng, ref = np.random.default_rng(n), np.random.default_rng(n)
    stream = sample_clicks(0.3, n, rng)
    assert stream == ClickStream(int(ref.binomial(n, 0.3)), n)
    assert type(stream.clicks) is int and type(stream.n_gates) is int
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
def test_sample_clicks_follows_the_binomial_law(n):
    # Exact at p = 0 and p = 1; at p = 0.3, over fixed seeds, each count
    # lies within 5 standard deviations of the binomial mean.
    assert sample_clicks(0.0, n, np.random.default_rng(n)) == ClickStream(0, n)
    assert sample_clicks(1.0, n, np.random.default_rng(n)) == ClickStream(n, n)
    for seed in range(5):
        stream = sample_clicks(0.3, n, np.random.default_rng(seed))
        assert type(stream.clicks) is int and type(stream.n_gates) is int and stream.n_gates == n
        assert abs(stream.clicks - 0.3 * n) <= 5 * math.sqrt(0.3 * 0.7 * n)


@pytest.mark.parametrize("clicks,n_gates", [
    (-1, 10), (11, 10), (0, -1), (2.0, 10), (2, 10.0), (True, 10), (1, True),
    (np.bool_(True), 10), (np.zeros(10, dtype=bool), 10), ("2", 10), (None, 10),
])
def test_click_stream_takes_a_count_of_at_most_n_gates(clicks, n_gates):
    with pytest.raises(ValueError):
        ClickStream(clicks, n_gates)


def test_click_stream_is_two_python_ints():
    stream = ClickStream(np.int64(3), np.uint32(12))
    assert (stream.clicks, stream.n_gates) == (3, 12)
    assert type(stream.clicks) is int and type(stream.n_gates) is int
    assert stream.frequency() == 0.25


def test_sample_clicks_frequency_within_3_sigma():
    stream = sample_clicks(0.2, 10**5, np.random.default_rng(7))
    assert abs(stream.frequency() - 0.2) <= 3 * math.sqrt(0.2 * 0.8 / 10**5)


def test_sample_clicks_convergence_over_trials():
    # 3-sigma coverage across 1000 independently seeded trials
    n, p = 10**4, 0.2
    bound = 3 * math.sqrt(p * (1 - p) / n)
    freqs = np.array([
        sample_clicks(p, n, np.random.default_rng(10_000 + t)).frequency()
        for t in range(1000)
    ])
    assert np.mean(np.abs(freqs - p) <= bound) >= 0.99


def test_band_statistic_extremes_and_max():
    assert band_power(ClickStream(0, 10).frequency()) == 0.0
    assert band_power(ClickStream(10, 10).frequency()) == 0.0
    half = ClickStream(5, 10)
    assert band_power(half.frequency()) == pytest.approx(0.25, abs=1e-15)


def test_both_monitor_statistics_are_the_band_power_law():
    stream = sample_clicks(0.3, 1000, np.random.default_rng(2))
    p_hat = stream.frequency()
    outcome = power_test(stream, 0.29, 5.0)
    assert outcome.observed_stat == band_power(p_hat) == band_power(stream.frequency())
    assert outcome.expected_stat == band_power(0.29) == 0.29 * (1.0 - 0.29)


def test_band_statistic_empty_stream_errors():
    with pytest.raises(ValueError):
        band_power(ClickStream(0, 0).frequency())


def test_power_test_passes_at_true_rate():
    stream = sample_clicks(0.15, 10**5, np.random.default_rng(3))
    outcome = power_test(stream, 0.15, 5.0)
    assert outcome.passed
    assert outcome.n_gates == 10**5
    assert outcome.expected_stat == pytest.approx(0.15 * 0.85, abs=1e-12)


def test_power_test_fails_on_saturated_stream():
    stream = ClickStream(1000, 1000)
    outcome = power_test(stream, 0.15, 5.0)
    assert not outcome.passed
    assert outcome.z_score > 5
    assert outcome.observed_stat == 0.0


def test_power_test_fails_at_shifted_rate():
    n, p, z = 10**5, 0.15, 5.0
    shifted = p + 10 * math.sqrt(p * (1 - p) / n)
    stream = sample_clicks(shifted, n, np.random.default_rng(8))
    assert not power_test(stream, p, z).passed


def test_power_test_rejects_degenerate_expectation():
    stream = sample_clicks(0.5, 100, np.random.default_rng(0))
    for bad in (0.0, 1.0):
        with pytest.raises(ValueError):
            power_test(stream, bad, 5.0)


def test_samples_needed_equal_rates():
    with pytest.raises(NotDistinguishableError):
        samples_needed(0.3, 0.3, 5.0)


def test_samples_needed_wide_separation():
    assert samples_needed(0.01, 0.99, 3.0) == 1


def test_samples_needed_is_minimal():
    p_a, p_b, z = 1 - 1 / 1.2, 1 - math.exp(-0.2), 3.0
    n = samples_needed(p_a, p_b, z)

    def separated(m):
        return abs(p_a - p_b) >= z * (
            math.sqrt(p_a * (1 - p_a) / m) + math.sqrt(p_b * (1 - p_b) / m)
        )

    assert separated(n)
    assert not separated(n - 1)


def test_samples_needed_monte_carlo_discrimination():
    # At the z=3 sample count, midpoint-threshold discrimination errs <= 0.3%.
    p_a, p_b = 1 - 1 / 1.2, 1 - math.exp(-0.2)
    n = samples_needed(p_a, p_b, 3.0)
    rng = np.random.default_rng(17)
    trials = 4000
    mid = 0.5 * (p_a + p_b)
    err_a = np.mean(rng.binomial(n, p_a, trials) / n > mid)
    err_b = np.mean(rng.binomial(n, p_b, trials) / n <= mid)
    assert 0.5 * (err_a + err_b) <= 0.003


def test_click_law_matches_the_written_out_form_bitwise():
    rng = np.random.default_rng(12)
    a, b = rng.uniform(0.0, 1.0, (2, 1000))
    for dark in (0.0, 1e-5, 0.3):
        assert click_prob(dark, a).tobytes() == (1.0 - (1.0 - dark) * a).tobytes()
        # several factors multiply left to right after (1 - dark)
        assert click_prob(dark, a, b).tobytes() == (1.0 - (1.0 - dark) * a * b).tobytes()
        assert click_prob(dark, 0.25, 0.5) == 1.0 - (1.0 - dark) * 0.25 * 0.5
        assert type(click_prob(dark, 0.25)) is float
    a_before = a.copy()
    click_prob(1e-5, a)
    assert np.array_equal(a, a_before)
