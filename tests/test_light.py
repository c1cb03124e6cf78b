"""LightField variants and the vectorized FieldArray carrier."""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from ctqkd.detector import DetectorModel, click_prob, click_prob_state
from ctqkd.fock import attenuate, coherent_state, fock_state, phase_shift, thermal_state, trace_distance
from ctqkd.light import (
    FOCK_N_MAX,
    KIND_BLINDING,
    KIND_COHERENT,
    KIND_FOCK,
    KIND_THERMAL,
    KIND_VACUUM,
    Blinding,
    Coherent,
    FieldArray,
    FockN,
    Thermal,
    Vacuum,
    level_pairs,
    pair_table,
)


def _kinds(fa):
    """The kind of each pulse."""
    return fa.kind[fa.level]


def _params(fa):
    """The param of each pulse."""
    return fa.param[fa.level]


def _attenuated(field, transmittance, rng=None):
    return FieldArray.uniform(field, 1).attenuated(transmittance, rng).field(0)


def test_field_validation():
    with pytest.raises(ValueError):
        Thermal(-0.1)
    with pytest.raises(ValueError):
        FockN(-1)
    with pytest.raises(ValueError):
        Blinding(1.5)


@pytest.mark.parametrize("make", [
    lambda: Thermal(math.nan),
    lambda: Thermal(math.inf),
    lambda: Coherent(math.inf),
    lambda: Coherent(math.sqrt(math.inf)),
    lambda: Coherent(complex(0.0, math.nan)),
    lambda: Coherent(1.0 + 0.5j),
    lambda: Coherent(complex(-1e-300, 2.0)),
    lambda: Coherent(complex(1e-200, 1e-200)),
    lambda: Coherent(1e200),
    lambda: Coherent(-1.5e154j),
], ids=["thermal-nan", "thermal-inf", "coherent-inf", "coherent-sqrt-inf", "coherent-nan",
        "coherent-off-quarter", "coherent-tiny-off-quarter", "coherent-both-tiny",
        "coherent-mean-overflows", "coherent-mean-just-overflows"])
def test_field_rejects_non_finite_or_off_quarter_values(make):
    with pytest.raises(ValueError):
        make()


def test_coherent_mean_photons_is_finite_up_to_the_largest_float():
    assert Coherent(1e154).mean_photons == 1e154 * 1e154
    assert _params(FieldArray.uniform(Coherent(-1e154j), 2)).tolist() == [1e154 * 1e154] * 2


@pytest.mark.parametrize("n", [2.5, 2.0, True, "3", None])
def test_fock_photon_number_must_be_an_integer(n):
    with pytest.raises(ValueError):
        FockN(n)


@pytest.mark.parametrize("n", [2**53 + 1, 2**64, 10**400], ids=["2**53+1", "2**64", "10**400"])
def test_fock_photon_number_must_fit_the_float_column_exactly(n):
    with pytest.raises(ValueError, match=f"n must be <= {2**53}"):
        FockN(n)


def test_fock_photon_number_up_to_2_to_the_53_round_trips():
    assert FOCK_N_MAX == 2**53
    fa = FieldArray.uniform(FockN(FOCK_N_MAX), 2)
    assert fa.field(0) == FockN(2**53) and _params(fa)[1] == 2.0**53
    assert FieldArray.from_fields([FockN(2**53 - 1), FockN(0)]).field(0) == FockN(2**53 - 1)


def test_fock_photon_number_accepts_numpy_integers_and_stores_an_int():
    for n in (np.int64(3), np.uint8(3), 3):
        field = FockN(n)
        assert type(field.n) is int and field == FockN(3) and repr(field) == "FockN(n=3)"
    assert FieldArray.uniform(FockN(np.int32(3)), 1).field(0) == FockN(3)


def test_coherent_amplitude_is_magnitude_and_quarter():
    for q, amp in enumerate((2.5, 2.5j, -2.5, -2.5j)):
        field = Coherent(amp)
        assert (field.quarter, field.mean_photons) == (q, 6.25)
        assert 2.5 * 1j**q == amp
        fa = FieldArray.uniform(field, 3)
        assert fa.quarter.tolist() == [q] * 3 and _params(fa).tolist() == [6.25] * 3
        assert fa.field(2) == field
    assert Coherent(0.0).quarter == 0 and Coherent(-0.0).quarter == 0


def test_attenuate_coherent_scales_amplitude():
    out = _attenuated(Coherent(math.sqrt(0.2)), 0.5)
    assert isinstance(out, Coherent)
    assert out.mean_photons == pytest.approx(0.1, abs=1e-12)


def test_attenuate_thermal_scales_mean():
    out = _attenuated(Thermal(0.2), 0.5)
    assert out == Thermal(0.1)


def test_attenuate_identity_and_blinding():
    assert _attenuated(Blinding(0.9), 0.3) == Blinding(0.9)
    f = Coherent(-0.5j)
    assert _attenuated(f, 1.0) == f


def test_attenuate_fock_thins_binomially():
    rng = np.random.default_rng(4)
    out = FieldArray.uniform(FockN(5), 4000).attenuated(0.6, rng)
    assert np.all(_kinds(out) == KIND_FOCK)
    outs = _params(out)
    assert np.all(outs == np.round(outs))
    assert min(outs) >= 0 and max(outs) <= 5
    assert np.mean(outs) == pytest.approx(3.0, abs=0.1)


@pytest.mark.parametrize("numbers", [[5], [5, 2], [2**53], [2**53, 7]])
def test_fock_thinning_draws_each_pulse_in_order(numbers):
    # One binomial per Fock pulse, in pulse order, whether the train holds
    # one photon number or several; each number drawn becomes a level after
    # the kept one, in ascending order, whether the numbers drawn are small
    # or about 0.6 * 2**53.
    n = 3000
    table = FieldArray.from_fields([Thermal(0.5)] + [FockN(k) for k in numbers])
    level = np.random.default_rng(len(numbers)).integers(0, table.kind.size, n)
    fa = FieldArray(level, np.zeros(n, dtype=np.uint8), table.kind, table.param)
    out = fa.attenuated(0.6, np.random.default_rng(9))
    fock = _kinds(fa) == KIND_FOCK
    drawn = np.random.default_rng(9).binomial(_params(fa)[fock].astype(np.int64), 0.6)
    photons, inverse = np.unique(drawn, return_inverse=True)
    assert out.kind.tolist() == [KIND_THERMAL] + [KIND_FOCK] * photons.size
    assert out.param.tolist() == [0.5 * 0.6] + photons.tolist()
    assert out.level.dtype == np.min_scalar_type(photons.size)
    assert np.array_equal(out.level[fock], 1 + inverse.ravel()) and not out.level[~fock].any()


def test_attenuate_fock_requires_rng():
    with pytest.raises(ValueError):
        _attenuated(FockN(2), 0.5)


def test_phase_shift_field():
    fa = FieldArray.from_fields([Coherent(2.0), Thermal(0.3), FockN(2)])
    out = fa.phase_shifted(2)
    assert out.field(0).amplitude == -2.0
    turned = fa.phase_shifted(1)
    assert turned.field(0) == Coherent(2j)
    assert turned.field(1) == Thermal(0.3)
    assert turned.field(2) == FockN(2)
    assert fa.phase_shifted(np.array([3, 1, 2], dtype=np.uint8)).phase_shifted(1).field(0) == Coherent(2.0)


def test_click_prob_per_kind():
    eta, pd = 0.4, 0.01
    fa = FieldArray.from_fields([Vacuum(), Coherent(1.0), Thermal(0.5), FockN(3)])
    p = click_prob(pd, fa.noclick_factors(eta))
    assert p[0] == pytest.approx(pd, abs=1e-15)
    assert p[1] == pytest.approx(1 - (1 - pd) * math.exp(-eta), abs=1e-12)
    assert p[2] == pytest.approx(1 - (1 - pd) / (1 + eta * 0.5), abs=1e-12)
    assert p[3] == pytest.approx(1 - (1 - pd) * (1 - eta) ** 3, abs=1e-12)


def test_blinding_click_ignores_efficiency():
    blinding = FieldArray.uniform(Blinding(0.95), 1)
    for eta in (0.0, 0.3, 1.0):
        assert click_prob(0.0, blinding.noclick_factors(eta))[0] == pytest.approx(0.95, abs=1e-12)


def test_field_array_roundtrip():
    fields = [Vacuum(), Coherent(1j), Thermal(0.2), FockN(4), Blinding(0.8)]
    fa = FieldArray.from_fields(fields)
    assert len(fa) == 5
    assert [fa.field(i) for i in range(5)] == fields


def test_field_array_where():
    a = FieldArray.uniform(Coherent(1.0), 4)
    b = FieldArray.uniform(Thermal(0.5), 4)
    mask = np.array([True, False, True, False])
    sel = FieldArray.where(mask, a, b)
    assert sel.field(0) == Coherent(1.0)
    assert sel.field(1) == Thermal(0.5)


def test_mean_photons_per_kind():
    fa = FieldArray.from_fields([Coherent(2.0), Thermal(0.7), FockN(3), Vacuum(), Blinding(1.0),
                                 Coherent(-0.3j)])
    # param is each level's mean photon number; blinding light's is its
    # forced-click probability.
    assert fa.param.tolist() == [4.0, 0.7, 3.0, 0.0, 1.0, 0.3**2]


def test_noclick_factor_bounds():
    with pytest.raises(ValueError):
        FieldArray.uniform(Vacuum(), 1).noclick_factors(1.5)


def _mixture(n, kinds, seed=0):
    """Random mixture of the given kinds, one per pulse, with random content."""
    rng = np.random.default_rng(seed)
    kind = rng.choice(np.asarray(kinds, dtype=np.uint8), n)
    coh = kind == KIND_COHERENT
    quarter = np.where(coh, rng.integers(0, 4, n), 0)
    param = np.select(
        [coh, kind == KIND_THERMAL, kind == KIND_FOCK, kind == KIND_BLINDING],
        [np.square(rng.normal(size=n)), rng.uniform(0.0, 3.0, n), rng.integers(0, 8, n).astype(float),
         rng.uniform(0.0, 1.0, n)],
    )
    return FieldArray.from_columns(kind, quarter, param)


ALL_KINDS = (KIND_VACUUM, KIND_COHERENT, KIND_THERMAL, KIND_FOCK, KIND_BLINDING)


def test_field_array_has_two_pulse_columns_over_a_level_table():
    assert FieldArray.__slots__ == ("level", "quarter", "kind", "param")
    fa = _mixture(10, ALL_KINDS)
    assert (fa.level.dtype, fa.quarter.dtype, fa.kind.dtype, fa.param.dtype) == (
        np.uint8, np.uint8, np.uint8, np.float64)
    assert len(fa.level) == len(fa.quarter) == 10 and fa.kind.size == fa.param.size
    assert [fa.field(i) for i in range(10)] == [
        FieldArray.from_fields([fa.field(i)]).field(0) for i in range(10)]


@pytest.mark.parametrize("n_levels,dtype", [(1, np.uint8), (256, np.uint8), (257, np.uint16),
                                            (65536, np.uint16), (65537, np.uint32)])
def test_level_index_is_the_narrowest_unsigned_type(n_levels, dtype):
    fa = FieldArray.from_fields([FockN(i) for i in range(n_levels)])
    assert fa.level.dtype == dtype and fa.kind.size == n_levels
    assert fa.field(n_levels - 1) == FockN(n_levels - 1)


def test_levels_are_distinct_by_kind_and_param_bit_pattern():
    fa = FieldArray.from_fields([Thermal(0.5), Coherent(0.5**0.5), Thermal(0.5), Thermal(-0.0),
                                 Thermal(0.0), Vacuum(), Coherent(-(0.5**0.5))])
    assert fa.kind.tolist() == [KIND_THERMAL, KIND_COHERENT, KIND_THERMAL, KIND_THERMAL, KIND_VACUUM]
    assert fa.level.tolist() == [0, 1, 0, 2, 3, 4, 1]
    assert fa.quarter.tolist() == [0, 0, 0, 0, 0, 0, 2]
    union = FieldArray.where(np.arange(7) % 2 == 0, fa, FieldArray.uniform(Thermal(0.5), 7))
    assert union.kind.size == 5 and union.level.tolist() == [0, 0, 0, 0, 3, 0, 1]


@pytest.mark.parametrize("n", [12, 11])
def test_pair_table_until_it_outnumbers_the_elements(n):
    # 3 x 4 = 12 pairs: a table for 12 elements, one pair each for 11
    col_a = np.arange(n, dtype=np.uint8) % 3
    col_b = np.arange(n, dtype=np.uint8) % 4
    a, b, index = pair_table(3, col_a, 4, col_b)
    assert index.dtype == np.uint8
    if n == 12:
        assert a.tolist() == [0] * 4 + [1] * 4 + [2] * 4 and b.tolist() == [0, 1, 2, 3] * 3
        assert index.tolist() == (col_a * 4 + col_b).tolist()
    else:
        assert a is col_a and b is col_b and index.tolist() == list(range(11))
    assert a[index].tolist() == col_a.tolist() and b[index].tolist() == col_b.tolist()


@pytest.mark.parametrize("size_a,size_b,dtype", [(1, 256, np.uint8), (16, 16, np.uint8),
                                                 (1, 257, np.uint16), (2, 129, np.uint16)])
def test_pair_table_index_is_the_narrowest_unsigned_type(size_a, size_b, dtype):
    # 256 entries keep a uint8 index, even with a multiplier of 256
    n = 300
    col_a = (np.arange(n) % size_a).astype(np.min_scalar_type(size_a - 1))
    col_b = (np.arange(n) * 7 % size_b).astype(np.min_scalar_type(size_b - 1))
    a, b, index = pair_table(size_a, col_a, size_b, col_b)
    assert index.dtype == dtype and a.size == b.size == size_a * size_b
    assert a[index].tolist() == col_a.tolist() and b[index].tolist() == col_b.tolist()


@pytest.mark.parametrize("columns", ["shared", "equal", "distinct"])
def test_level_pairs_give_each_pulse_its_own_pair(columns):
    # Both outputs of one mode swap of two single-level trains hold equal
    # level columns: their pairs are (l, l), two of them, not all 2 x 2.
    n = 50
    mask = np.arange(n) % 3 == 0
    probe, vacuum = FieldArray.uniform(Coherent(2.0), n), FieldArray.vacuum(n)
    a, b = FieldArray.where(mask, vacuum, probe), FieldArray.where(mask, probe, vacuum)
    if columns == "shared":
        b = FieldArray(a.level, b.quarter, b.kind, b.param)
    elif columns == "distinct":
        b = FieldArray.where(np.arange(n) % 2 == 0, probe, vacuum)
    assert (a.level is b.level) == (columns == "shared")
    level_a, level_b, index = level_pairs(a, b)
    assert level_a[index].tolist() == a.level.tolist() and level_b[index].tolist() == b.level.tolist()
    assert level_a.size == (4 if columns == "distinct" else 2)


@pytest.mark.parametrize("column", FieldArray.__slots__)
def test_field_array_columns_are_write_once(column):
    fa = _mixture(10, ALL_KINDS)
    with pytest.raises(ValueError):
        getattr(fa, column)[0] = 1
    for derived in (fa.attenuated(0.5, np.random.default_rng(1)), fa.phase_shifted(1),
                    FieldArray.where(_kinds(fa) > 1, fa, FieldArray.vacuum(10)), fa.copy()):
        with pytest.raises(ValueError):
            getattr(derived, column)[0] = 1


def test_field_array_does_not_freeze_the_callers_array():
    kind, quarter, param = np.ones(4, dtype=np.uint8), np.zeros(4, dtype=np.uint8), np.ones(4)
    level = np.zeros(4, dtype=np.uint8)
    FieldArray(level, quarter, kind[:1], param[:1])
    FieldArray.from_columns(kind, quarter, param)
    FieldArray.uniform(Coherent(1.0), 4).phase_shifted(quarter)
    kind[0], quarter[0], param[0], level[0] = 2, 3, 2.0, 1


def test_zero_invariants_hold_after_transforms():
    fa = _mixture(2000, ALL_KINDS)
    for out in (fa, fa.attenuated(0.3, np.random.default_rng(2)), fa.phase_shifted(3),
                fa.phase_shifted(np.arange(2000).astype(np.uint8))):
        assert np.all(out.quarter[_kinds(out) != KIND_COHERENT] == 0)
        assert np.all(out.quarter <= 3)
        assert np.all(out.param[out.kind == KIND_VACUUM] == 0)
        assert np.all(out.level < out.kind.size)


def test_transforms_leave_input_unchanged_and_share_columns():
    fa = _mixture(2000, ALL_KINDS)
    before = [getattr(fa, c).copy() for c in FieldArray.__slots__]
    lossy = fa.attenuated(0.4, np.random.default_rng(3))
    shifted = fa.phase_shifted(np.arange(2000).astype(np.uint8))
    for col, old in zip(FieldArray.__slots__, before):
        assert np.array_equal(getattr(fa, col), old)
        assert getattr(fa, col).tobytes() == old.tobytes()
    # Thinning re-levels the photon numbers: only the quarter column stays.
    assert lossy.quarter is fa.quarter
    assert shifted.level is fa.level and shifted.kind is fa.kind and shifted.param is fa.param
    assert not np.shares_memory(shifted.quarter, fa.quarter)


@pytest.mark.parametrize("kinds", [(KIND_VACUUM, KIND_COHERENT, KIND_THERMAL, KIND_BLINDING),
                                   (KIND_COHERENT,)])
def test_loss_without_photon_numbers_keeps_the_pulse_columns(kinds):
    fa = _mixture(2000, kinds)
    lossy = fa.attenuated(0.4)
    assert lossy.level is fa.level and lossy.quarter is fa.quarter and lossy.kind is fa.kind
    assert lossy.param.size == fa.param.size


def _masked_noclick(fa, eta):
    """Per-kind reference: each formula applied only where its kind sits."""
    out = np.ones(len(fa))
    mu = _params(fa)
    coh, th, fock, blind = (_kinds(fa) == k for k in (KIND_COHERENT, KIND_THERMAL, KIND_FOCK,
                                                      KIND_BLINDING))
    out[coh] = np.exp(-eta * mu[coh])
    out[th] = 1.0 / (1.0 + eta * mu[th])
    out[fock] = (1.0 - eta) ** mu[fock]
    out[blind] = 1.0 - mu[blind]
    return out


@pytest.mark.parametrize("kinds", [(KIND_VACUUM, KIND_COHERENT, KIND_THERMAL), (KIND_COHERENT,),
                                   (KIND_THERMAL,), (KIND_VACUUM,), (KIND_COHERENT, KIND_THERMAL),
                                   ALL_KINDS, (KIND_FOCK,), (KIND_BLINDING,),
                                   (KIND_COHERENT, KIND_FOCK), (KIND_THERMAL, KIND_BLINDING)])
@pytest.mark.parametrize("eta", [0.0, 0.0125, 0.1, 0.37, 1.0])
def test_whole_array_noclick_equals_masked_formulas_bitwise(kinds, eta):
    fa = _mixture(5000, kinds, seed=len(kinds))
    assert set(np.unique(_kinds(fa))) == set(kinds)
    got = fa.noclick_factors(eta)[fa.level]
    assert got.tobytes() == _masked_noclick(fa, eta).tobytes()
    lossy = fa.attenuated(0.81, np.random.default_rng(6))
    assert lossy.noclick_factors(eta)[lossy.level].tobytes() == _masked_noclick(lossy, eta).tobytes()


def test_noclick_of_very_bright_light_is_exact():
    # A thermal mean whose square overflows must not leak inf * 0 = nan into
    # the coherent term of the whole-array path.
    fa = FieldArray.from_fields([Thermal(1e200), Coherent(1e100), Vacuum()])
    assert fa.noclick_factors(0.5).tolist() == [1.0 / (1.0 + 0.5e200), 0.0, 1.0]


def test_fock_thinning_and_blinding_on_mixed_arrays():
    n = 20000
    five = FieldArray.from_fields([FockN(5), Blinding(0.8), Coherent(2.0), Thermal(0.5), Vacuum()])
    fa = FieldArray(np.tile(five.level, n // 5), np.tile(five.quarter, n // 5), five.kind, five.param)
    out = fa.attenuated(0.6, np.random.default_rng(5))
    kind, param = _kinds(out), _params(out)
    fock, blind = kind == KIND_FOCK, kind == KIND_BLINDING
    photons = param[fock]
    assert np.all(photons == np.round(photons)) and photons.min() >= 0 and photons.max() <= 5
    assert np.mean(photons) == pytest.approx(3.0, abs=0.05)
    assert np.array_equal(photons, np.random.default_rng(5).binomial(np.full(n // 5, 5), 0.6))
    assert np.all(param[blind] == 0.8)
    assert np.all(param[kind == KIND_THERMAL] == 0.5 * 0.6)
    assert np.all(param[kind == KIND_COHERENT] == 4.0 * 0.6)
    # One level per photon number drawn, next to the four other levels.
    assert out.kind.size == 4 + np.unique(photons).size

    eta = 0.3
    f = out.noclick_factors(eta)[out.level]
    assert np.array_equal(f[fock], (1.0 - eta) ** photons)
    assert np.all(f[blind] == 1.0 - 0.8)
    assert f.tobytes() == _masked_noclick(out, eta).tobytes()
    with pytest.raises(ValueError):
        fa.attenuated(0.6)


def test_few_photon_probs_match_the_photon_number_pmfs():
    fields = [Coherent(2.0), Coherent(1e-5), Thermal(0.5), Thermal(1e-7), FockN(0), FockN(1), FockN(3),
              Vacuum(), Blinding(0.2), Coherent(math.sqrt(1e19))]
    zero, one = FieldArray.from_fields(fields).few_photon_probs()
    want = [scipy.stats.poisson(4.0), scipy.stats.poisson(1e-10), scipy.stats.nbinom(1, 1 / 1.5),
            scipy.stats.nbinom(1, 1 / (1 + 1e-7))]
    for i, law in enumerate(want):
        assert zero[i] == pytest.approx(law.pmf(0), rel=1e-12)
        assert one[i] == pytest.approx(law.pmf(1), rel=1e-12)
    # definite photon numbers 0, 1, 3 and vacuum; blinding light counts
    # many photons, and a coherent pulse of mean 1e19 more than one in
    # all but a vanishing fraction
    assert zero[4:].tolist() == [1.0, 0.0, 0.0, 1.0, 0.0, 0.0]
    assert one[4:].tolist() == [0.0, 1.0, 0.0, 0.0, 0.0, 0.0]


def test_empty_field_array():
    fa = FieldArray.vacuum(0)
    assert fa.noclick_factors(0.5)[fa.level].size == 0
    assert len(FieldArray.from_fields([])) == 0
    assert len(fa.attenuated(0.5)) == 0


def _fock_oracle(field):
    if isinstance(field, Coherent):
        return coherent_state(field.amplitude)
    if isinstance(field, Thermal):
        return thermal_state(field.mean_photons)
    return fock_state(field.n)


# Coherent means stay <= 6.25 and thermal means <= 1, where the default
# n_max=40 cutoff discards < 1e-10 of the state, so the truncated oracle and
# the closed forms agree well within ORACLE_TOL.
ORACLE_TOL = 1e-9
FIELDS = st.one_of(
    st.builds(lambda r, q: Coherent(r * 1j**q), st.floats(0.0, 2.5), st.integers(0, 3)),
    st.builds(Thermal, st.floats(0.0, 1.0)),
    st.builds(FockN, st.integers(0, 12)),
)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(field=FIELDS, quarter=st.integers(0, 3), transmittance=st.floats(0.0, 1.0),
       eta=st.floats(0.0, 1.0), dark=st.sampled_from([0.0, 1e-5, 0.01]))
def test_click_probability_after_loss_and_phase_matches_fock_oracle(field, quarter, transmittance,
                                                                    eta, dark):
    det = DetectorModel(eta, dark)
    rho = phase_shift(attenuate(_fock_oracle(field), transmittance), quarter * math.pi / 2)
    expected = click_prob_state(det, rho)
    n = 20000 if isinstance(field, FockN) else 1
    out = FieldArray.uniform(field, n).attenuated(transmittance, np.random.default_rng(0))
    out = out.phase_shifted(quarter)
    p = click_prob(dark, out.noclick_factors(eta))[out.level]
    if isinstance(field, FockN):
        # Thinning draws each pulse's surviving photon number: compare the
        # mean over the pulses within 5 standard errors.
        assert abs(p.mean() - expected) <= 5 * p.std() / math.sqrt(n) + ORACLE_TOL
        return
    assert p[0] == pytest.approx(expected, abs=ORACLE_TOL)
    if isinstance(field, Coherent):
        # magnitude and quarter name the same state the exact channel gives
        assert trace_distance(coherent_state(out.field(0).amplitude), rho) < 1e-8
